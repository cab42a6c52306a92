"""Synthetic success-rate oracle standing in for a trained policy.

The oracle maps (training dataset, evaluation composition) to a success
probability through a saturating exponential in an "effective demonstration
energy": direct demos at the composition plus a compositional-transfer term
proportional to the weakest per-dimension level marginal.  Level-pair
blacklists cut the transfer term only; direct demos always count.  One frozen
``OracleParams`` holds the constants (kappa0, beta, p_max, blacklist, seed):
``default_family(seed)`` returns the pinned defaults, and ``params_for(space)``
drops the blacklist pairs a space does not have, so one instance drives every
stage of an expansion.  Rollouts are Bernoulli draws from Philox4x64-10
streams keyed by (seed, tag) with the cell index in the counter, computed for
many cells at once in numpy integer arithmetic, so results never depend on
evaluation order.  One rollout kernel serves all three evaluations (the full
grid, every slot x new cell in exact mode, and slots picked by their frozen
ratios): it takes a (slots x cells) block of success probabilities and
returns each cell's hits.  Only cells whose outcome is uncertain take draws:
a uniform in [0, 1) is always below p = 1 and never below p = 0, so the k
rollouts of a cell at exactly 0 or 1 are known, and since each cell's
stream depends only on (seed, tag, cell), leaving it out changes no other
cell's draws.  A report keeps only the per-cell success counts and k;
rates and rollout totals are derived.  Its rates CSV is written from arrays:
the grid's label column plus, per cell, one of the at most k + 1 row
suffixes ",n,k,rate", each formatted once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import Dataset, InputMemoryError, marginal_counts
from .spaces import (
    FactorSpace,
    Tensor,
    gather_slots,
    integer,
    integer_array,
    label_column,
    new_factor_subspace,
)

# One blacklist entry pins a level on each of two distinct dimensions:
# ((dim_a, level_a), (dim_b, level_b)), stored with dim_a < dim_b.
BlacklistPair = tuple[tuple[int, int], tuple[int, int]]

_MASK64 = (1 << 64) - 1


def derive_tag(*parts: int) -> int:
    """Fold integers into a single 64-bit stream tag (splitmix-style)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = (acc ^ (int(p) & _MASK64)) * 0x9E3779B97F4A7C15 & _MASK64
        acc ^= acc >> 29
    return acc


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
# SC'11) with numpy's constants.  Every operand is a uint64 array or np.uint64
# so the arithmetic wraps silently under any promotion rules.
_U64 = np.uint64
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=_U64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=_U64)
_PHILOX_ROUNDS = np.arange(10, dtype=_U64)[:, None, None]
_LO32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_MUL_LO = _PHILOX_MUL & _LO32
_MUL_HI = _PHILOX_MUL >> _SHIFT32
# Cells per pass: bounds the uint64 temporaries while keeping numpy calls few.
_CHUNK_CELLS = 2048


def _philox4x64_10(
    a: np.ndarray, b: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ten Philox rounds on (2, n) lanes a = (x0, x2) and b = (x1, x3).

    keys holds the (2, 1) key of each round.  A round multiplies a by the
    two constants; mulhi comes from 32-bit half products.
    """
    for key in keys:
        a_lo = a & _LO32
        a_hi = a >> _SHIFT32
        t = a_hi * _MUL_LO
        t += (a_lo * _MUL_LO) >> _SHIFT32
        mid = a_lo * _MUL_HI
        mid += t & _LO32
        hi = a_hi * _MUL_HI
        hi += t >> _SHIFT32
        hi += mid >> _SHIFT32
        lo = a * _PHILOX_MUL
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        a = hi[::-1] ^ b ^ key
        b = lo[::-1]
    return a, b


def _cell_uniforms(seed: int, tag: int, index: np.ndarray, draws: int) -> np.ndarray:
    """A (len(index), draws) array of uniforms; row j starts cell index[j]'s stream.

    Cell i's stream is numpy's ``Philox(key=[seed, tag], counter=[0, i, 0, 0])``
    read through ``Generator.random``, reproduced bit for bit: block j of
    cell i is Philox4x64-10 of counter (j + 1, i, 0, 0) under key
    (seed, tag), its four words are drawn in order, and a word u becomes
    (u >> 11) * 2**-53.  A row depends only on (seed, tag, cell), so the
    cells left out of ``index`` change nothing in the others.  All blocks of
    up to _CHUNK_CELLS rows are computed in one pass.
    """
    rows = len(index)
    out = np.empty((rows, draws))
    key = np.array([[seed & _MASK64], [tag & _MASK64]], dtype=_U64)
    keys = key + _PHILOX_ROUNDS * _PHILOX_BUMP  # round r runs under key + r * bump
    blocks = -(-draws // 4)
    for start in range(0, rows, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, rows)
        a = np.zeros((2, (stop - start) * blocks), dtype=_U64)
        b = np.zeros_like(a)
        a[0] = np.tile(np.arange(1, blocks + 1, dtype=_U64), stop - start)
        b[0] = np.repeat(index[start:stop].astype(_U64), blocks)
        a, b = _philox4x64_10(a, b, keys)
        # Stacked as (lane, a|b) the words read x0, x1, x2, x3.
        words = np.stack((a, b), axis=1).reshape(4, stop - start, blocks)
        words = words.transpose(1, 2, 0).reshape(stop - start, 4 * blocks)[:, :draws]
        np.multiply(words >> _U64(11), 2.0**-53, out=out[start:stop])
    return out


def _rollout_hits(
    slot_probs: np.ndarray, k: int, seed: int, tag: int, ratios: tuple[float, ...] | None = None
) -> np.ndarray:
    """Successes in k rollouts at each cell, one column of slot_probs per cell.

    Every rollout rolls against one of its cell's slots (rows): the only
    row, or, when slot ``ratios`` are given, a row picked by the rollout's
    first uniform from their cumulative sum.  A uniform in [0, 1) is always
    below 1 and never below 0 or NaN, so a cell whose slots all have p >= 1
    gets k successes, one with no p > 0 gets 0, and only the others draw.
    Raises InputMemoryError naming ``flywheel.k`` when numpy cannot size or
    allocate the draws (k per cell, 2k with slot picks) for every cell,
    drawn or not, so whether a k fits does not depend on the dataset.
    """
    if k < 1:
        raise ValueError(f"k: must be >= 1, got {k}")
    cells = slot_probs.shape[1]
    draws = k if ratios is None else 2 * k
    try:
        np.empty((cells, draws))
    except (MemoryError, ValueError) as exc:  # ValueError: past what numpy can size
        detail = f"{cells} cells x {draws} draws do not fit in memory"
        raise InputMemoryError("flywheel.k", detail) from exc
    ones = np.all(slot_probs >= 1.0, axis=0)
    hits = np.where(ones, k, 0)
    index = np.flatnonzero(~ones & np.any(slot_probs > 0.0, axis=0))
    uniforms = _cell_uniforms(seed, tag, index, draws)
    if ratios is None:
        probs = slot_probs[0, index, None]
    else:
        cumulative = np.cumsum(np.asarray(ratios, dtype=float))
        cumulative[-1] = 1.0
        slots = np.searchsorted(cumulative, uniforms[:, 0::2], side="right")
        probs, uniforms = slot_probs[slots, index[:, None]], uniforms[:, 1::2]
    hits[index] = np.count_nonzero(uniforms < probs, axis=1)
    return hits


def _normalize_pair(pair: BlacklistPair) -> BlacklistPair:
    (da, la), (db, lb) = pair
    a = (integer(da, "blacklist"), integer(la, "blacklist"))
    b = (integer(db, "blacklist"), integer(lb, "blacklist"))
    if min(a + b) < 0:
        raise ValueError(f"blacklist: pair {pair} has a negative index")
    if a[0] == b[0]:
        raise ValueError(f"blacklist: pair {pair} references one dimension twice")
    return (a, b) if a[0] < b[0] else (b, a)


def _fits(pair: BlacklistPair, space: FactorSpace) -> bool:
    (da, la), (db, lb) = pair
    return db < space.ndim and la < space.shape[da] and lb < space.shape[db]


@dataclass(frozen=True)
class OracleParams:
    """Frozen knobs of the synthetic policy model.

    kappa0 is the demos-to-saturation scale; beta converts the weakest level
    marginal into transfer energy; p_max caps the success probability;
    blacklist lists level pairs whose joint presence disables transfer for a
    composition.  One instance drives every stage of a sequential expansion:
    ``params_for(space)`` keeps only the pairs a given space has.  Range
    error messages start with the field name.
    """

    kappa0: float
    beta: float
    p_max: float
    blacklist: frozenset[BlacklistPair]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "blacklist", frozenset(map(_normalize_pair, self.blacklist)))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if not 0 <= self.seed <= _MASK64:  # streams are keyed by the seed as one uint64
            raise ValueError(f"seed: must be in 0..2**64 - 1, got {self.seed}")
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0: must be > 0, got {self.kappa0!r}")
        if not 0 < self.p_max <= 1:
            raise ValueError(f"p_max: must be in (0, 1], got {self.p_max!r}")
        if not self.beta >= 0:
            raise ValueError(f"beta: must be >= 0, got {self.beta!r}")

    def check_space(self, space: FactorSpace) -> None:
        for pair in self.blacklist:
            if not _fits(pair, space):
                (da, la), (db, lb) = pair
                raise ValueError(
                    f"blacklist pair (({da},{la}),({db},{lb})) is invalid for shape {space.shape}"
                )

    def params_for(self, space: FactorSpace) -> OracleParams:
        """A copy whose blacklist keeps only the pairs that fit the space."""
        return replace(self, blacklist=frozenset(p for p in self.blacklist if _fits(p, space)))

    def to_doc(self) -> dict:
        """Plain-dict form; ``OracleParams(**doc)`` rebuilds the params."""
        return {
            "kappa0": self.kappa0,
            "beta": self.beta,
            "p_max": self.p_max,
            "blacklist": sorted([list(a), list(b)] for a, b in self.blacklist),
            "seed": self.seed,
        }


# Pinned default regime.  The blacklisted 3-cycle (cells (0,1), (1,2), (2,0)
# on the leading two dimensions) never touches the main diagonal, so the
# initial diagonal dataset leaves those cells at exactly zero success and a
# converged run must have curated direct data into them or crossed the
# threshold on the remaining grid.  beta = 3 * kappa0 means one demo at a
# level saturates transfer through it; p_max = 1 keeps transfer-saturated
# cells noise-free under small rollout counts.
DEFAULT_KAPPA0 = 230.0
DEFAULT_BETA = 690.0
DEFAULT_P_MAX = 1.0
DEFAULT_BLACKLIST: tuple[BlacklistPair, ...] = (
    ((0, 0), (1, 1)),
    ((0, 1), (1, 2)),
    ((0, 2), (1, 0)),
)


def default_family(seed: int) -> OracleParams:
    return OracleParams(
        kappa0=DEFAULT_KAPPA0,
        beta=DEFAULT_BETA,
        p_max=DEFAULT_P_MAX,
        blacklist=DEFAULT_BLACKLIST,
        seed=seed,
    )


def compositional_family(seed: int) -> OracleParams:
    """Default constants with no blacklisted interactions at all."""
    return replace(default_family(seed), blacklist=())


def default_params(space: FactorSpace, seed: int) -> OracleParams:
    return default_family(seed).params_for(space)


def blacklist_mask(params: OracleParams, space: FactorSpace) -> np.ndarray:
    """Flat boolean mask of compositions containing a blacklisted pair."""
    mask = np.zeros(space.shape, dtype=bool)
    for (da, la), (db, lb) in params.blacklist:
        index: list = [slice(None)] * space.ndim
        index[da] = la
        index[db] = lb
        mask[tuple(index)] = True
    return mask.reshape(-1)


def success_tensor(params: OracleParams, dataset: Dataset) -> Tensor:
    """Exact success probabilities over the dataset's space (no sampling)."""
    space = dataset.space
    params.check_space(space)
    direct = dataset.grid.reshape(-1).astype(float)

    weakest = np.full(space.shape, np.inf)
    for m in range(space.ndim):
        marg = marginal_counts(dataset, m).astype(float)
        shape = [1] * space.ndim
        shape[m] = marg.size
        weakest = np.minimum(weakest, marg.reshape(shape))
    transfer = params.beta * weakest.reshape(-1)
    transfer[blacklist_mask(params, space)] = 0.0

    energy = direct + transfer
    probs = np.minimum(params.p_max, 1.0 - np.exp(-energy / params.kappa0))
    return Tensor(space, probs)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Empirical per-composition rates from k Bernoulli rollouts each.

    Only the success counts and k are stored; ``rates`` is computed on first use.
    """

    space: FactorSpace
    successes: np.ndarray
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", integer(self.k, "k"))
        if self.k < 1:  # rates would be 0/0
            raise ValueError(f"k: must be >= 1, got {self.k}")
        succ = integer_array(self.successes, "successes").reshape(-1).copy()
        if succ.size != self.space.cardinality:
            raise ValueError("successes array does not match the benchmark space")
        if succ.min(initial=0) < 0 or succ.max(initial=0) > self.k:
            raise ValueError("per-cell successes must lie in 0..k")
        succ.setflags(write=False)
        object.__setattr__(self, "successes", succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluationReport):
            return NotImplemented
        return (
            self.space == other.space
            and self.k == other.k
            and np.array_equal(self.successes, other.successes)
        )

    @cached_property
    def rates(self) -> Tensor:
        return Tensor(self.space, self.successes / self.k)

    @property
    def total_rollouts(self) -> int:
        return self.space.cardinality * self.k

    @property
    def overall(self) -> float:
        return float(self.rates.values.mean())

    def to_csv(self) -> str:
        # A rate is n / k, so a row is its label plus one suffix per distinct count n.
        counts, which = np.unique(self.successes, return_inverse=True)
        rates = (counts / self.k).tolist()  # the same division as ``rates``
        suffix = [f",{n},{self.k},{r!r}\n" for n, r in zip(counts.tolist(), rates)]
        rows = np.stack([label_column(self.space.shape), np.array(suffix, dtype=object)[which]], 1)
        return "composition_indices,successes,k,rate\n" + "".join(rows.ravel().tolist())

    def to_doc(self) -> dict:
        return {
            "space": self.space.to_doc(),
            "successes": self.successes.tolist(),
            "k": self.k,
            "total_rollouts": self.total_rollouts,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EvaluationReport":
        return cls(FactorSpace.from_doc(doc["space"]), doc["successes"], doc["k"])


def simulate_evaluation(
    params: OracleParams,
    dataset: Dataset,
    bench_space: FactorSpace,
    k: int,
    iteration_tag: int = 0,
) -> EvaluationReport:
    """Evaluate every composition of the benchmark grid with k rollouts.

    The benchmark grid must be index-compatible with the dataset's space
    (same shape); rollout streams are keyed by (seed, tag, cell index) so the
    report does not depend on evaluation order.
    """
    if bench_space.shape != dataset.space.shape:
        raise ValueError(
            f"benchmark shape {bench_space.shape} does not match dataset space {dataset.space.shape}"
        )
    probs = success_tensor(params, dataset).values[None]
    return EvaluationReport(bench_space, _rollout_hits(probs, k, params.seed, iteration_tag), k)


def _slot_success(params: OracleParams, dataset: Dataset, reduced: FactorSpace) -> np.ndarray:
    """World success probabilities at every (slot, new-factor cell), one row per slot."""
    return gather_slots(success_tensor(params, dataset).values, reduced, dataset.space)


def mapped_evaluation(
    params: OracleParams,
    dataset: Dataset,
    reduced: FactorSpace,
    k: int,
    iteration_tag: int = 0,
) -> EvaluationReport:
    """Exact-mode evaluation of a reduced product grid.

    Every (slot, new-factor) composition is expanded to its underlying
    composition in the dataset's space (slot labels carry the inherited
    prefix) and gets its own k rollouts: |slots| * |new grid| * k total.
    """
    probs = _slot_success(params, dataset, reduced).reshape(1, -1)
    return EvaluationReport(reduced, _rollout_hits(probs, k, params.seed, iteration_tag), k)


def ratio_guided_evaluation(
    params: OracleParams,
    dataset: Dataset,
    reduced: FactorSpace,
    k: int,
    iteration_tag: int = 0,
) -> EvaluationReport:
    """Ratio-mode evaluation: sample inherited slots instead of enumerating.

    Only the new-factor sub-grid is enumerated; each of its k rollouts first
    samples a slot from the frozen ratio distribution, then rolls against the
    underlying composition's success probability.  Budget: |new grid| * k.
    """
    probs = _slot_success(params, dataset, reduced)
    hits = _rollout_hits(probs, k, params.seed, iteration_tag, reduced.slot_ratios)
    return EvaluationReport(new_factor_subspace(reduced), hits, k)
