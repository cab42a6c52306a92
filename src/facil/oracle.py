"""Synthetic success-rate oracle standing in for a trained policy.

The oracle maps (training dataset, evaluation composition) to a success
probability through a saturating exponential in an "effective demonstration
energy": direct demos at the composition plus a compositional-transfer term
proportional to the weakest per-dimension level marginal.  Level-pair
blacklists cut the transfer term only; direct demos always count.  Rollouts
are Bernoulli draws from Philox4x64-10 streams keyed by (seed, tag) with the
cell index in the counter, computed for every cell at once in numpy integer
arithmetic, so results never depend on evaluation order.  A report keeps
only the per-cell success counts and k; rates and rollout totals are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dataset import Dataset, marginal_counts
from .spaces import (
    Composition,
    FactorSpace,
    Tensor,
    csv_text,
    format_composition,
    gather_slots,
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


class RolloutMemoryError(MemoryError):
    """The draws of one evaluation do not fit in memory; k is too large."""


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


def _cell_uniforms(seed: int, tag: int, cells: int, draws: int) -> np.ndarray:
    """A (cells, draws) array of uniforms; row i is the start of cell i's stream.

    Cell i's stream is numpy's ``Philox(key=[seed, tag], counter=[0, i, 0, 0])``
    read through ``Generator.random``, reproduced bit for bit: block j of
    cell i is Philox4x64-10 of counter (j + 1, i, 0, 0) under key
    (seed, tag), its four words are drawn in order, and a word u becomes
    (u >> 11) * 2**-53.  All blocks of up to _CHUNK_CELLS cells are computed
    in one pass.  Raises RolloutMemoryError when numpy cannot size or allocate
    the result.
    """
    try:
        out = np.empty((cells, draws))
    except (MemoryError, ValueError) as exc:  # ValueError: past what numpy can size
        raise RolloutMemoryError(f"{cells} cells x {draws} draws do not fit in memory") from exc
    key = np.array([[seed & _MASK64], [tag & _MASK64]], dtype=_U64)
    keys = key + _PHILOX_ROUNDS * _PHILOX_BUMP  # round r runs under key + r * bump
    blocks = -(-draws // 4)
    for start in range(0, cells, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, cells)
        a = np.zeros((2, (stop - start) * blocks), dtype=_U64)
        b = np.zeros_like(a)
        a[0] = np.tile(np.arange(1, blocks + 1, dtype=_U64), stop - start)
        b[0] = np.repeat(np.arange(start, stop, dtype=_U64), blocks)
        a, b = _philox4x64_10(a, b, keys)
        # Stacked as (lane, a|b) the words read x0, x1, x2, x3.
        words = np.stack((a, b), axis=1).reshape(4, stop - start, blocks)
        words = words.transpose(1, 2, 0).reshape(stop - start, 4 * blocks)[:, :draws]
        np.multiply(words >> _U64(11), 2.0**-53, out=out[start:stop])
    return out


def _normalize_pair(pair: BlacklistPair) -> BlacklistPair:
    (da, la), (db, lb) = pair
    a = (int(da), int(la))
    b = (int(db), int(lb))
    if min(a + b) < 0:
        raise ValueError(f"blacklist: pair {pair} has a negative index")
    if a[0] == b[0]:
        raise ValueError(f"blacklist: pair {pair} references one dimension twice")
    return (a, b) if a[0] < b[0] else (b, a)


def _check_constants(oracle: OracleParams | OracleFamily, blacklist_type: type) -> None:
    """Checks shared by OracleParams and OracleFamily; messages start with the field name."""
    object.__setattr__(
        oracle, "blacklist", blacklist_type(_normalize_pair(p) for p in oracle.blacklist)
    )
    object.__setattr__(oracle, "seed", int(oracle.seed))
    if not oracle.kappa0 > 0:
        raise ValueError(f"kappa0: must be > 0, got {oracle.kappa0!r}")
    if not 0 < oracle.p_max <= 1:
        raise ValueError(f"p_max: must be in (0, 1], got {oracle.p_max!r}")
    if not oracle.beta >= 0:
        raise ValueError(f"beta: must be >= 0, got {oracle.beta!r}")


@dataclass(frozen=True)
class OracleParams:
    """Frozen knobs of the synthetic policy model for one factor space.

    kappa0 is the demos-to-saturation scale; level_weights multiply it per
    composition (kappa(c) = kappa0 * prod_m w_m(c_m)); beta converts the
    weakest level marginal into transfer energy; p_max caps the success
    probability; blacklist lists level pairs whose joint presence disables
    transfer for a composition.
    """

    kappa0: float
    level_weights: tuple[tuple[float, ...], ...]
    beta: float
    p_max: float
    blacklist: frozenset[BlacklistPair]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "level_weights", tuple(tuple(float(w) for w in row) for row in self.level_weights)
        )
        _check_constants(self, frozenset)
        for row in self.level_weights:
            if any(w < 1.0 for w in row):
                raise ValueError("level_weights: must all be >= 1")

    def check_space(self, space: FactorSpace) -> None:
        shape = tuple(len(row) for row in self.level_weights)
        if shape != space.shape:
            raise ValueError(f"level_weights shaped {shape} do not match space {space.shape}")
        for (da, la), (db, lb) in self.blacklist:
            if db >= space.ndim or la >= space.shape[da] or lb >= space.shape[db]:
                raise ValueError(
                    f"blacklist pair (({da},{la}),({db},{lb})) is invalid for shape {space.shape}"
                )

    def to_doc(self) -> dict:
        """Plain-dict form; ``OracleParams(**doc)`` rebuilds the params."""
        return {
            "kappa0": self.kappa0,
            "level_weights": [list(row) for row in self.level_weights],
            "beta": self.beta,
            "p_max": self.p_max,
            "blacklist": sorted([list(a), list(b)] for a, b in self.blacklist),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class OracleFamily:
    """Space-independent oracle settings, instantiated per factor space.

    Blacklist pairs that reference dimensions or levels a space does not
    have are dropped for that space, so one family drives every stage of a
    sequential expansion.
    """

    kappa0: float
    beta: float
    p_max: float
    blacklist: tuple[BlacklistPair, ...]
    seed: int

    def __post_init__(self) -> None:
        _check_constants(self, tuple)

    def params_for(self, space: FactorSpace) -> OracleParams:
        weights = tuple((1.0,) * size for size in space.shape)
        kept = [
            pair
            for pair in self.blacklist
            if pair[1][0] < space.ndim
            and pair[0][1] < space.shape[pair[0][0]]
            and pair[1][1] < space.shape[pair[1][0]]
        ]
        return OracleParams(
            kappa0=self.kappa0,
            level_weights=weights,
            beta=self.beta,
            p_max=self.p_max,
            blacklist=frozenset(kept),
            seed=self.seed,
        )


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


def default_family(seed: int) -> OracleFamily:
    return OracleFamily(
        kappa0=DEFAULT_KAPPA0,
        beta=DEFAULT_BETA,
        p_max=DEFAULT_P_MAX,
        blacklist=DEFAULT_BLACKLIST,
        seed=seed,
    )


def compositional_family(seed: int) -> OracleFamily:
    """Default constants with no blacklisted interactions at all."""
    return OracleFamily(
        kappa0=DEFAULT_KAPPA0,
        beta=DEFAULT_BETA,
        p_max=DEFAULT_P_MAX,
        blacklist=(),
        seed=seed,
    )


def default_params(space: FactorSpace, seed: int) -> OracleParams:
    return default_family(seed).params_for(space)


def kappa_grid(params: OracleParams, space: FactorSpace) -> np.ndarray:
    """Per-composition difficulty scale, flat row-major."""
    params.check_space(space)
    kap = np.full(space.shape, params.kappa0, dtype=float)
    for m, row in enumerate(params.level_weights):
        shape = [1] * space.ndim
        shape[m] = len(row)
        kap = kap * np.asarray(row, dtype=float).reshape(shape)
    return kap.reshape(-1)


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
    probs = np.minimum(params.p_max, 1.0 - np.exp(-energy / kappa_grid(params, space)))
    return Tensor(space, probs)


def success_prob(params: OracleParams, dataset: Dataset, c: Composition) -> float:
    """Exact success probability at one composition."""
    space = dataset.space
    params.check_space(space)
    c = space.validate(c)
    direct = float(dataset.count_at(c))
    blocked = any(
        c[da] == la and c[db] == lb for (da, la), (db, lb) in params.blacklist
    )
    if blocked:
        transfer = 0.0
    else:
        weakest = min(float(marginal_counts(dataset, m)[c[m]]) for m in range(space.ndim))
        transfer = params.beta * weakest
    kappa = params.kappa0
    for m, row in enumerate(params.level_weights):
        kappa *= row[c[m]]
    return float(min(params.p_max, 1.0 - np.exp(-(direct + transfer) / kappa)))


@dataclass(frozen=True)
class EvaluationReport:
    """Empirical per-composition rates from k Bernoulli rollouts each.

    Only the success counts and k are stored; ``rates`` is computed on first use.
    """

    space: FactorSpace
    successes: np.ndarray
    k: int

    def __post_init__(self) -> None:
        succ = np.asarray(self.successes, dtype=np.int64).reshape(-1).copy()
        if succ.size != self.space.cardinality:
            raise ValueError("successes array does not match the benchmark space")
        if succ.min(initial=0) < 0 or succ.max(initial=0) > self.k:
            raise ValueError("per-cell successes must lie in 0..k")
        succ.setflags(write=False)
        object.__setattr__(self, "successes", succ)

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
        cells = zip(self.space.compositions(), self.successes.tolist(), self.rates.values.tolist())
        return csv_text(
            ["composition_indices", "successes", "k", "rate"],
            ((format_composition(c), n, self.k, repr(rate)) for c, n, rate in cells),
        )

    def to_doc(self) -> dict:
        return {
            "space": self.space.to_doc(),
            "successes": self.successes.tolist(),
            "k": self.k,
            "total_rollouts": self.total_rollouts,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EvaluationReport":
        return cls(FactorSpace.from_doc(doc["space"]), doc["successes"], int(doc["k"]))


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if bench_space.shape != dataset.space.shape:
        raise ValueError(
            f"benchmark shape {bench_space.shape} does not match dataset space {dataset.space.shape}"
        )
    probs = success_tensor(params, dataset).values
    draws = _cell_uniforms(params.seed, iteration_tag, probs.size, k)
    return EvaluationReport(bench_space, np.count_nonzero(draws < probs[:, None], axis=1), k)


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    probs = _slot_success(params, dataset, reduced).reshape(-1)
    draws = _cell_uniforms(params.seed, iteration_tag, probs.size, k)
    return EvaluationReport(reduced, np.count_nonzero(draws < probs[:, None], axis=1), k)


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    slot_probs = _slot_success(params, dataset, reduced)
    cumulative = np.cumsum(np.asarray(reduced.slot_ratios, dtype=float))
    cumulative[-1] = 1.0

    cells = slot_probs.shape[1]
    draws = _cell_uniforms(params.seed, iteration_tag, cells, 2 * k)
    slots = np.searchsorted(cumulative, draws[:, 0::2], side="right")
    hits = draws[:, 1::2] < slot_probs[slots, np.arange(cells)[:, None]]
    return EvaluationReport(new_factor_subspace(reduced), np.count_nonzero(hits, axis=1), k)
