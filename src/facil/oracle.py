"""Synthetic success-rate oracle standing in for a trained policy.

The oracle maps (training dataset, evaluation composition) to a success
probability through a saturating exponential in an "effective demonstration
energy": direct demos at the composition plus a compositional-transfer term
proportional to the weakest per-dimension level marginal.  Level-pair
blacklists cut the transfer term only; direct demos always count.  One frozen
``OracleParams`` holds the constants (kappa0, beta, p_max, blacklist, seed):
``default_family(seed)`` returns the pinned defaults, and
``params_for(space)`` drops the blacklist pairs a space does not have, so one
instance drives every stage of an expansion.  Rollouts are Bernoulli draws
from Philox4x64-10 streams keyed by (seed, tag) with the cell index in the
counter, so results never depend on evaluation order.  One rollout kernel
serves all three evaluations (the full grid, every slot x new cell in exact
mode, and slots picked by their frozen ratios): it takes a (slots x cells)
block of success probabilities, computed by ``success_at`` at the cells read,
and returns each cell's hits.  Its rounds run in place on two uint64 lanes,
(x0, x2) and (x1, x3), in the call's one allocation: a block of six buffers
sized for a pass and reused, whose failure names ``flywheel.k``.  Counter
(j + 1, cell, 0, 0)'s fixed parts fold the first 3 rounds.  A draw d * 2**-53
is below p exactly when d < ceil(p * 2**53), so hits are counted on the words
as they leave the rounds.  Only cells whose outcome is uncertain draw: a cell
at exactly 0 or 1 is known, and each cell's stream depends only on (seed, tag,
cell).  A report keeps only the per-cell success counts and k; rates and
rollout totals are derived.  Its rates CSV is one join of the header and, per
cell, a label from the grid's label column and one of the at most k + 1
suffixes ",n,k,rate", each formatted once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .dataset import Dataset, InputMemoryError
from .spaces import (
    FactorSpace,
    integer,
    integer_array,
    label_column,
    new_factor_subspace,
    slot_cells,
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
_NEVER = _U64(1 << 53)  # above every draw w >> 11, so below no threshold ceil(p * 2**53)
# Cells per pass: bounds the uint64 buffers while keeping numpy calls few.
_CHUNK_CELLS = 4096


def _mulhilo(x: np.ndarray, lane: int | slice, t: list[np.ndarray]) -> np.ndarray:
    """x *= the lane's multipliers, keeping the low words; returns the high words (t[1])."""
    lo, hi, mid, u = t
    np.bitwise_and(x, _LO32, out=lo)
    np.right_shift(x, _SHIFT32, out=hi)
    np.multiply(lo, _MUL_LO[lane], out=mid)
    mid >>= _SHIFT32
    mid += np.multiply(hi, _MUL_LO[lane], out=u)
    lo *= _MUL_HI[lane]
    lo += np.bitwise_and(mid, _LO32, out=u)
    hi *= _MUL_HI[lane]
    hi += np.right_shift(mid, _SHIFT32, out=mid)
    hi += np.right_shift(lo, _SHIFT32, out=lo)
    x *= _PHILOX_MUL[lane]
    return hi


def _philox_words(seed: int, tag: int, index: np.ndarray, draws: int, block: np.ndarray):
    """Yield (start, stop, a, b) per pass over up to _CHUNK_CELLS cells of ``index``.

    Cell i's stream is numpy's ``Philox(key=[seed, tag], counter=[0, i, 0, 0])``:
    block j is Philox4x64-10 of counter (j + 1, i, 0, 0) under key (seed, tag),
    words x0, x1, x2, x3.  The lanes a = (x0, x2) and b = (x1, x3) are
    (2, blocks, stop - start) views of two of the six buffers of ``block``, a
    uint64 (6, 2, >= blocks * pass cells) array that every pass reuses, holding
    draws w >> 11: draw 4j + w of row r is (a[0], b[0], a[1], b[1])[w][j, r].
    The words past ``draws`` in the last block read _NEVER.
    """
    if not len(index):
        return
    blocks = -(-draws // 4)
    a, b, *t = block
    keys = np.array([[seed & _MASK64], [tag & _MASK64]], dtype=_U64) + _PHILOX_ROUNDS * _PHILOX_BUMP
    # Counter (j + 1, i, 0, 0) folds: round 0 gives (i ^ k0, 0, f(j), g(j)),
    # round 1 multiplies x0 per cell and x2 per block, round 2 x2 alone.
    (m0,), (m1,) = _PHILOX_MUL.tolist()
    k = keys[:3, :, 0].tolist()
    terms = []
    for j in range(1, blocks + 1):
        hi0, lo0 = divmod(m0 * j, 1 << 64)  # round 0, x0
        hi1, lo1 = divmod(m1 * (hi0 ^ k[0][1]), 1 << 64)  # round 1, x2
        hi2, lo2 = divmod(m0 * (hi1 ^ k[1][0]), 1 << 64)  # round 2, x0
        terms.append((lo0 ^ k[1][1], lo1 ^ k[2][0], hi2 ^ k[2][1], lo2))
    x2_r1, x0_r2, x2_r2, x3_r2 = np.array(terms, dtype=_U64).T[:, :, None]
    cells = index.astype(_U64) ^ keys[0, 0]  # x0 after round 0
    for start in range(0, len(index), _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, len(index))
        n, size = stop - start, blocks * (stop - start)
        x, y, tt = a[:, :size], b[:, :size], [u[:, :size] for u in t]
        cell = cells[start:stop]
        hi = _mulhilo(cell, 0, [u[0, :n] for u in t])  # round 1 on x0; cell keeps lo
        np.bitwise_xor(hi, x2_r1, out=x[1].reshape(blocks, n))
        hi = _mulhilo(x[1], 1, [u[1] for u in tt]).reshape(blocks, n)  # round 2; x[1] is x1
        np.bitwise_xor(hi, x0_r2, out=y[0].reshape(blocks, n))  # x0
        np.bitwise_xor(cell, x2_r2, out=y[1].reshape(blocks, n))  # x2
        x[0].reshape(blocks, n)[:] = x3_r2  # x3
        x, y = y, x[::-1]
        for key in keys[3:]:
            hi = _mulhilo(x, slice(None), tt)
            # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
            y ^= key
            y ^= hi[::-1]
            x, y = y, x[::-1]
        x, y = (np.right_shift(v, _U64(11), out=v).reshape(2, blocks, n) for v in (x, y))
        for w in range(draws - 4 * (blocks - 1), 4):
            (x[0], y[0], x[1], y[1])[w][-1] = _NEVER
        yield start, stop, x, y


def _thresholds(p: np.ndarray) -> np.ndarray:
    """ceil(p * 2**53) as uint64: a draw d has d * 2**-53 < p exactly when d < it."""
    return np.ceil(p * 2.0**53).astype(_U64)


def _rollout_hits(
    slot_probs: np.ndarray, k: int, seed: int, tag: int, ratios: tuple[float, ...] | None = None
) -> np.ndarray:
    """Successes in k rollouts at each cell, one column of slot_probs per cell.

    Every rollout rolls against one of its cell's slots (rows): the only
    row, or, when slot ``ratios`` are given, a row picked by the rollout's
    first draw from their cumulative sum.  A draw d rolls a success when
    d < ceil(p * 2**53), so a cell whose slots all have p >= 1 gets k
    successes, one with no p > 0 gets 0, and only the others draw, a pass of
    cells at a time, so no array of every draw exists.  The call allocates
    one block for a pass's draws (k per cell, 2k with slot picks), sized by
    the grid's cells, drawn or not, so whether a k fits does not depend on
    the dataset; InputMemoryError names ``flywheel.k`` when it does not fit.
    """
    if k < 1:
        raise ValueError(f"k: must be >= 1, got {k}")
    cells, draws = slot_probs.shape[1], k if ratios is None else 2 * k
    try:
        block = np.empty((6, 2, -(-draws // 4) * min(cells, _CHUNK_CELLS)), dtype=_U64)
    except (MemoryError, ValueError) as exc:  # ValueError: past what numpy can size
        detail = f"one pass block of {draws} draws per cell does not fit in memory"
        raise InputMemoryError(f"flywheel.k: {detail}") from exc
    ones = np.all(slot_probs >= 1.0, axis=0)
    hits = np.where(ones, k, 0)
    index = np.flatnonzero(~ones & np.any(slot_probs > 0.0, axis=0))
    if ratios is not None:  # the last bound, 1, is above every draw
        bounds = _thresholds(np.cumsum(np.asarray(ratios, dtype=float))[:-1])
    for start, stop, a, b in _philox_words(seed, tag, index, draws, block):
        at = index[start:stop]
        if ratios is None:
            limit = _thresholds(slot_probs[0, at])
            hits[at] = sum(np.count_nonzero(lane < limit, axis=(0, 1)) for lane in (a, b))
        else:  # a pair of words (x0, x1) or (x2, x3) is one rollout: a picks, b rolls
            limits = _thresholds(slot_probs[:, at])
            slots = np.searchsorted(bounds, a, side="right")
            hits[at] = np.count_nonzero(b < limits[slots, np.arange(stop - start)], axis=(0, 1))
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
        if not 0 < self.kappa0 < np.inf:
            raise ValueError(f"kappa0: must be > 0 and finite, got {self.kappa0!r}")
        if not 0 < self.p_max <= 1:
            raise ValueError(f"p_max: must be in (0, 1], got {self.p_max!r}")
        if not 0 <= self.beta < np.inf:  # an infinite beta makes 0 * inf = NaN transfer
            raise ValueError(f"beta: must be >= 0 and finite, got {self.beta!r}")

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
    return OracleParams(DEFAULT_KAPPA0, DEFAULT_BETA, DEFAULT_P_MAX, DEFAULT_BLACKLIST, seed)


def default_params(space: FactorSpace, seed: int) -> OracleParams:
    return default_family(seed).params_for(space)


def success_at(params: OracleParams, dataset: Dataset, cells: np.ndarray | None = None) -> np.ndarray:
    """Exact success probabilities (no sampling) at flat ``cells`` of the dataset's space.

    The result has the shape of ``cells``; with no cells it covers the whole
    grid, in the space's shape.  Each term is read at one coordinate array
    per axis, so the dataset's kept marginals are the only whole-grid reads.
    """
    space = dataset.space
    params.check_space(space)
    if cells is None:
        coords, direct = np.indices(space.shape, sparse=True), dataset.grid
    else:
        coords, direct = np.unravel_index(cells, space.shape), dataset.grid.reshape(-1)[cells]
    *rest, last = (marginal[c] for marginal, c in zip(dataset.marginals, coords))
    blocked = False
    for (da, la), (db, lb) in params.blacklist:
        blocked = blocked | ((coords[da] == la) & (coords[db] == lb))
    # The terms in the formula's order, each written into one float buffer p.
    p = np.minimum(reduce(np.minimum, rest, 2**63 - 1), last, out=np.empty(direct.shape))
    with np.errstate(over="ignore"):  # an energy past float range is inf, and p is p_max there
        np.multiply(float(params.beta), p, out=p)  # float(): beta may be any Python int
        np.copyto(p, 0.0, where=blocked)
        p += direct  # energy
        np.divide(np.negative(p, out=p), params.kappa0, out=p)
        np.maximum(p, -700.0, out=p)  # exact: 1 - exp(x) is 1.0 below -37.4; exp slows past -745
        np.subtract(1.0, np.exp(p, out=p), out=p)
        return np.minimum(params.p_max, p, out=p)


def success_tensor(params: OracleParams, dataset: Dataset) -> np.ndarray:
    """Exact success probabilities over the dataset's space (no sampling), a read-only grid."""
    grid = success_at(params, dataset)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Empirical per-composition rates from k Bernoulli rollouts each.

    Only the success counts and k are stored; ``rates``, a read-only grid of
    the space's shape, is computed on each read, and only the ``overall``
    mean is kept.
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
        same = self.space == other.space and self.k == other.k
        return same and np.array_equal(self.successes, other.successes)

    @property
    def rates(self) -> np.ndarray:
        rates = (self.successes / self.k).reshape(self.space.shape)
        rates.setflags(write=False)
        return rates

    @property
    def total_rollouts(self) -> int:
        return self.space.cardinality * self.k

    @cached_property
    def overall(self) -> float:
        return float((self.successes / self.k).mean())

    def to_csv(self, labels: dict | None = None) -> str:
        """The rates CSV, one row per cell in row-major order.

        ``labels`` maps grid shapes to label columns; the reports of one
        history share one, so each column is built once.
        """
        shape, labels = self.space.shape, {} if labels is None else labels
        if shape not in labels:
            labels[shape] = label_column(shape)
        # A rate is n / k, so a row is its label plus one suffix per count n: each of
        # 0..k when there are no more of them than cells, else each distinct count.
        counts, which = np.arange(self.k + 1), self.successes
        if self.k >= len(which):
            counts, which = np.unique(which, return_inverse=True)
        rates = (counts / self.k).tolist()  # the same division as ``rates``
        suffix = [f",{n},{self.k},{r!r}\n" for n, r in zip(counts.tolist(), rates)]
        rows = ["composition_indices,successes,k,rate\n"] * (2 * len(which) + 1)
        rows[1::2] = labels[shape].tolist()  # the header, then each label and its suffix
        rows[2::2] = np.array(suffix, dtype=object)[which].tolist()
        return "".join(rows)

    def to_doc(self) -> dict:
        return self._doc(self.space.to_doc(), self.successes.tolist())

    def _doc(self, space: object, successes: object) -> dict:
        """The document's keys in order, the space and success counts in the caller's form."""
        return {
            "space": space,
            "successes": successes,
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
    probs = success_tensor(params, dataset).reshape(-1)[None]
    return EvaluationReport(bench_space, _rollout_hits(probs, k, params.seed, iteration_tag), k)


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
    probs = success_at(params, dataset, slot_cells(reduced, dataset.space).reshape(1, -1))
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
    probs = success_at(params, dataset, slot_cells(reduced, dataset.space))
    hits = _rollout_hits(probs, k, params.seed, iteration_tag, reduced.slot_ratios)
    return EvaluationReport(new_factor_subspace(reduced), hits, k)
