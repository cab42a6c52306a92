"""Synthetic success-rate oracle standing in for a trained policy.

The oracle maps (training dataset, evaluation composition) to a success
probability through a saturating exponential in an "effective demonstration
energy": direct demos at the composition plus a compositional-transfer term
proportional to the weakest per-dimension level marginal.  Level-pair
blacklists cut the transfer term only; direct demos always count.  Rollouts
are Bernoulli draws from counter-based streams keyed by (seed, tag, cell),
so results never depend on execution order or thread count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset, marginal_counts
from .spaces import (
    Composition,
    FactorSpace,
    Tensor,
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


def _cell_generator(seed: int, tag: int, cell_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    counter = np.array([0, cell_index & _MASK64, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _normalize_pair(pair: BlacklistPair) -> BlacklistPair:
    (da, la), (db, lb) = pair
    a = (int(da), int(la))
    b = (int(db), int(lb))
    if a[0] == b[0]:
        raise ValueError(f"blacklist pair {pair} references one dimension twice")
    return (a, b) if a[0] < b[0] else (b, a)


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
        object.__setattr__(
            self, "blacklist", frozenset(_normalize_pair(p) for p in self.blacklist)
        )
        object.__setattr__(self, "seed", int(self.seed))
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be > 0, got {self.kappa0!r}")
        if not 0 < self.p_max <= 1:
            raise ValueError(f"p_max must be in (0, 1], got {self.p_max!r}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        for row in self.level_weights:
            if any(w < 1.0 for w in row):
                raise ValueError("level weights must all be >= 1")

    def check_space(self, space: FactorSpace) -> None:
        shape = tuple(len(row) for row in self.level_weights)
        if shape != space.shape:
            raise ValueError(f"level_weights shaped {shape} do not match space {space.shape}")
        for (da, la), (db, lb) in self.blacklist:
            if db >= space.ndim or la >= space.shape[da] or lb >= space.shape[db]:
                raise ValueError(
                    f"blacklist pair (({da},{la}),({db},{lb})) is invalid for shape {space.shape}"
                )

    def to_json(self) -> str:
        doc = {
            "kappa0": self.kappa0,
            "level_weights": [list(row) for row in self.level_weights],
            "beta": self.beta,
            "p_max": self.p_max,
            "blacklist": sorted([list(a), list(b)] for a, b in self.blacklist),
            "seed": self.seed,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "OracleParams":
        doc = json.loads(text)
        return cls(
            kappa0=float(doc["kappa0"]),
            level_weights=tuple(tuple(row) for row in doc["level_weights"]),
            beta=float(doc["beta"]),
            p_max=float(doc["p_max"]),
            blacklist=frozenset(
                ((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))) for a, b in doc["blacklist"]
            ),
            seed=int(doc["seed"]),
        )


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

    def params_for(self, space: FactorSpace) -> OracleParams:
        weights = tuple((1.0,) * size for size in space.shape)
        kept = [
            pair
            for pair in (_normalize_pair(p) for p in self.blacklist)
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
    """Empirical per-composition rates from k Bernoulli rollouts each."""

    space: FactorSpace
    rates: Tensor
    successes: np.ndarray
    k: int
    total_rollouts: int

    def __post_init__(self) -> None:
        succ = np.asarray(self.successes, dtype=np.int64).reshape(-1).copy()
        if succ.size != self.space.cardinality:
            raise ValueError("successes array does not match the benchmark space")
        if succ.min(initial=0) < 0 or succ.max(initial=0) > self.k:
            raise ValueError("per-cell successes must lie in 0..k")
        succ.setflags(write=False)
        object.__setattr__(self, "successes", succ)

    @property
    def overall(self) -> float:
        return float(self.rates.values.mean())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["composition_indices", "successes", "k", "rate"])
        for idx in range(self.space.cardinality):
            writer.writerow(
                [
                    format_composition(self.space.decode(idx)),
                    int(self.successes[idx]),
                    self.k,
                    repr(float(self.rates.values[idx])),
                ]
            )
        return buf.getvalue()


def _rollout_cells(probs: np.ndarray, seed: int, tag: int, k: int) -> np.ndarray:
    """Per-cell Bernoulli success counts from each cell's own stream."""
    successes = np.zeros(probs.size, dtype=np.int64)
    for idx in range(probs.size):
        gen = _cell_generator(seed, tag, idx)
        successes[idx] = int(np.count_nonzero(gen.random(k) < probs[idx]))
    return successes


def _report(space: FactorSpace, successes: np.ndarray, k: int) -> EvaluationReport:
    return EvaluationReport(
        space=space,
        rates=Tensor(space, successes / k),
        successes=successes,
        k=k,
        total_rollouts=space.cardinality * k,
    )


def simulate_evaluation(
    params: OracleParams,
    dataset: Dataset,
    bench_space: FactorSpace,
    k: int,
    iteration_tag: int = 0,
    threads: int = 1,
) -> EvaluationReport:
    """Evaluate every composition of the benchmark grid with k rollouts.

    The benchmark grid must be index-compatible with the dataset's space
    (same shape); rollout streams are keyed by (seed, tag, cell index) so the
    report does not depend on evaluation order.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if bench_space.shape != dataset.space.shape:
        raise ValueError(
            f"benchmark shape {bench_space.shape} does not match dataset space {dataset.space.shape}"
        )
    probs = success_tensor(params, dataset).values
    return _report(bench_space, _rollout_cells(probs, params.seed, iteration_tag, k), k)


def _slot_success(params: OracleParams, dataset: Dataset, reduced: FactorSpace) -> np.ndarray:
    """World success probabilities at every (slot, new-factor cell), one row per slot."""
    return gather_slots(success_tensor(params, dataset).values, reduced, dataset.space)


def mapped_evaluation(
    params: OracleParams,
    dataset: Dataset,
    reduced: FactorSpace,
    k: int,
    iteration_tag: int = 0,
    threads: int = 1,
) -> EvaluationReport:
    """Exact-mode evaluation of a reduced product grid.

    Every (slot, new-factor) composition is expanded to its underlying
    composition in the dataset's space (slot labels carry the inherited
    prefix) and gets its own k rollouts: |slots| * |new grid| * k total.
    ``threads`` is accepted for compatibility and has no effect.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    probs = _slot_success(params, dataset, reduced).reshape(-1)
    return _report(reduced, _rollout_cells(probs, params.seed, iteration_tag, k), k)


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

    successes = np.zeros(slot_probs.shape[1], dtype=np.int64)
    for idx in range(successes.size):
        gen = _cell_generator(params.seed, iteration_tag, idx)
        draws = gen.random(2 * k)
        slots = np.searchsorted(cumulative, draws[0::2], side="right")
        successes[idx] = int(np.count_nonzero(draws[1::2] < slot_probs[slots, idx]))
    return _report(new_factor_subspace(reduced), successes, k)
