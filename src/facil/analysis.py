"""Scaling fits, baseline samplers, strategy comparison, and design checks.

Covers the quantitative side: power-law fitting of failure rate against demo
count, gaussian/uniform baseline dataset samplers, budget-matched strategy
comparison against the curation flywheel, the reduced-vs-full benchmark gap,
and the factor-design checker that flags compositions the factor structure
predicts but evaluation does not deliver.  That check works on bool grids of
the space's shape: the predicted grid is the product of the levels training
uses on each axis, the empirical grid is curation's marking rule, and no
composition is held in a set.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .curation import _above_tau
from .dataset import Dataset
from .flywheel import FlywheelConfig, RunHistory, run_flywheel
from .oracle import (
    OracleParams,
    derive_tag,
    mapped_evaluation,
    simulate_evaluation,
)
from .spaces import Composition, FactorSpace, composition_labels, csv_text, integer

STRATEGY_NAMES = ("facil_ratio", "factors_mixture", "gaussian")


def stream_tag(name: str) -> int:
    """Stable 64-bit tag for a strategy or benchmark label."""
    return derive_tag(*bytes(name, "utf-8"))


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit failure ~ N**(-alpha) from log-log least squares."""

    alpha: float
    log_c: float
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"a fit needs >= 2 points, got {self.n_points}")


def fit_power_law(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit failure rate 1 - success against demo count N on log-log axes.

    Ordinary least squares with intercept; alpha is the negated slope.
    Every point must be finite.  Points with success >= 1 have zero failure
    and are dropped with a warning; fewer than two usable points, or demo
    counts too close together to fix a slope (all equal, say), is an error.
    """
    usable: list[tuple[float, float]] = []
    dropped = 0
    for n_demos, success in points:
        if not (math.isfinite(n_demos) and math.isfinite(success)):
            raise ValueError(f"points must be finite, got {(n_demos, success)!r}")
        if n_demos <= 0:
            raise ValueError(f"demo counts must be positive, got {n_demos!r}")
        if success < 0:
            raise ValueError(f"success rates must be >= 0, got {success!r}")
        if success >= 1.0:
            dropped += 1
            continue
        usable.append((float(n_demos), float(success)))
    if dropped:
        warnings.warn(f"dropped {dropped} point(s) with success >= 1 (zero failure)")
    if len(usable) < 2:
        raise ValueError(f"need >= 2 points with success < 1, got {len(usable)}")

    log_n = np.log([n for n, _ in usable])
    log_fail = np.log([1.0 - s for _, s in usable])
    (slope, intercept), _, rank, _, _ = np.polyfit(log_n, log_fail, 1, full=True)
    if rank < 2:  # where a plain polyfit warns that it is poorly conditioned
        raise ValueError("the demo counts do not determine a slope (they are too close together)")
    predicted = slope * log_n + intercept
    ss_res = float(np.sum((log_fail - predicted) ** 2))
    ss_tot = float(np.sum((log_fail - log_fail.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        alpha=float(-slope),
        log_c=float(intercept),
        r_squared=float(min(max(r_squared, 0.0), 1.0)),
        n_points=len(usable),
    )


def _gaussian_mode(space: FactorSpace, mode: Composition | None, sigma: float) -> Composition:
    """The validated mode (grid center by default) of a gaussian sampler with this sigma."""
    if not sigma > 0 or 2.0 * sigma * sigma == 0:  # a zero denominator makes NaN logits
        raise ValueError(f"sigma must be > 0 with 2 * sigma * sigma > 0, got {sigma!r}")
    if mode is None:
        return tuple((size - 1) // 2 for size in space.shape)
    space.cells([mode])  # raises ValueError naming a mode that is not a cell
    return mode


def _gaussian_probabilities(
    space: FactorSpace, mode: Composition | None, sigma: float
) -> np.ndarray:
    mode = _gaussian_mode(space, mode, sigma)
    # Squared offsets per axis, broadcast and added in axis order, as a sum over axis 0 adds.
    squares = ((c - float(m)) ** 2 for c, m in zip(np.indices(space.shape, sparse=True), mode))
    with np.errstate(over="ignore"):  # far cells of a tiny sigma go to -inf, so exp gives 0
        logits = -sum(squares).reshape(-1) / (2.0 * sigma * sigma)
    logits -= logits.max()
    probs = np.exp(logits)
    return probs / probs.sum()


def baseline_sampler(
    strategy: str,
    space: FactorSpace,
    n_demos: int,
    seed: int,
    mode: Composition | None = None,
    sigma: float = 1.0,
) -> Dataset:
    """Draw a dataset without regard to curation.

    "factors_mixture" samples compositions uniformly; "gaussian" samples from
    a discretized isotropic gaussian over integer grid coordinates centered
    at `mode` (grid center by default) with index-unit standard deviation
    `sigma`.  Deterministic per (strategy, seed).
    """
    n_demos = integer(n_demos, "n_demos")
    if n_demos < 0:
        raise ValueError(f"n_demos must be >= 0, got {n_demos}")
    if strategy == "factors_mixture":
        probs = np.full(space.cardinality, 1.0 / space.cardinality)
    elif strategy == "gaussian":
        probs = _gaussian_probabilities(space, mode, sigma)
    else:
        raise ValueError(f"unknown sampling strategy {strategy!r}")

    key = np.array([seed & (2**64 - 1), stream_tag(strategy)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return Dataset.from_grid(space, rng.multinomial(n_demos, probs))


@dataclass(frozen=True)
class StrategyOutcome:
    """Overall benchmark success of one strategy at one demo budget."""

    strategy: str
    benchmark: str
    budget: int
    success: float

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(f"strategy must be one of {STRATEGY_NAMES}, got {self.strategy!r}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if not 0.0 <= self.success <= 1.0:
            raise ValueError(f"success must be in [0, 1], got {self.success!r}")


def truncate_history(history: RunHistory, budget: int) -> Dataset:
    """Dataset after the last completed iteration affordable at the budget.

    The initial seeding counts toward the budget; if even it does not fit,
    the result is empty.
    """
    best = Dataset(history.world_space)
    if history.initial_dataset.total <= budget:
        best = history.initial_dataset
    for rec in history.records:
        if rec.dataset_after.total <= budget:
            best = rec.dataset_after
    return best


def compare_strategies(
    space: FactorSpace,
    params: OracleParams,
    budgets: Sequence[int],
    cfg: FlywheelConfig,
    gaussian_mode: Composition | None = None,
    gaussian_sigma: float = 1.0,
    strategies: Sequence[str] = STRATEGY_NAMES,
) -> list[StrategyOutcome]:
    """Budget-matched comparison of curation against baseline samplers.

    Only the named ``strategies`` run.  The flywheel runs once if
    "facil_ratio" is among them; each budget evaluates its truncation.
    Baselines draw budget-many demos directly.  Every (strategy, budget)
    cell gets its own rollout streams, derived from ``params.seed``, so
    outcomes are order-independent and reproducible, whichever strategies
    run.  Each outcome is on benchmark "O".  Strategies, budgets and the
    gaussian mode and sigma are checked before the run.
    """
    selected = sorted(set(strategies))  # a fixed order, though no outcome depends on it
    unknown = [s for s in selected if s not in STRATEGY_NAMES]
    if unknown:
        raise ValueError(f"unknown strategies {unknown}; choose from {STRATEGY_NAMES}")
    budgets = [integer(b, "budgets") for b in budgets]
    if budgets != sorted(budgets):
        raise ValueError("budgets must be sorted ascending")
    if budgets and budgets[0] < 0:
        raise ValueError("budgets must be >= 0")
    _gaussian_mode(space, gaussian_mode, gaussian_sigma)  # fail before the flywheel runs
    seed = params.seed

    if "facil_ratio" in selected:
        tag = derive_tag(seed, stream_tag("facil_ratio"))
        history = run_flywheel(space, params, cfg, eval_tag_base=tag)

    outcomes: list[StrategyOutcome] = []
    for budget in budgets:
        # A budget's datasets are all drawn before any is evaluated: interleaving
        # draws and evaluations measured slower.  factors_mixture ignores mode and sigma.
        draw = derive_tag(seed, budget)
        datasets = {
            s: truncate_history(history, budget)
            if s == "facil_ratio"
            else baseline_sampler(s, space, budget, draw, gaussian_mode, gaussian_sigma)
            for s in selected
        }
        for strategy, dataset in datasets.items():
            report = simulate_evaluation(
                params,
                dataset,
                space,
                cfg.k,
                iteration_tag=derive_tag(seed, stream_tag(strategy), budget),
            )
            outcomes.append(
                StrategyOutcome(
                    strategy=strategy,
                    benchmark="O",
                    budget=budget,
                    success=report.overall,
                )
            )
    return sorted(outcomes, key=lambda o: (o.strategy, o.budget))


def comparison_csv(outcomes: Sequence[StrategyOutcome]) -> str:
    return csv_text(
        ["strategy", "benchmark", "budget", "success"],
        ((o.strategy, o.benchmark, o.budget, repr(o.success)) for o in outcomes),
    )


def generalization_gap(
    params: OracleParams,
    dataset: Dataset,
    reduced: FactorSpace,
    full_space: FactorSpace,
    k: int,
) -> tuple[float, float, float]:
    """Rate on the slot-reduced benchmark minus rate on the full grid.

    Both evaluations draw from streams keyed by ``params.seed``.
    """
    if full_space.shape != dataset.space.shape:
        raise ValueError(
            f"full benchmark shape {full_space.shape} does not match dataset {dataset.space.shape}"
        )
    rate_reduced = mapped_evaluation(
        params, dataset, reduced, k, iteration_tag=derive_tag(params.seed, stream_tag("reduced"))
    ).overall
    rate_full = simulate_evaluation(
        params, dataset, full_space, k, iteration_tag=derive_tag(params.seed, stream_tag("full"))
    ).overall
    return rate_reduced, rate_full, rate_reduced - rate_full


@dataclass(frozen=True, eq=False)
class CompositionalityReport:
    """Product-closure predictions checked against measured success.

    ``predicted`` and ``empirical`` are read-only bool grids of the rate
    grid's shape; ``violations`` are the predicted cells that are not
    empirical, in row-major order.
    """

    predicted: np.ndarray
    empirical: np.ndarray
    violations: tuple[Composition, ...]
    pair_counts: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        for name in ("predicted", "empirical"):
            grid = np.array(getattr(self, name), dtype=bool)
            grid.setflags(write=False)
            object.__setattr__(self, name, grid)

    @property
    def predicted_size(self) -> int:
        return int(np.count_nonzero(self.predicted))

    @property
    def empirical_size(self) -> int:
        return int(np.count_nonzero(self.empirical))


def compositionality_check(
    train: np.ndarray,
    rates: np.ndarray,
    tau: float,
) -> CompositionalityReport:
    """Which compositions does the factor design promise but not deliver?

    Predicted compositions are the product closure of the training support
    (its flat cells, as ``FactorSpace.cells`` checks and returns them), the
    product of the levels it uses on each axis of the rate grid; empirical
    ones are those whose measured (or exact) success rate is strictly above
    tau, the curation loop's marking rule.  Each violation increments every
    dimension pair whose level pair never occurs together in the training
    set, attributing the failure to unverified pairwise interactions.
    """
    if not len(train):
        raise ValueError("training support must be non-empty")
    shape = rates.shape
    columns = np.unravel_index(train, shape)  # one index array per axis

    predicted = np.zeros(shape, dtype=bool)
    predicted[np.ix_(*map(np.unique, columns))] = True
    empirical = _above_tau(rates, tau)
    cells = np.argwhere(predicted & ~empirical)  # row-major, so in lexicographic order

    pair_counts = {}
    for m, n in combinations(range(len(shape)), 2):
        seen = np.zeros((shape[m], shape[n]), dtype=bool)
        seen[columns[m], columns[n]] = True
        pair_counts[(m, n)] = int(np.count_nonzero(~seen[cells[:, m], cells[:, n]]))
    return CompositionalityReport(
        predicted=predicted,
        empirical=empirical,
        violations=tuple(map(tuple, cells.tolist())),
        pair_counts=pair_counts,
    )


def violations_csv(report: CompositionalityReport, rates: np.ndarray) -> str:
    points = np.array(report.violations, dtype=np.int64).reshape(-1, rates.ndim)
    rows = zip(composition_labels(points), map(repr, rates[tuple(points.T)].tolist()))
    return csv_text(["composition_indices", "predicted_p_or_rate"], rows)


def scaling_csv(fits: Mapping[str, ScalingFit]) -> str:
    return csv_text(
        ["benchmark", "alpha", "r2", "points"],
        ((name, repr(f.alpha), repr(f.r_squared), f.n_points) for name, f in fits.items()),
    )


def bundled_rates(name: str) -> str:
    """Text of a rate-table CSV shipped inside the package."""
    return (resources.files("facil") / "data" / name).read_text(encoding="utf-8")


def load_rate_table(text: str) -> dict[str, list[tuple[float, float]]]:
    """Parse a (benchmark, n_demos, success_rate) CSV into fit inputs.

    A missing benchmark column puts every row under the single key "all";
    a value that is not a finite number is an error.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("empty rate table")
    fields = set(reader.fieldnames)
    if not {"n_demos", "success_rate"} <= fields:
        raise ValueError(f"rate table needs n_demos and success_rate columns, got {sorted(fields)}")
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in reader:
        benchmark = row.get("benchmark", "all") or "all"
        point = (float(row["n_demos"]), float(row["success_rate"]))
        if not all(map(math.isfinite, point)):
            raise ValueError(
                f"line {reader.line_num}: n_demos and success_rate must be finite, got {point}"
            )
        grouped.setdefault(benchmark, []).append(point)
    return grouped
