"""Iterative evaluate-curate-expand loop and staged factor expansion.

One flywheel run seeds a dataset on the diagonal of its search grid, then
alternates evaluation and curation until the overall success rate clears the
threshold or an iteration cap trips.  Staged expansion chains runs in one
loop: each new stage searches (inherited slots) x (new factor grid), keeping
demo ratios of the inherited slots frozen, while the oracle always scores the
underlying full-coordinate (world) dataset.  A run works out its stage's slot
map once as arrays (each slot's world row from ``slot_rows`` and, in
ratio_guided mode, the apportioned shares with zero shares dropped), and
folds the seeding and each pass's selections into the world grid as one
``DemoBatches`` through ``add_many``; curation reads the world dataset back
through ``gather_slots``.  ``RunHistory.to_json`` labels each distinct
dataset once per call and writes the document with ``json_text``, the exact
``json.dumps(indent=2)`` layout without the pure-Python encoder, handing it
dataset counts and success counts as columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .curation import CurationStep, CurationTrace, curate_expansion
from .dataset import (
    Dataset,
    DemoBatch,
    DemoBatches,
    InputMemoryError,
    add_many,
    dataset_from_doc,
    support_and_ratios,
    support_columns,
)
from .oracle import (
    EvaluationReport,
    OracleParams,
    derive_tag,
    mapped_evaluation,
    ratio_guided_evaluation,
    simulate_evaluation,
)
from .spaces import (
    Composition,
    FactorSpace,
    IntColumns,
    csv_text,
    diagonal_init,
    gather_slots,
    integer,
    json_text,
    new_factor_subspace,
    product_space,
    reduced_product,
    slot_rows,
)

EVALUATION_MODES = ("exact", "ratio_guided")


@dataclass(frozen=True)
class FlywheelConfig:
    """Loop knobs: threshold, batch size, rollouts, cap, evaluation mode."""

    tau: float = 0.8
    unit_size: int = 50
    k: int = 5
    max_iterations: int = 20
    evaluation_mode: str = "ratio_guided"
    initial_compositions: tuple[Composition, ...] | None = None

    def __post_init__(self) -> None:
        # Messages start with the field name so callers can prefix a section path.
        for name in ("unit_size", "k", "max_iterations"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if not 0 < self.tau < 1:
            raise ValueError(f"tau: must be in (0, 1), got {self.tau!r}")
        if self.unit_size < 1:
            raise ValueError(f"unit_size: must be >= 1, got {self.unit_size}")
        if self.k < 1:
            raise ValueError(f"k: must be >= 1, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations: must be >= 1, got {self.max_iterations}")
        if self.evaluation_mode not in EVALUATION_MODES:
            raise ValueError(
                f"evaluation_mode: must be one of {EVALUATION_MODES}, got {self.evaluation_mode!r}"
            )
        if self.initial_compositions is not None:
            comps = self.initial_compositions
            checked = tuple(tuple(integer(v, "initial_compositions") for v in c) for c in comps)
            object.__setattr__(self, "initial_compositions", checked)

    def to_doc(self) -> dict:
        """Plain-dict form; ``FlywheelConfig(**doc)`` rebuilds the config."""
        return asdict(self)


@dataclass(frozen=True)
class IterationRecord:
    """One evaluate(-curate) cycle; the converged pass has no curation steps.

    ``dataset_before`` is the previous record's ``dataset_after`` (the run's
    initial dataset for the first record).  Rates, totals, support sizes and
    the emitted batches are read from the report, the two datasets and the
    trace.
    """

    iteration: int
    report: EvaluationReport
    trace: CurationTrace
    dataset_before: Dataset
    dataset_after: Dataset

    @property
    def batches(self) -> tuple[DemoBatch, ...]:
        """Each curation step emits one batch at its selection, in curation-grid coordinates.

        On a reduced stage those are not the datasets' world coordinates (and
        in ratio_guided mode one batch stands for several world batches), so
        ``add_many(dataset_before, batches) == dataset_after`` holds only for plain runs.
        """
        return tuple(DemoBatch(s.selected, s.batch_size) for s in self.trace.steps)

    @property
    def overall_rate(self) -> float:
        return self.report.overall

    @property
    def rollouts_spent(self) -> int:
        return self.report.total_rollouts

    @property
    def total_before(self) -> int:
        return self.dataset_before.total

    @property
    def support_before(self) -> int:
        return int(np.count_nonzero(self.dataset_before.grid))

    @property
    def total_after(self) -> int:
        return self.dataset_after.total

    @property
    def support_after(self) -> int:
        return int(np.count_nonzero(self.dataset_after.grid))


@dataclass(frozen=True)
class RunHistory:
    """Complete record of one flywheel run over one search space.

    The world space, the final dataset and convergence are read from the
    initial dataset and the records.
    """

    stage: str
    space: FactorSpace
    config: FlywheelConfig
    initial_dataset: Dataset
    records: tuple[IterationRecord, ...]

    @property
    def world_space(self) -> FactorSpace:
        return self.initial_dataset.space

    @property
    def dataset(self) -> Dataset:
        return self.records[-1].dataset_after if self.records else self.initial_dataset

    @property
    def converged(self) -> bool:
        return bool(self.records) and self.records[-1].overall_rate >= self.config.tau

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def total_rollouts(self) -> int:
        return sum(r.rollouts_spent for r in self.records)

    def iterations_csv(self) -> str:
        header = ["iteration", "total_demos", "support_size", "overall_rate", "rollouts_spent"]
        rows = (
            (r.iteration, r.total_after, r.support_after, repr(r.overall_rate), r.rollouts_spent)
            for r in self.records
        )
        return csv_text(header, rows)

    def summary(self) -> dict:
        return {
            "stage": self.stage,
            "converged": self.converged,
            "iterations": self.iterations,
            "total_demos": self.dataset.total,
            "support_size": int(np.count_nonzero(self.dataset.grid)),
            "overall_rate": self.records[-1].overall_rate if self.records else None,
            "total_rollouts": self.total_rollouts,
        }

    def to_json(self) -> str:
        """The text of ``history.json``: ``json.dumps(doc, indent=2)`` of the nested plain dicts.

        Each distinct dataset is labelled once per call; its counts, the
        reports' success counts and the trace rows go to ``json_text`` as
        columns and plain lists, not as dicts of composition keys.
        """
        docs: dict[int, dict] = {}
        for dataset in [self.initial_dataset, *(rec.dataset_after for rec in self.records)]:
            if id(dataset) not in docs:  # the dict dataset_to_doc gives, its counts as columns
                counts = IntColumns(*support_columns(dataset))
                docs[id(dataset)] = {"space": dataset.space.to_doc(), "counts": counts}
        doc = {
            "stage": self.stage,
            "converged": self.converged,
            "config": self.config.to_doc(),
            "space": self.space.to_doc(),
            "world_space": self.world_space.to_doc(),
            "final_dataset": docs[id(self.dataset)],
            "initial_dataset": docs[id(self.initial_dataset)],
            "iterations": [
                {
                    "iteration": rec.iteration,
                    "total_before": rec.total_before,
                    "support_before": rec.support_before,
                    "overall_rate": rec.overall_rate,
                    "report": dict(rec.report.to_doc(), successes=rec.report.successes),
                    "batches": [[list(s.selected), s.batch_size] for s in rec.trace.steps],
                    "trace": [
                        [s.step, list(s.selected), s.s_value, s.newly_marked, s.batch_size]
                        for s in rec.trace.steps
                    ],
                    "total_after": rec.total_after,
                    "support_after": rec.support_after,
                    "rollouts_spent": rec.rollouts_spent,
                    "dataset_after": docs[id(rec.dataset_after)],
                }
                for rec in self.records
            ],
        }
        return json_text(doc)

    @classmethod
    def from_json(cls, text: str) -> "RunHistory":
        """Rebuild a history; fields derivable from the others are not read back."""
        doc = json.loads(text)
        initial = before = dataset_from_doc(doc["initial_dataset"])
        records = []
        for rd in doc["iterations"]:
            after = dataset_from_doc(rd["dataset_after"])
            steps = tuple(
                CurationStep(int(s[0]), tuple(s[1]), float(s[2]), int(s[3]), int(s[4]))
                for s in rd["trace"]
            )
            records.append(
                IterationRecord(
                    iteration=int(rd["iteration"]),
                    report=EvaluationReport.from_doc(rd["report"]),
                    trace=CurationTrace(steps),
                    dataset_before=before,
                    dataset_after=after,
                )
            )
            before = after
        return cls(
            stage=str(doc["stage"]),
            space=FactorSpace.from_doc(doc["space"]),
            config=FlywheelConfig(**doc["config"]),
            initial_dataset=initial,
            records=tuple(records),
        )


@dataclass(frozen=True)
class BudgetReport:
    """Rollout arithmetic for one iteration of a staged search."""

    full_possibilities: int
    reduced_possibilities: int
    sampled_rollouts: int
    full_rollouts: int
    speedup: float


def rollout_budget(grid_cells: int, base_cardinality: int, slot_count: int, k: int) -> BudgetReport:
    """Evaluation cost of one iteration: full product vs slots vs sampling."""
    names, checked = ("grid_cells", "base_cardinality", "slot_count", "k"), []
    for name, value in zip(names, (grid_cells, base_cardinality, slot_count, k)):
        checked.append(integer(value, name))
        if checked[-1] < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")
    grid_cells, base_cardinality, slot_count, k = checked
    full = grid_cells * base_cardinality
    sampled = grid_cells * k
    full_rollouts = full * k
    try:
        speedup = full_rollouts / sampled  # equals base_cardinality, rounded to a float
    except OverflowError as exc:
        raise ValueError("base_cardinality is too large for a float speedup") from exc
    return BudgetReport(
        full_possibilities=full,
        reduced_possibilities=grid_cells * slot_count,
        sampled_rollouts=sampled,
        full_rollouts=full_rollouts,
        speedup=speedup,
    )


def apportion_counts(total: int, ratios: Sequence[float]) -> list[int]:
    """Split an integer total by largest remainder; ties favor low index.

    Quotas are floats, so past about 2**53 their floors can be off by more
    than one unit each; a total they cannot split exactly raises
    OverflowError rather than returning parts that do not sum to it.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    quotas = [total * float(r) for r in ratios]
    base = [math.floor(q) for q in quotas]
    short = total - sum(base)
    if not 0 <= short <= len(ratios):
        raise OverflowError(f"{total} is too large to split exactly by {len(ratios)} float ratios")
    order = sorted(range(len(ratios)), key=lambda j: (-(quotas[j] - base[j]), j))
    for j in order[:short]:
        base[j] += 1
    return base


def run_flywheel(
    space: FactorSpace,
    params: OracleParams,
    cfg: FlywheelConfig,
    world: FactorSpace | None = None,
    stage: str = "O",
    eval_tag_base: int = 0,
) -> RunHistory:
    """Run the evaluate-curate loop on one search space.

    A plain space is searched directly.  A reduced space (slot ratios set)
    needs `world`, the full-coordinate space its demos live in, and is read
    from it through ``gather_slots``.  Exact mode curates the whole
    (slot x new grid); ratio_guided mode curates the new-factor grid alone
    and spreads each batch over the inherited slots by shares apportioned
    once per run from their frozen ratios.
    """
    mode = "plain" if space.slot_ratios is None else cfg.evaluation_mode
    # The slot map: a batch at curation cell i puts shares[j] demos on world
    # cell w(i) + offsets[j], where w(i) is i except in exact mode.
    offsets, shares = np.zeros(1, np.intp), [cfg.unit_size]
    if mode == "plain":
        if world is not None and world is not space and world.shape != space.shape:
            raise ValueError("world space does not match a plain search space")
        world = curation_space = space
        evaluate = simulate_evaluation
    elif world is None:
        raise ValueError("a reduced search space needs its full-coordinate world space")
    else:
        new_grid = new_factor_subspace(space)
        # world cell of slot j and new-grid cell c: starts[j] + c
        starts = slot_rows(space, world) * new_grid.cardinality
        if mode == "exact":
            curation_space = space
            evaluate = mapped_evaluation
        else:
            curation_space = new_grid
            apportioned = apportion_counts(cfg.unit_size, space.slot_ratios)
            kept = [j for j, share in enumerate(apportioned) if share > 0]
            offsets, shares = starts[kept], [apportioned[j] for j in kept]
            evaluate = ratio_guided_evaluation

    def to_world(comps: Sequence[Composition]) -> DemoBatches:
        """The world batches of one unit_size batch at each curation cell."""
        cells = curation_space.cells(comps)
        if mode == "exact":  # curation cell (slot j, new-grid cell c) is j * |new grid| + c
            slots, cells = np.divmod(cells, new_grid.cardinality)
            cells = starts[slots] + cells
        return DemoBatches((cells[:, None] + offsets).reshape(-1), shares * len(cells))

    init_comps = (
        list(cfg.initial_compositions)
        if cfg.initial_compositions is not None
        else diagonal_init(curation_space)
    )
    initial = add_many(Dataset.empty(world), to_world(init_comps))
    current = initial

    records: list[IterationRecord] = []
    for iteration in range(1, cfg.max_iterations + 1):
        report = evaluate(params, current, space, cfg.k, derive_tag(eval_tag_base, iteration))
        before = current
        converged = report.overall >= cfg.tau
        if converged:
            trace = CurationTrace(steps=())
        else:
            view = current
            if mode != "plain":
                rows = gather_slots(current.grid, space, world)
                if rows.sum() != current.total:
                    raise ValueError("dataset has demos outside the inherited slots")
                view = Dataset.from_grid(
                    curation_space, rows if mode == "exact" else rows.sum(axis=0)
                )
            _, _, trace = curate_expansion(report.rates, view, cfg.tau, cfg.unit_size)
            current = add_many(current, to_world([s.selected for s in trace.steps]))
        records.append(IterationRecord(iteration, report, trace, before, current))
        if converged:
            break
    return RunHistory(stage, space, cfg, initial, tuple(records))


def stage_labels(count: int) -> list[str]:
    """Cumulative stage names: first three follow the object/action/environment convention."""
    known = ["O", "OA", "OAE"]
    return [known[i] if i < len(known) else f"stage{i + 1}" for i in range(count)]


def sequential_expansion(
    stage_spaces: Sequence[FactorSpace],
    oracle: OracleParams,
    cfg: FlywheelConfig,
) -> list[RunHistory]:
    """Chain flywheel runs over progressively larger factor products.

    Stage 1 searches its plain grid.  Stage j+1 searches (support slots of
    stage j's dataset) x (next grid), with slot ratios frozen from that
    dataset.  Each stage curates a fresh dataset; earlier stages enter only
    through the inherited slots.  Stops after the first failing stage.
    """
    if not stage_spaces:
        raise ValueError("at least one stage space is required")
    if stage_spaces[0].slot_ratios is not None:
        raise ValueError("stage 1 must be a plain factor space")

    histories: list[RunHistory] = []
    space = world = stage_spaces[0]
    labels = stage_labels(len(stage_spaces))
    for index, (label, grid) in enumerate(zip(labels, stage_spaces), start=1):
        if histories:
            if not histories[-1].converged:
                break
            _, ratios = support_and_ratios(histories[-1].dataset)
            space = reduced_product(list(ratios.items()), grid)
            world = product_space(world, grid)
        try:
            history = run_flywheel(
                space,
                oracle.params_for(world),
                cfg,
                world=world,
                stage=label,
                eval_tag_base=derive_tag(0, index),
            )
        except InputMemoryError as exc:
            if exc.field == "space":  # this stage's grid grew the world past memory
                raise InputMemoryError(f"stages[{index - 1}]", exc.detail) from exc
            raise
        histories.append(history)
    return histories
