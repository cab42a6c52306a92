"""Iterative evaluate-curate-expand loop and staged factor expansion.

One flywheel run seeds a dataset on the diagonal of its search grid, then
alternates evaluation and curation until the overall success rate clears the
threshold or an iteration cap trips.  Staged expansion chains runs in one
loop: each new stage searches (inherited slots) x (new factor grid), keeping
demo ratios of the inherited slots frozen, while the oracle always scores the
underlying full-coordinate (world) dataset.  A reduced run builds one slot
map per stage, ``slot_cells``: the world cell of each (slot, new-grid cell).
It places batches, and gathers curation's view of the world dataset, through
it; the reduced evaluations read success probabilities at the same cells.
The seeding and each pass's selected cells (``CurationTrace.cells``) fold
into the world grid through ``add_many`` as two flat arrays, world cells
and counts; no selection is decoded, and no batch is an object of its own.
Totals, support sizes and the next stage's slots come from what each dataset
keeps.
``RunHistory.to_json`` renders each distinct space and dataset (from the
labels the dataset keeps) once per call, as a ``Block`` re-indented
wherever else it appears, and writes the document with ``json_text``, the
exact ``json.dumps(indent=2)`` layout without the pure-Python encoder,
handing it dataset counts and success counts as columns and trace and batch
rows, both made from each trace's arrays, as tables; ``from_json`` rebuilds
the arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .curation import CurationTrace, curate_expansion
from .dataset import (
    Dataset,
    InputMemoryError,
    add_many,
    dataset_from_doc,
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
    Block,
    Composition,
    FactorSpace,
    IntColumns,
    csv_text,
    diagonal_init,
    integer,
    json_text,
    new_factor_subspace,
    product_space,
    reduced_product,
    slot_cells,
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
        return {field.name: getattr(self, field.name) for field in fields(self)}


@dataclass(frozen=True)
class IterationRecord:
    """One evaluate(-curate) cycle; the converged pass has no curation steps.

    ``dataset_before`` is the previous record's ``dataset_after`` (the run's
    initial dataset for the first record).  Rates, totals and support sizes
    are read from the report and the two datasets; the batches of a pass are
    the trace's cells, ``batch_size`` demos each, in curation-grid coordinates.
    """

    iteration: int
    report: EvaluationReport
    trace: CurationTrace
    dataset_before: Dataset
    dataset_after: Dataset

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
        return self.dataset_before.support_size

    @property
    def total_after(self) -> int:
        return self.dataset_after.total

    @property
    def support_after(self) -> int:
        return self.dataset_after.support_size


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
            "support_size": self.dataset.support_size,
            "overall_rate": self.records[-1].overall_rate if self.records else None,
            "total_rollouts": self.total_rollouts,
        }

    def to_json(self) -> str:
        """The text of ``history.json``: ``json.dumps(doc, indent=2)`` of the nested plain dicts.

        Each distinct space and dataset is rendered once per call, as a
        ``Block`` (a dataset's of its ``support_columns``), however many
        places it fills.  A report is ``EvaluationReport._doc``, the keys of
        ``to_doc`` with its success counts left an array; ``json_text`` writes
        those arrays, and batch and trace rows column by column.
        """
        blocks: dict[int, Block] = {}

        def block(space: FactorSpace) -> Block:
            if id(space) not in blocks:
                blocks[id(space)] = Block(space.to_doc())
            return blocks[id(space)]

        for dataset in [self.initial_dataset, *(rec.dataset_after for rec in self.records)]:
            if id(dataset) not in blocks:  # the dict dataset_to_doc gives, its counts as columns
                counts = IntColumns(*dataset.support_columns)
                blocks[id(dataset)] = Block({"space": block(dataset.space), "counts": counts})

        def iteration(rec: IterationRecord) -> dict:
            trace = rec.trace.rows()
            return {
                "iteration": rec.iteration,
                "total_before": rec.total_before,
                "support_before": rec.support_before,
                "overall_rate": rec.overall_rate,
                "report": rec.report._doc(block(rec.report.space), rec.report.successes),
                "batches": [(selected, size) for _, selected, _, _, size in trace],
                "trace": trace,
                "total_after": rec.total_after,
                "support_after": rec.support_after,
                "rollouts_spent": rec.rollouts_spent,
                "dataset_after": blocks[id(rec.dataset_after)],
            }

        doc = {
            "stage": self.stage,
            "converged": self.converged,
            "config": self.config.to_doc(),
            "space": block(self.space),
            "world_space": block(self.world_space),
            "final_dataset": blocks[id(self.dataset)],
            "initial_dataset": blocks[id(self.initial_dataset)],
            "iterations": [iteration(rec) for rec in self.records],
        }
        return json_text(doc)

    @classmethod
    def from_json(cls, text: str) -> "RunHistory":
        """Rebuild a history; fields derivable from the others are not read back."""
        doc = json.loads(text)
        config = FlywheelConfig(**doc["config"])
        initial = before = dataset_from_doc(doc["initial_dataset"])
        records = []
        for rd in doc["iterations"]:
            after = dataset_from_doc(rd["dataset_after"])
            report = EvaluationReport.from_doc(rd["report"])
            rows = rd["trace"]  # curation runs on the grid its report rates
            cells = report.space.cells([row[1] for row in rows])
            scores, newly = [row[2] for row in rows], [row[3] for row in rows]
            trace = CurationTrace(report.space.shape, cells, scores, newly, config.unit_size)
            records.append(IterationRecord(int(rd["iteration"]), report, trace, before, after))
            before = after
        return cls(
            stage=str(doc["stage"]),
            space=FactorSpace.from_doc(doc["space"]),
            config=config,
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
    needs `world`, the full-coordinate space its demos live in.  Exact mode
    curates the whole (slot x new grid); ratio_guided mode curates the
    new-factor grid alone and spreads each batch over the inherited slots by
    shares apportioned once per run from their frozen ratios.  Both place
    batches, and read curation's view back, through one slot map per run.
    """
    mode = "plain" if space.slot_ratios is None else cfg.evaluation_mode
    shares = [cfg.unit_size]  # the demos of one curation batch, per world batch
    if mode == "plain":
        if world is not None and world is not space and world.shape != space.shape:
            raise ValueError("world space does not match a plain search space")
        world, curation_space, evaluate = space, space, simulate_evaluation
    elif world is None:
        raise ValueError("a reduced search space needs its full-coordinate world space")
    elif mode == "exact":
        curation_space, evaluate = space, mapped_evaluation
    else:
        curation_space, evaluate = new_factor_subspace(space), ratio_guided_evaluation
        apportioned = apportion_counts(cfg.unit_size, space.slot_ratios)
        kept = [j for j, share in enumerate(apportioned) if share > 0]
        shares = [apportioned[j] for j in kept]
    place = None  # a plain run puts each batch on its own cell
    if mode != "plain":  # row i of place holds the world cells of a batch at curation cell i
        slot_map = slot_cells(space, world)
        place = slot_map.reshape(-1, 1) if mode == "exact" else slot_map[kept].T

    def to_world(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The world cells and counts of one unit_size batch at each curation cell."""
        return (cells if place is None else place[cells].reshape(-1)), np.tile(shares, len(cells))

    init_comps = cfg.initial_compositions
    if init_comps is None:
        init_comps = diagonal_init(curation_space)
    current = initial = add_many(Dataset(world), *to_world(curation_space.cells(init_comps)))

    records: list[IterationRecord] = []
    for iteration in range(1, cfg.max_iterations + 1):
        report = evaluate(params, current, space, cfg.k, derive_tag(eval_tag_base, iteration))
        before = current
        converged = report.overall >= cfg.tau
        if converged:
            trace = CurationTrace(curation_space.shape, [], [], [], cfg.unit_size)
        else:
            view = current
            if place is not None:  # a curation cell counts the world demos placed through it
                view = Dataset.from_grid(curation_space, current.grid.take(place).sum(axis=1))
            _, _, trace = curate_expansion(report.rates, view, cfg.tau, cfg.unit_size)
            current = add_many(current, *to_world(trace.cells))
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
            inherited = histories[-1].dataset  # slots ascend; n / total divides Python ints
            ratios = [n / inherited.total for n in inherited.support_cells[1].tolist()]
            slots = zip(map(tuple, inherited.support_points.tolist()), ratios)
            space = reduced_product(list(slots), grid)
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
        except InputMemoryError:  # flywheel.k's pass block names its own field
            raise
        except MemoryError as exc:  # this stage's grid grew the world past memory
            raise InputMemoryError(f"stages[{index - 1}]: does not fit in memory ({exc})") from exc
        histories.append(history)
    return histories
