"""Iterative evaluate-curate-expand loop and staged factor expansion.

One flywheel run seeds a dataset on the diagonal of its search grid, then
alternates evaluation and curation until the overall success rate clears the
threshold or an iteration cap trips.  Staged expansion chains runs: each new
stage searches (inherited slots) x (new factor grid), keeping demo ratios of
the inherited slots frozen, while the oracle always scores the underlying
full-coordinate dataset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .curation import CurationStep, CurationTrace, curate_expansion
from .dataset import (
    Dataset,
    DemoBatch,
    add_many,
    dataset_from_doc,
    dataset_to_doc,
    support_and_ratios,
)
from .oracle import (
    EvaluationReport,
    OracleFamily,
    OracleParams,
    derive_tag,
    mapped_evaluation,
    ratio_guided_evaluation,
    simulate_evaluation,
)
from .spaces import (
    Composition,
    FactorSpace,
    csv_text,
    diagonal_init,
    gather_slots,
    new_factor_subspace,
    product_space,
    reduced_product,
    slot_base_compositions,
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
            object.__setattr__(
                self,
                "initial_compositions",
                tuple(tuple(int(v) for v in c) for c in self.initial_compositions),
            )

    def to_doc(self) -> dict:
        return {
            "tau": self.tau,
            "unit_size": self.unit_size,
            "k": self.k,
            "max_iterations": self.max_iterations,
            "evaluation_mode": self.evaluation_mode,
            "initial_compositions": None
            if self.initial_compositions is None
            else [list(c) for c in self.initial_compositions],
        }


@dataclass(frozen=True)
class IterationRecord:
    """One evaluate(-curate) cycle; batches are empty on the converged pass.

    ``dataset_before`` is the previous record's ``dataset_after`` (the run's
    initial dataset for the first record).  Rates, totals and support sizes
    are read from the report and the two datasets.
    """

    iteration: int
    report: EvaluationReport
    batches: tuple[DemoBatch, ...]
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
        return len(self.dataset_before.support)

    @property
    def total_after(self) -> int:
        return self.dataset_after.total

    @property
    def support_after(self) -> int:
        return len(self.dataset_after.support)


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

    def dataset_at(self, iteration: int) -> Dataset:
        """Dataset state after the given 1-based iteration completed."""
        for rec in self.records:
            if rec.iteration == iteration:
                return rec.dataset_after
        raise ValueError(f"no iteration {iteration} in this history")

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
            "support_size": len(self.dataset.support),
            "overall_rate": self.records[-1].overall_rate if self.records else None,
            "total_rollouts": self.total_rollouts,
        }

    def to_json(self) -> str:
        doc = {
            "stage": self.stage,
            "converged": self.converged,
            "config": self.config.to_doc(),
            "space": self.space.to_doc(),
            "world_space": self.world_space.to_doc(),
            "final_dataset": dataset_to_doc(self.dataset),
            "initial_dataset": dataset_to_doc(self.initial_dataset),
            "iterations": [
                {
                    "iteration": rec.iteration,
                    "total_before": rec.total_before,
                    "support_before": rec.support_before,
                    "overall_rate": rec.overall_rate,
                    "report": rec.report.to_doc(),
                    "batches": [[list(b.composition), b.count] for b in rec.batches],
                    "trace": [
                        [s.step, list(s.selected), s.s_value, s.newly_marked, s.batch_size]
                        for s in rec.trace.steps
                    ],
                    "total_after": rec.total_after,
                    "support_after": rec.support_after,
                    "rollouts_spent": rec.rollouts_spent,
                    "dataset_after": dataset_to_doc(rec.dataset_after),
                }
                for rec in self.records
            ],
        }
        return json.dumps(doc, indent=2)

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
                    batches=tuple(DemoBatch(tuple(c), int(n)) for c, n in rd["batches"]),
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
    for name, value in (
        ("grid_cells", grid_cells),
        ("base_cardinality", base_cardinality),
        ("slot_count", slot_count),
        ("k", k),
    ):
        if int(value) < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")
    grid_cells, base_cardinality, slot_count, k = (
        int(grid_cells),
        int(base_cardinality),
        int(slot_count),
        int(k),
    )
    full = grid_cells * base_cardinality
    sampled = grid_cells * k
    full_rollouts = full * k
    return BudgetReport(
        full_possibilities=full,
        reduced_possibilities=grid_cells * slot_count,
        sampled_rollouts=sampled,
        full_rollouts=full_rollouts,
        speedup=full_rollouts / sampled,
    )


def apportion_counts(total: int, ratios: Sequence[float]) -> list[int]:
    """Split an integer total by largest remainder; ties favor low index."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    quotas = [total * float(r) for r in ratios]
    base = [math.floor(q) for q in quotas]
    short = total - sum(base)
    order = sorted(range(len(ratios)), key=lambda j: (-(quotas[j] - base[j]), j))
    for j in order[:short]:
        base[j] += 1
    return base


def _project_reduced(dataset: Dataset, reduced: FactorSpace) -> Dataset:
    """View a full-coordinate dataset in (slot, new-factor) coordinates."""
    rows = gather_slots(dataset.grid, reduced, dataset.space)
    if rows.sum() != dataset.total:
        raise ValueError("dataset has demos outside the inherited slots")
    return Dataset.from_grid(reduced, rows)


def _project_suffix(dataset: Dataset, prefix_width: int, subgrid: FactorSpace) -> Dataset:
    """Collapse a full-coordinate dataset onto the new-factor grid."""
    return Dataset.from_grid(subgrid, dataset.grid.sum(axis=tuple(range(prefix_width))))


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
    needs `world`, the full-coordinate space its demos live in; curation then
    works either on the whole (slot x new grid) in exact mode or on the
    new-factor grid alone in ratio_guided mode, with each emitted batch
    spread over the inherited slots by their frozen ratios.
    """
    reduced = space.slot_ratios is not None
    if not reduced:
        if world is not None and world is not space and world.shape != space.shape:
            raise ValueError("world space does not match a plain search space")
        world = space
        curation_space = space
    else:
        if world is None:
            raise ValueError("a reduced search space needs its full-coordinate world space")
        bases = slot_base_compositions(space)
        width = len(bases[0])
        ratio_mode = cfg.evaluation_mode == "ratio_guided"
        curation_space = new_factor_subspace(space) if ratio_mode else space

    def to_world_batches(batch: DemoBatch) -> list[DemoBatch]:
        if not reduced:
            return [batch]
        comp = batch.composition
        if cfg.evaluation_mode == "ratio_guided":
            counts = apportion_counts(batch.count, space.slot_ratios)
            return [
                DemoBatch(bases[j] + comp, c) for j, c in enumerate(counts) if c > 0
            ]
        return [DemoBatch(bases[comp[0]] + comp[1:], batch.count)]

    init_comps = (
        list(cfg.initial_compositions)
        if cfg.initial_compositions is not None
        else diagonal_init(curation_space)
    )
    init_batches: list[DemoBatch] = []
    for comp in init_comps:
        curation_space.validate(comp)
        init_batches.extend(to_world_batches(DemoBatch(comp, cfg.unit_size)))
    initial = add_many(Dataset.empty(world), init_batches)
    current = initial

    records: list[IterationRecord] = []
    for iteration in range(1, cfg.max_iterations + 1):
        tag = derive_tag(eval_tag_base, iteration)
        if not reduced:
            report = simulate_evaluation(params, current, space, cfg.k, tag)
        elif cfg.evaluation_mode == "ratio_guided":
            report = ratio_guided_evaluation(params, current, space, cfg.k, tag)
        else:
            report = mapped_evaluation(params, current, space, cfg.k, tag)
        before = current
        converged = report.overall >= cfg.tau
        if converged:
            batches, trace = [], CurationTrace(steps=())
        else:
            curation_view = (
                current
                if not reduced
                else _project_suffix(current, width, curation_space)
                if cfg.evaluation_mode == "ratio_guided"
                else _project_reduced(current, space)
            )
            batches, _, trace = curate_expansion(
                report.rates, curation_view, cfg.tau, cfg.unit_size
            )
            world_batches = [wb for b in batches for wb in to_world_batches(b)]
            current = add_many(current, world_batches)
        records.append(IterationRecord(iteration, report, tuple(batches), trace, before, current))
        if converged:
            break
    return RunHistory(stage, space, cfg, initial, tuple(records))


def stage_labels(count: int) -> list[str]:
    """Cumulative stage names: first three follow the object/action/environment convention."""
    known = ["O", "OA", "OAE"]
    return [known[i] if i < len(known) else f"stage{i + 1}" for i in range(count)]


def sequential_expansion(
    stage_spaces: Sequence[FactorSpace],
    family: OracleFamily,
    cfg: FlywheelConfig,
    base_tag: int = 0,
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
    labels = stage_labels(len(stage_spaces))

    histories: list[RunHistory] = []
    world = stage_spaces[0]
    history = run_flywheel(
        world,
        family.params_for(world),
        cfg,
        stage=labels[0],
        eval_tag_base=derive_tag(base_tag, 1),
    )
    histories.append(history)

    for index, next_space in enumerate(stage_spaces[1:], start=2):
        if not histories[-1].converged:
            break
        _, ratios = support_and_ratios(histories[-1].dataset)
        reduced = reduced_product(list(ratios.items()), next_space)
        world = product_space(world, next_space)
        history = run_flywheel(
            reduced,
            family.params_for(world),
            cfg,
            world=world,
            stage=labels[index - 1],
            eval_tag_base=derive_tag(base_tag, index),
        )
        histories.append(history)
    return histories
