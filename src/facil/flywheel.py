"""Iterative evaluate-curate-expand loop and staged factor expansion.

One flywheel run seeds a dataset on the diagonal of its search grid, then
alternates evaluation and curation until the overall success rate clears the
threshold or an iteration cap trips.  Staged expansion chains runs: each new
stage searches (inherited slots) x (new factor grid), keeping demo ratios of
the inherited slots frozen, while the oracle always scores the underlying
full-coordinate dataset.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curation import CurationStep, CurationTrace, curate_expansion
from .dataset import (
    Dataset,
    DemoBatch,
    add_many,
    dataset_from_json,
    dataset_to_json,
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
    Tensor,
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
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must be in (0, 1), got {self.tau!r}")
        if self.unit_size < 1:
            raise ValueError(f"unit_size must be >= 1, got {self.unit_size}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.evaluation_mode not in EVALUATION_MODES:
            raise ValueError(
                f"evaluation_mode must be one of {EVALUATION_MODES}, got {self.evaluation_mode!r}"
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

    @classmethod
    def from_doc(cls, doc: dict) -> "FlywheelConfig":
        init = doc.get("initial_compositions")
        return cls(
            tau=float(doc["tau"]),
            unit_size=int(doc["unit_size"]),
            k=int(doc["k"]),
            max_iterations=int(doc["max_iterations"]),
            evaluation_mode=str(doc["evaluation_mode"]),
            initial_compositions=None if init is None else tuple(tuple(c) for c in init),
        )


@dataclass(frozen=True)
class IterationRecord:
    """One evaluate(-curate) cycle; batches are empty on the converged pass."""

    iteration: int
    total_before: int
    support_before: int
    report: EvaluationReport
    overall_rate: float
    batches: tuple[DemoBatch, ...]
    trace: CurationTrace
    total_after: int
    support_after: int
    rollouts_spent: int
    dataset_after: Dataset


@dataclass(frozen=True)
class RunHistory:
    """Complete record of one flywheel run over one search space."""

    stage: str
    space: FactorSpace
    world_space: FactorSpace
    config: FlywheelConfig
    records: tuple[IterationRecord, ...]
    converged: bool
    dataset: Dataset
    initial_dataset: Dataset

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if self.converged:
            if not self.records or self.records[-1].overall_rate < self.config.tau:
                raise ValueError("converged history must end at or above tau")

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["iteration", "total_demos", "support_size", "overall_rate", "rollouts_spent"]
        )
        for rec in self.records:
            writer.writerow(
                [
                    rec.iteration,
                    rec.total_after,
                    rec.support_after,
                    repr(rec.overall_rate),
                    rec.rollouts_spent,
                ]
            )
        return buf.getvalue()

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
            "space": json.loads(self.space.to_json()),
            "world_space": json.loads(self.world_space.to_json()),
            "final_dataset": json.loads(dataset_to_json(self.dataset)),
            "initial_dataset": json.loads(dataset_to_json(self.initial_dataset)),
            "iterations": [
                {
                    "iteration": rec.iteration,
                    "total_before": rec.total_before,
                    "support_before": rec.support_before,
                    "overall_rate": rec.overall_rate,
                    "report": {
                        "space": json.loads(rec.report.space.to_json()),
                        "successes": [int(s) for s in rec.report.successes],
                        "k": rec.report.k,
                        "total_rollouts": rec.report.total_rollouts,
                    },
                    "batches": [[list(b.composition), b.count] for b in rec.batches],
                    "trace": [
                        [s.step, list(s.selected), s.s_value, s.newly_marked, s.batch_size]
                        for s in rec.trace.steps
                    ],
                    "total_after": rec.total_after,
                    "support_after": rec.support_after,
                    "rollouts_spent": rec.rollouts_spent,
                    "dataset_after": json.loads(dataset_to_json(rec.dataset_after)),
                }
                for rec in self.records
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunHistory":
        doc = json.loads(text)
        records = []
        for rd in doc["iterations"]:
            rspace = FactorSpace.from_json(json.dumps(rd["report"]["space"]))
            k = int(rd["report"]["k"])
            successes = np.asarray(rd["report"]["successes"], dtype=np.int64)
            report = EvaluationReport(
                space=rspace,
                rates=Tensor(rspace, successes / k),
                successes=successes,
                k=k,
                total_rollouts=int(rd["report"]["total_rollouts"]),
            )
            records.append(
                IterationRecord(
                    iteration=int(rd["iteration"]),
                    total_before=int(rd["total_before"]),
                    support_before=int(rd["support_before"]),
                    report=report,
                    overall_rate=float(rd["overall_rate"]),
                    batches=tuple(
                        DemoBatch(tuple(c), int(n)) for c, n in rd["batches"]
                    ),
                    trace=CurationTrace(
                        steps=tuple(
                            CurationStep(
                                step=int(s[0]),
                                selected=tuple(s[1]),
                                s_value=float(s[2]),
                                newly_marked=int(s[3]),
                                batch_size=int(s[4]),
                            )
                            for s in rd["trace"]
                        )
                    ),
                    total_after=int(rd["total_after"]),
                    support_after=int(rd["support_after"]),
                    rollouts_spent=int(rd["rollouts_spent"]),
                    dataset_after=dataset_from_json(json.dumps(rd["dataset_after"])),
                )
            )
        return cls(
            stage=str(doc["stage"]),
            space=FactorSpace.from_json(json.dumps(doc["space"])),
            world_space=FactorSpace.from_json(json.dumps(doc["world_space"])),
            config=FlywheelConfig.from_doc(doc["config"]),
            records=tuple(records),
            converged=bool(doc["converged"]),
            dataset=dataset_from_json(json.dumps(doc["final_dataset"])),
            initial_dataset=dataset_from_json(json.dumps(doc["initial_dataset"])),
        )


@dataclass(frozen=True)
class BudgetReport:
    """Rollout arithmetic for one iteration of a staged search."""

    full_possibilities: int
    reduced_possibilities: int
    sampled_rollouts: int
    full_rollouts: int
    speedup: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "full_possibilities": self.full_possibilities,
                "reduced_possibilities": self.reduced_possibilities,
                "sampled_rollouts": self.sampled_rollouts,
                "full_rollouts": self.full_rollouts,
                "speedup": self.speedup,
            },
            indent=2,
        )


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
    threads: int = 1,
) -> RunHistory:
    """Run the evaluate-curate loop on one search space.

    A plain space is searched directly.  A reduced space (slot ratios set)
    needs `world`, the full-coordinate space its demos live in; curation then
    works either on the whole (slot x new grid) in exact mode or on the
    new-factor grid alone in ratio_guided mode, with each emitted batch
    spread over the inherited slots by their frozen ratios.  ``threads`` is
    accepted for compatibility and has no effect.
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
    converged = False
    for iteration in range(1, cfg.max_iterations + 1):
        tag = derive_tag(eval_tag_base, iteration)
        if not reduced:
            report = simulate_evaluation(params, current, space, cfg.k, tag)
        elif cfg.evaluation_mode == "ratio_guided":
            report = ratio_guided_evaluation(params, current, space, cfg.k, tag)
        else:
            report = mapped_evaluation(params, current, space, cfg.k, tag)
        rate = report.overall
        before = current
        converged = rate >= cfg.tau
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
        records.append(
            IterationRecord(
                iteration=iteration,
                total_before=before.total,
                support_before=len(before.support),
                report=report,
                overall_rate=rate,
                batches=tuple(batches),
                trace=trace,
                total_after=current.total,
                support_after=len(current.support),
                rollouts_spent=report.total_rollouts,
                dataset_after=current,
            )
        )
        if converged:
            break

    return RunHistory(
        stage=stage,
        space=space,
        world_space=world,
        config=cfg,
        records=tuple(records),
        converged=converged,
        dataset=current,
        initial_dataset=initial,
    )


def stage_labels(count: int) -> list[str]:
    """Cumulative stage names: first three follow the object/action/environment convention."""
    known = ["O", "OA", "OAE"]
    return [known[i] if i < len(known) else f"stage{i + 1}" for i in range(count)]


def sequential_expansion(
    stage_spaces: Sequence[FactorSpace],
    family: OracleFamily,
    cfg: FlywheelConfig,
    base_tag: int = 0,
    threads: int = 1,
) -> list[RunHistory]:
    """Chain flywheel runs over progressively larger factor products.

    Stage 1 searches its plain grid.  Stage j+1 searches (support slots of
    stage j's dataset) x (next grid), with slot ratios frozen from that
    dataset.  Each stage curates a fresh dataset; earlier stages enter only
    through the inherited slots.  Stops after the first failing stage.
    ``threads`` is accepted for compatibility and has no effect.
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
