"""Worst-factor curation: aggregated scores, marking loop, batch emission.

The expansion loop scores every composition by summing all axis-aligned
slices through it (minus the overcounted self terms), then repeatedly batches
the unmarked composition with the lowest score, predicting coverage via
hypercube spans against the dataset support until the whole grid is marked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# add_demos stays importable from here: bench/tracer.py wraps it at this lookup site.
from .dataset import Dataset, DemoBatch, add_demos, add_many  # noqa: F401
from .orbit import MarkTensor
from .spaces import Composition, FactorSpace, Tensor, format_composition


def aggregated_tensor(rates: Tensor) -> Tensor:
    """Per-cell sum of all axis slices through the cell.

    S_i = sum_m sum_{j : j_m = i_m} R_j - (n - 1) * R_i for an n-dim grid:
    each dimension contributes the total of the slab sharing coordinate m
    with i, and the cell's own value, counted n times, is kept once.
    """
    grid = rates.grid
    n = grid.ndim
    axes = tuple(range(n))
    scores = -(n - 1) * grid
    for m in axes:
        others = tuple(a for a in axes if a != m)
        scores = scores + grid.sum(axis=others, keepdims=True)
    return Tensor(rates.space, scores.reshape(-1))


def overall_rate(rates: Tensor) -> float:
    """Arithmetic mean success over all compositions."""
    return float(rates.values.mean())


@dataclass(frozen=True)
class CurationStep:
    step: int
    selected: Composition
    s_value: float
    newly_marked: int
    batch_size: int


@dataclass(frozen=True)
class CurationTrace:
    steps: tuple[CurationStep, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "composition", "S_value", "newly_marked", "batch_size"])
        for s in self.steps:
            writer.writerow(
                [s.step, format_composition(s.selected), repr(s.s_value), s.newly_marked, s.batch_size]
            )
        return buf.getvalue()


def curate_expansion(
    rates: Tensor,
    dataset: Dataset,
    tau: float,
    unit_size: int,
) -> tuple[list[DemoBatch], Dataset, CurationTrace]:
    """One full marking pass; returns emitted batches, dataset, and trace.

    The score tensor is computed once up front and never refreshed inside the
    loop.  Marking starts from {R > tau}.  Each round selects the unmarked
    cell with minimal score (ties: smallest linear index), marks it, marks
    every hypercube spanned against the current support, then emits a batch
    of unit_size demos at the selection, so later spans see earlier
    selections as support.  The returned dataset has every batch folded in.
    """
    space = rates.space
    if space.shape != dataset.space.shape:
        raise ValueError(
            f"rate tensor shape {space.shape} does not match dataset space {dataset.space.shape}"
        )
    if unit_size < 1:
        raise ValueError(f"unit_size must be >= 1, got {unit_size}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")

    scores = aggregated_tensor(rates).values
    marks = MarkTensor(space, rates.values > tau)
    support = list(dataset.support)
    batches: list[DemoBatch] = []
    steps: list[CurationStep] = []

    while not marks.all_marked():
        candidates = marks.unmarked_indices()
        selected_idx = int(candidates[np.argmin(scores[candidates])])
        selected = space.decode(selected_idx)
        newly_count = marks.mark_spans(selected, support)
        support.append(selected)
        batches.append(DemoBatch(selected, unit_size))
        steps.append(
            CurationStep(
                step=len(steps),
                selected=selected,
                s_value=float(scores[selected_idx]),
                newly_marked=newly_count,
                batch_size=unit_size,
            )
        )
        # Each round marks its selection, so the loop is bounded by the grid.
        assert len(steps) <= space.cardinality

    return batches, add_many(dataset, batches), CurationTrace(tuple(steps))
