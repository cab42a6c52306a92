"""Worst-factor curation: aggregated scores, marking loop, batch emission.

The expansion loop scores every composition by summing all axis-aligned
slices through it (minus the overcounted self terms), then repeatedly batches
the unmarked composition with the lowest score, predicting coverage via
hypercube spans against the dataset support until the whole grid is marked.

Marks are one bool array shaped like the grid and the support is an (n, ndim)
integer array.  A selection s marks the union of its spans with every support
point in one pass over the axes: for each axis m, the rows whose coordinate m
differs from s_m are copied with that coordinate set to s_m and appended.  The
rows then hold every cell of every span, and one fancy-index write marks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# add_demos stays importable from here: bench/tracer.py wraps it at this lookup site.
from .dataset import Dataset, DemoBatch, add_demos, add_many  # noqa: F401
from .spaces import Composition, Tensor, csv_text, format_composition


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
        header = ["step", "composition", "S_value", "newly_marked", "batch_size"]
        rows = (
            (s.step, format_composition(s.selected), repr(s.s_value), s.newly_marked, s.batch_size)
            for s in self.steps
        )
        return csv_text(header, rows)


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
    marked = rates.values > tau
    grid = marked.reshape(space.shape)
    support = np.argwhere(dataset.grid)
    batches: list[DemoBatch] = []
    steps: list[CurationStep] = []

    while (candidates := np.flatnonzero(~marked)).size:
        selected_idx = int(candidates[np.argmin(scores[candidates])])
        selected = space.decode(selected_idx)
        # span(s, s) is {s}, so adding s to the support first also marks s itself
        support = np.vstack([support, selected])
        rows = support
        for m, level in enumerate(selected):
            copies = rows[rows[:, m] != level]
            copies[:, m] = level
            rows = np.concatenate([rows, copies])
        grid[tuple(rows.T)] = True
        batches.append(DemoBatch(selected, unit_size))
        steps.append(
            CurationStep(
                step=len(steps),
                selected=selected,
                s_value=float(scores[selected_idx]),
                newly_marked=candidates.size - int(np.count_nonzero(~marked)),
                batch_size=unit_size,
            )
        )
        # Each round marks its selection, so the loop is bounded by the grid.
        assert len(steps) <= space.cardinality

    return batches, add_many(dataset, batches), CurationTrace(tuple(steps))
