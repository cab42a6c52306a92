"""Worst-factor curation: aggregated scores, marking loop, batch emission.

The expansion loop scores every composition by summing all axis-aligned
slices through it (minus the overcounted self terms), then repeatedly batches
the unmarked composition with the lowest score, predicting coverage via
hypercube spans against the dataset support until the whole grid is marked.

Scores are fixed within a pass, so the selection order is one stable argsort
of them, walked by a pointer that skips cells marked in the meantime: the
first unmarked cell it reaches has the lowest score, ties going to the
smallest linear index.  Marks are one flat bool array over the row-major
grid, and the support is held as flat offsets per axis (coordinate times
cell stride).  A selection s marks span(s, t) for each support point t.
Where ``_use_table`` allows, a subset-sum table does it with one add and one
fancy write: row t holds t's offsets summed over each of the 2**ndim axis
subsets P, and entry P of ``row_t + s - row_s`` takes t's coordinates on P
and s's elsewhere.  Otherwise the doubling writes only sum_t 2**hamming(s, t)
cells, in about 4 * ndim + 6 calls, doubling per axis the cells whose row of
``(t - s) * strides`` moves there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# add_demos stays importable from here: bench/tracer.py wraps it at this lookup site.
from .dataset import Dataset, DemoBatch, add_demos, add_many  # noqa: F401
from .orbit import _above_tau
from .spaces import Composition, Tensor, composition_labels, csv_text


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
            (s.step, label, repr(s.s_value), s.newly_marked, s.batch_size)
            for s, label in zip(self.steps, composition_labels([s.selected for s in self.steps]))
        )
        return csv_text(header, rows)


# Marked cells are skipped in blocks of the score order: one gather and one
# argmin per block instead of a Python step per cell.
_SKIP_BLOCK = 256
_TABLE_RATIO = 3.5  # largest expected table-to-doubling cell ratio of a pass (4**10's 3.80 lost)


def _span_cells(selected: int, delta: np.ndarray) -> np.ndarray:
    """Every subset sum of every delta row, offset by the selection.

    Each axis doubles the cells whose row has a nonzero delta there, so row t
    yields 2**hamming(s, t) cells.
    """
    cells = np.full(len(delta), selected, dtype=delta.dtype)
    rows = np.arange(len(delta))
    for column in delta.T:
        step = column[rows]
        moved = np.flatnonzero(step)
        cells = np.concatenate([cells, cells[moved] + step[moved]])
        rows = np.concatenate([rows, rows[moved]])
    return cells


def _subset_sums(points: np.ndarray) -> np.ndarray:
    """Entry [t, P] sums row t over the columns in subset P, whose bit m is column m."""
    sums = np.zeros((2 ** points.shape[1], len(points)), dtype=points.dtype)
    for m, column in enumerate(points.T):
        np.add(sums[: 2**m], column, out=sums[2**m : 2 ** (m + 1)])
    return sums.T


def _use_table(shape: tuple[int, ...]) -> bool:
    """Whether to use the table: an axis of L levels doubles it, and the doubling w.p. (L-1)/L."""
    return math.prod(2 * size / (2 * size - 1) for size in shape) <= _TABLE_RATIO


def curate_expansion(
    rates: Tensor,
    dataset: Dataset,
    tau: float,
    unit_size: int,
) -> tuple[list[DemoBatch], Dataset, CurationTrace]:
    """One full marking pass; returns emitted batches, dataset, and trace.

    The score tensor is computed once up front and never refreshed inside the
    loop.  Marking starts from {R > tau}.  Each round selects the unmarked
    cell with minimal score (ties: smallest linear index) by walking the
    stable argsort of the scores past marked cells, marks it, marks every
    hypercube spanned against the current support, then emits a batch of
    unit_size demos at the selection, so later spans see earlier selections
    as support.  The returned dataset has every batch folded in.

    Spans come from the subset-sum table where ``_use_table`` expects it to
    write at most ``_TABLE_RATIO`` times the doubling's cells, else from the
    doubling; both mark one union, then one count over the grid.  Rates must
    lie in [0, 1]; that keeps out NaN, the one score on which the stable
    argsort and an argmin over the unmarked cells would choose different cells.
    """
    space = rates.space
    if space.shape != dataset.space.shape:
        raise ValueError(
            f"rate tensor shape {space.shape} does not match dataset space {dataset.space.shape}"
        )
    if unit_size < 1:
        raise ValueError(f"unit_size must be >= 1, got {unit_size}")
    marked = _above_tau(rates, tau)

    scores = aggregated_tensor(rates).values
    order = np.argsort(scores, kind="stable")
    strides = np.array([math.prod(space.shape[m + 1 :]) for m in range(space.ndim)], dtype=np.intp)
    support = np.argwhere(dataset.grid) * strides
    subsets = None
    if _use_table(space.shape):
        subsets = _subset_sums(np.identity(space.ndim, dtype=np.intp))  # [m, P]: is m in P
        support = _subset_sums(support)
    rows = len(support)  # the rows past it are spare, so no selection copies the support
    marked_count = int(np.count_nonzero(marked))
    position = 0
    batches: list[DemoBatch] = []
    steps: list[CurationStep] = []

    while marked_count < space.cardinality:
        while marked[order[position]]:
            # argmin is the first unmarked cell of the block, 0 if it has none
            ahead = marked[order[position : position + _SKIP_BLOCK]]
            position += int(ahead.argmin()) or len(ahead)
        selected_idx = int(order[position])
        selected = space.decode(selected_idx)
        row = np.multiply(selected, strides)
        if rows == len(support):
            support = np.pad(support, [(0, rows + 1), (0, 0)])
        # span(s, s) is {s}, so adding s to the support first also marks s itself
        support[rows] = row if subsets is None else row @ subsets
        rows += 1
        if subsets is None:
            marked[_span_cells(selected_idx, support[:rows] - row)] = True
        else:  # entry P of row t: t's coordinates on the axes in P, s's elsewhere
            marked[support[:rows] + (selected_idx - support[rows - 1])] = True
        newly_marked = int(np.count_nonzero(marked)) - marked_count
        marked_count += newly_marked
        batches.append(DemoBatch(selected, unit_size))
        steps.append(
            CurationStep(
                step=len(steps),
                selected=selected,
                s_value=float(scores[selected_idx]),
                newly_marked=newly_marked,
                batch_size=unit_size,
            )
        )
        # Each round marks its selection, so the loop is bounded by the grid.
        assert len(steps) <= space.cardinality

    return batches, add_many(dataset, batches), CurationTrace(tuple(steps))
