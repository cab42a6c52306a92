"""Worst-factor curation: aggregated scores, marking loop, batch emission.

The expansion loop scores every composition by summing all axis-aligned
slices through it (minus the overcounted self terms), then repeatedly batches
the unmarked composition with the lowest score, predicting coverage via
hypercube spans against the dataset support until the whole grid is marked.
Marking starts from the cells whose rate is strictly above tau, the marking
rule ``_above_tau`` (tau and every rate must lie in [0, 1]), which
``analysis.compositionality_check`` also reads its empirical grid by.

Scores are fixed within a pass, so the selection order is one sort of them
(``_score_order``: ascending score, ties by ascending linear index), walked
by a pointer that skips cells marked in the meantime: the first unmarked
cell it reaches has the lowest score, ties going to the smallest linear
index.  Marks are one flat bool array over the row-major grid, and the
support is held as flat offsets per axis (coordinate times cell stride).
A selection s marks span(s, t) for each support point t.
Where ``_use_table`` allows, a subset-sum table does it with one add and one
fancy write: row t holds t's offsets summed over each of the 2**ndim axis
subsets P, and entry P of ``row_t + s - row_s`` takes t's coordinates on P
and s's elsewhere.  Otherwise the doubling writes only sum_t 2**hamming(s, t)
cells, in about 4 * ndim + 6 calls, doubling per axis the cells whose row of
``(t - s) * strides`` moves there.

A pass is recorded as arrays, a ``CurationTrace``: the selected flat cells
in order, their scores and the cells each newly marked.  No selection is
decoded or wrapped in an object; the batches are one ``DemoBatches`` of the
same cells, and ``CurationTrace.rows`` gives the trace table of
``history.json`` with one ``unravel_index``.  ``CurationTrace.steps``, one
``CurationStep`` per row, is derived from the arrays when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# add_demos stays importable from here: bench/tracer.py wraps it at this lookup site.
from .dataset import Dataset, DemoBatches, add_demos, add_many  # noqa: F401
from .spaces import Composition


def _above_tau(rates: np.ndarray, tau: float) -> np.ndarray:
    """Mask of the cells whose rate is strictly above tau; tau and the rates lie in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if not (np.all(rates >= 0.0) and np.all(rates <= 1.0)):
        raise ValueError("tensor is not a success-rate tensor (values outside [0, 1])")
    return rates > tau


def aggregated_tensor(rates: np.ndarray) -> np.ndarray:
    """Per-cell sum of all axis slices through the cell.

    S_i = sum_m sum_{j : j_m = i_m} R_j - (n - 1) * R_i for an n-dim grid:
    each dimension contributes the total of the slab sharing coordinate m
    with i, and the cell's own value, counted n times, is kept once.
    """
    n = rates.ndim
    axes = tuple(range(n))
    scores = -(n - 1) * rates
    for m in axes:
        others = tuple(a for a in axes if a != m)
        scores = scores + rates.sum(axis=others, keepdims=True)
    return scores


# CurationStep and CurationTrace.steps are kept only for bench/tracer.py, which reads them.
@dataclass(frozen=True)
class CurationStep:
    """One row of ``CurationTrace.steps``; made only when that view is read."""

    step: int
    selected: Composition
    s_value: float
    newly_marked: int
    batch_size: int


@dataclass(frozen=True, eq=False)
class CurationTrace:
    """One marking pass as arrays over a grid of ``shape``, one entry per selection in order.

    ``cells`` are the selected flat row-major cells (int64), ``scores`` their
    aggregated scores (float64) and ``newly_marked`` the cells each one
    marked (int64); every selection emits a batch of ``batch_size`` demos.
    The arrays are read-only.
    """

    shape: tuple[int, ...]
    cells: np.ndarray
    scores: np.ndarray
    newly_marked: np.ndarray
    batch_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(self.shape))
        for name, dtype in (("cells", np.int64), ("scores", np.float64), ("newly_marked", np.int64)):
            values = np.array(getattr(self, name), dtype=dtype).reshape(-1)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if not len(self.cells) == len(self.scores) == len(self.newly_marked):
            raise ValueError("cells, scores and newly_marked differ in length")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurationTrace):
            return NotImplemented
        return self.shape == other.shape and self.rows() == other.rows()

    def rows(self) -> list[tuple[int, list[int], float, int, int]]:
        """(step, selected composition, score, newly marked, batch size) per selection.

        These are the trace rows of ``history.json``; the compositions come
        from one ``unravel_index`` of the cells.
        """
        points = np.stack(np.unravel_index(self.cells, self.shape), axis=1).tolist()
        sizes = [self.batch_size] * len(points)
        scores, newly = self.scores.tolist(), self.newly_marked.tolist()
        return list(zip(range(len(points)), points, scores, newly, sizes))

    @property
    def steps(self) -> tuple[CurationStep, ...]:
        """The rows as ``CurationStep``s, derived from the arrays on each read."""
        return tuple(CurationStep(i, tuple(c), s, n, b) for i, c, s, n, b in self.rows())


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


def _score_order(scores: np.ndarray) -> np.ndarray:
    """Cells by ascending score, ties by ascending index: ``np.argsort(kind="stable")``'s order.

    One unstable argsort ranks the scores; equal scores (0.0 and -0.0 too)
    then sit in runs, numbered in order, and one int64 sort of
    ``run * n + index`` puts each run in index order.
    """
    order = np.argsort(scores)
    ranked = scores[order]
    n = len(order)
    keys = np.zeros(n, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=keys[1:])  # the run of each rank
    keys *= n
    keys += order
    keys.sort()
    keys %= n
    return keys


def curate_expansion(
    rates: np.ndarray,
    dataset: Dataset,
    tau: float,
    unit_size: int,
) -> tuple[DemoBatches, Dataset, CurationTrace]:
    """One full marking pass; returns emitted batches, dataset, and trace.

    The score tensor is computed once up front and never refreshed inside the
    loop.  Marking starts from {R > tau}.  Each round selects the unmarked
    cell with minimal score (ties: smallest linear index) by walking the
    score order past marked cells, marks it, marks every hypercube spanned
    against the current support, then emits a batch of unit_size demos at the
    selection, so later spans see earlier selections as support.  The
    batches are one ``DemoBatches`` of the selected cells, and the returned
    dataset has them folded in by one ``add_many``.

    Spans come from the subset-sum table where ``_use_table`` expects it to
    write at most ``_TABLE_RATIO`` times the doubling's cells, else from the
    doubling; both mark one union, then one count over the grid.  Rates must
    lie in [0, 1]; that keeps out NaN, the one score on which the score order
    and an argmin over the unmarked cells would choose different cells.
    """
    space = dataset.space
    if rates.shape != space.shape:
        raise ValueError(
            f"rate tensor shape {rates.shape} does not match dataset space {space.shape}"
        )
    if unit_size < 1:
        raise ValueError(f"unit_size must be >= 1, got {unit_size}")
    marked = _above_tau(rates, tau).reshape(-1)

    scores = aggregated_tensor(rates).reshape(-1)
    order = _score_order(scores)
    strides = [math.prod(space.shape[m + 1 :]) for m in range(space.ndim)]
    axes = list(zip(strides, space.shape))
    support = dataset.support_points * np.array(strides, dtype=np.intp)
    subsets = None
    if _use_table(space.shape):
        subsets = _subset_sums(np.identity(space.ndim, dtype=np.intp))  # [m, P]: is m in P
        support = _subset_sums(support)
    rows = len(support)  # the rows past it are spare, so no selection copies the support
    marked_count = int(np.count_nonzero(marked))
    position = 0
    selections: list[int] = []
    newly_marked: list[int] = []

    while marked_count < space.cardinality:
        while marked[order[position]]:
            # argmin is the first unmarked cell of the block, 0 if it has none
            ahead = marked[order[position : position + _SKIP_BLOCK]]
            position += int(ahead.argmin()) or len(ahead)
        selected = int(order[position])
        row = np.array([selected // stride % size * stride for stride, size in axes])
        if rows == len(support):  # double the rows: one allocation and one copy
            grown = np.empty((2 * rows + 1, support.shape[1]), dtype=support.dtype)
            grown[:rows] = support
            support = grown
        # span(s, s) is {s}, so adding s to the support first also marks s itself
        support[rows] = row if subsets is None else row @ subsets
        rows += 1
        if subsets is None:
            marked[_span_cells(selected, support[:rows] - row)] = True
        else:  # entry P of row t: t's coordinates on the axes in P, s's elsewhere
            marked[support[:rows] + (selected - support[rows - 1])] = True
        count = int(np.count_nonzero(marked))
        newly_marked.append(count - marked_count)
        marked_count = count
        selections.append(selected)
        # Each round marks its selection, so the loop is bounded by the grid.
        assert len(selections) <= space.cardinality

    cells = np.array(selections, dtype=np.int64)
    batches = DemoBatches(cells, np.full(len(cells), unit_size))
    trace = CurationTrace(space.shape, cells, scores[cells], newly_marked, unit_size)
    # A 3-tuple only for bench/tracer.py; run_flywheel reads the trace and folds its cells.
    return batches, add_many(dataset, batches), trace
