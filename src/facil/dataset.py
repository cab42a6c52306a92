"""Demonstration datasets over a factor space.

A dataset is a multiset of demonstrations; every consumer in this package
needs only its per-composition counts, held as one read-only int64 array
shaped like the space (``Dataset.grid``).  Counts are validated where they
enter from outside: the constructors, added batches and the plain-dict
loader.  A count must be an integer; 2.7 raises ValueError
rather than becoming 2.  A batch is a block of identical demonstrations at
one cell; ``DemoBatches`` holds many as flat cell indices and counts, the one
batch form; ``add_many`` folds them all with one ``np.add.at`` into its one
copy of the grid.  A dataset is the one reader of its grid, and makes its
``total``, flat support (``support_cells``) and level ``marginals`` at most
once; the support views and ``support_columns`` (from ``label_column`` when
dense) read the flat support.  ``dataset_to_csv`` joins those labels and
counts, ``dataset_to_doc`` gives the dict JSON writers nest.
JSON text itself is made only where a file is written.  A total that would
reach 2**63 raises OverflowError before it is stored (batch counts are summed
as Python ints).
Updates are value-semantic: adding a batch returns a new snapshot and leaves
the input untouched, so iteration histories can hold per-iteration datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .spaces import (
    Composition,
    FactorSpace,
    composition_labels,
    int_strings,
    integer_array,
    label_column,
    parse_composition,
)


class InputMemoryError(MemoryError):
    """An array a config field sizes does not fit in memory; str() starts with the field's path."""


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Demo counts over a space: ``grid`` is a read-only int64 array of its shape.

    ``Dataset(space, mapping)`` takes counts keyed by composition; zero
    counts are allowed and stay out of the support.
    """

    space: FactorSpace
    grid: np.ndarray

    def __init__(self, space: FactorSpace, counts: Mapping[Composition, int] | None = None):
        grid = np.zeros(space.shape, dtype=np.int64)
        if counts:
            grid.flat[space.cells(list(counts))] = integer_array(list(counts.values()), "counts")
        self._freeze(space, grid, None if counts else 0)  # an all-zero grid needs no check

    @classmethod
    def from_grid(cls, space: FactorSpace, grid: np.ndarray) -> "Dataset":
        """Dataset with a copy of a count array of the space's size."""
        grid = np.array(integer_array(grid, "grid")).reshape(space.shape)
        return cls.__new__(cls)._freeze(space, grid)

    def _freeze(self, space: FactorSpace, grid: np.ndarray, total: int | None = None) -> "Dataset":
        if total is not None:  # a fold's grid: its total is checked and no count went down
            self.__dict__["total"] = total  # the cached_property's slot
        elif (grid < 0).any():
            at = tuple(map(int, np.unravel_index(np.argmin(grid), grid.shape)))
            raise ValueError(f"negative count at {at}")
        # int64 sums wrap, so a total near 2**63 is summed again exactly in Python ints
        elif grid.sum(dtype=float) >= 2.0**62 and sum(grid.ravel().tolist()) >= 2**63:
            raise OverflowError("total demo count must stay below 2**63")
        grid.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "grid", grid)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.grid, other.grid)

    @cached_property
    def total(self) -> int:
        return int(self.grid.sum())

    @cached_property
    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The support's flat cells, ascending, and the counts there: one scan, kept read-only."""
        cells = np.flatnonzero(self.grid)
        counts = self.grid.reshape(-1)[cells]
        cells.setflags(write=False)
        counts.setflags(write=False)
        return cells, counts

    @property
    def support_size(self) -> int:
        return len(self.support_cells[0])

    @property
    def support_points(self) -> np.ndarray:
        """The support compositions as rows of an (n, ndim) array, ascending linear index."""
        return np.stack(np.unravel_index(self.support_cells[0], self.space.shape), axis=-1)

    @property
    def support(self) -> frozenset[Composition]:
        return frozenset(map(tuple, self.support_points.tolist()))

    @cached_property
    def support_columns(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Labels and read-only counts of the support, in ascending linear index.

        Made on first use and kept: every writer of this dataset reads them.
        ``composition_labels`` costs ``ndim`` concatenations per support cell,
        ``label_column`` about one per grid cell, so a dense support reads it.
        """
        (cells, counts), space = self.support_cells, self.space
        if len(cells) * space.ndim >= 2 * space.cardinality:  # timed crossovers: 1.5x to 2x
            return tuple(label_column(space.shape)[cells].tolist()), counts
        return tuple(composition_labels(self.support_points)), counts

    @cached_property
    def marginals(self) -> tuple[np.ndarray, ...]:
        """Read-only ``grid.sum(axis=others)`` per axis: each pass sums away half its axes."""

        def halves(part: np.ndarray) -> list[np.ndarray]:
            part.setflags(write=False)
            if part.ndim == 1:
                return [part]
            lead, trail = tuple(range(part.ndim // 2)), tuple(range(part.ndim // 2, part.ndim))
            return halves(part.sum(axis=trail)) + halves(part.sum(axis=lead))

        return tuple(halves(self.grid))


class DemoBatches:
    """Many demo batches as two arrays: flat row-major cell indices and counts.

    ``len`` is the number of batches; ``add_many`` folds them all with one
    ``np.add.at``.
    """

    __slots__ = ("cells", "counts")

    def __init__(self, cells, counts) -> None:
        self.cells = integer_array(cells, "batch cells").reshape(-1)
        self.counts = integer_array(counts, "batch counts").reshape(-1)
        if len(self.cells) != len(self.counts):
            raise ValueError(f"{len(self.cells)} cells for {len(self.counts)} batch counts")
        if self.counts.min(initial=1) < 1:
            raise ValueError(f"batch count must be >= 1, got {self.counts.min()}")

    def __len__(self) -> int:
        return len(self.cells)


def add_many(dataset: Dataset, batches: DemoBatches) -> Dataset:
    """Return a new dataset with every batch merged in; an empty dataset's zeros are not copied."""
    cells = batches.cells
    if len(cells) and not (cells.min() >= 0 and cells.max() < dataset.grid.size):
        raise ValueError(f"batch cells outside the {dataset.grid.size} cells of the space")
    # summed as Python ints: no cell can wrap if the total cannot, but an int64 sum can
    total = dataset.total + sum(batches.counts.tolist())
    if total >= 2**63:
        raise OverflowError("total demo count must stay below 2**63")
    grid = dataset.grid.copy() if dataset.total else np.zeros(dataset.grid.shape, dtype=np.int64)
    np.add.at(grid.reshape(-1), cells, batches.counts)
    return Dataset.__new__(Dataset)._freeze(dataset.space, grid, total)


# Kept only for bench/tracer.py, which wraps this lookup site.
add_demos = add_many


CSV_HEADER = ["composition_indices", "count"]


def dataset_to_csv(dataset: Dataset) -> str:
    """CSV with one row per support composition, ascending linear index.

    Labels and counts never need quoting, so rows are joined directly.
    """
    labels, counts = dataset.support_columns
    lines = [",".join(CSV_HEADER), *map(",".join, zip(labels, int_strings(counts))), ""]
    return "\n".join(lines)


def dataset_to_doc(dataset: Dataset) -> dict:
    labels, counts = dataset.support_columns
    return {"space": dataset.space.to_doc(), "counts": dict(zip(labels, counts.tolist()))}


def dataset_from_doc(doc: dict) -> Dataset:
    counts = {parse_composition(key): n for key, n in doc["counts"].items()}
    return Dataset(FactorSpace.from_doc(doc["space"]), counts)
