"""Demonstration datasets over a factor space.

A dataset is a multiset of demonstrations; every consumer in this package
needs only its per-composition counts, held as one read-only int64 array
shaped like the space (``Dataset.grid``).  Counts are validated where they
enter from outside: the constructors, added batches and the plain-dict
loader.  A count must be an integer; 2.7 raises ValueError
rather than becoming 2.  A batch is a block of identical demonstrations at
one cell; ``DemoBatches`` holds many as flat cell indices and counts, the one
batch form, and ``add_many`` folds them all with one ``np.add.at``.
``Dataset.support_columns`` reads the support with one ``argwhere`` and
labels it one axis at a time (``composition_labels``), once per dataset,
which keeps them; ``dataset_to_csv`` joins those labels and counts directly,
``dataset_to_doc`` gives the dict form that JSON writers nest, and
``RunHistory.to_json`` takes the columns as they are.
JSON text itself is made only where a file is written.  A total that would
reach 2**63 raises OverflowError before it is stored (batch counts are summed
as Python ints); a count grid the host cannot allocate raises
InputMemoryError naming the ``space``.
Updates are value-semantic: adding a batch returns a new snapshot and leaves
the input untouched, so iteration histories can hold per-iteration datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .spaces import (
    Composition,
    FactorSpace,
    composition_labels,
    int_strings,
    integer_array,
    parse_composition,
)


class InputMemoryError(MemoryError):
    """An array sized by config field ``field`` does not fit in memory; str() starts with it."""

    def __init__(self, field: str, detail: str) -> None:
        super().__init__(f"{field}: {detail}")
        self.field, self.detail = field, detail


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Demo counts over a space: ``grid`` is a read-only int64 array of its shape.

    ``Dataset(space, mapping)`` takes counts keyed by composition; zero
    counts are allowed and stay out of the support.
    """

    space: FactorSpace
    grid: np.ndarray

    def __init__(self, space: FactorSpace, counts: Mapping[Composition, int] | None = None):
        try:
            grid = np.zeros(space.shape, dtype=np.int64)
        except MemoryError as exc:
            detail = f"the demo count grid does not fit in memory ({exc})"
            raise InputMemoryError("space", detail) from exc
        if counts:
            grid.flat[space.cells(list(counts))] = integer_array(list(counts.values()), "counts")
        self._freeze(space, grid)

    @classmethod
    def from_grid(cls, space: FactorSpace, grid: np.ndarray) -> "Dataset":
        """Dataset with a copy of a count array of the space's size."""
        out = cls.__new__(cls)
        out._freeze(space, np.array(integer_array(grid, "grid")).reshape(space.shape))
        return out

    def _freeze(self, space: FactorSpace, grid: np.ndarray) -> None:
        if (grid < 0).any():
            raise ValueError(f"negative count at {space.decode(int(np.argmin(grid)))}")
        # int64 sums wrap, so a total near 2**63 is summed again exactly in Python ints
        if grid.sum(dtype=float) >= 2.0**62 and sum(grid.ravel().tolist()) >= 2**63:
            raise OverflowError("total demo count must stay below 2**63")
        grid.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.grid, other.grid)

    @property
    def counts(self) -> Mapping[Composition, int]:
        """Nonzero counts keyed by composition, in ascending linear index."""
        points = np.argwhere(self.grid)  # row-major, so ascending linear index
        values = self.grid[tuple(points.T)].tolist()
        return MappingProxyType(dict(zip(map(tuple, points.tolist()), values)))

    @property
    def total(self) -> int:
        return int(self.grid.sum())

    @property
    def support(self) -> frozenset[Composition]:
        return frozenset(map(tuple, np.argwhere(self.grid).tolist()))

    def count_at(self, c: Composition) -> int:
        return int(self.grid.flat[self.space.encode(c)])

    @cached_property
    def support_columns(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Labels and read-only counts of the support, in ascending linear index.

        Made on first use and kept: every writer of this dataset reads them.
        """
        points = np.argwhere(self.grid)  # row-major, so ascending linear index
        counts = self.grid[tuple(points.T)]
        counts.setflags(write=False)
        return tuple(composition_labels(points)), counts


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
    """Return a new dataset with every batch merged in."""
    cells = batches.cells
    if len(cells) and not (cells.min() >= 0 and cells.max() < dataset.grid.size):
        raise ValueError(f"batch cells outside the {dataset.grid.size} cells of the space")
    # summed as Python ints: no cell can wrap if the total cannot, but an int64 sum can
    if dataset.total + sum(batches.counts.tolist()) >= 2**63:
        raise OverflowError("total demo count must stay below 2**63")
    grid = dataset.grid.copy()
    np.add.at(grid.reshape(-1), cells, batches.counts)
    return Dataset.from_grid(dataset.space, grid)


# Kept only for bench/tracer.py, which wraps this lookup site.
add_demos = add_many


def support_and_ratios(
    dataset: Dataset,
) -> tuple[frozenset[Composition], dict[Composition, float]]:
    """The support f(D) and each support composition's share of the total.

    Ratios are ordered by ascending linear index and sum to 1 within 1e-12.
    Requesting ratios of an empty dataset is an error; the support of an
    empty dataset is the empty set.
    """
    counts = dataset.counts
    if not counts:
        raise ValueError("empty dataset has no ratios")
    total = dataset.total
    return frozenset(counts), {c: n / total for c, n in counts.items()}


def marginal_counts(dataset: Dataset, dim: int) -> np.ndarray:
    """Demo counts aggregated per level of one dimension."""
    if not 0 <= dim < dataset.space.ndim:
        raise ValueError(f"dimension {dim} out of range for {dataset.space.ndim} dims")
    others = tuple(m for m in range(dataset.space.ndim) if m != dim)
    return dataset.grid.sum(axis=others)


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
