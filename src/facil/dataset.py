"""Demonstration datasets over a factor space.

A dataset is a multiset of demonstrations; every consumer in this package
needs only its per-composition counts, held as one read-only int64 array
shaped like the space (``Dataset.grid``).  Counts are validated where they
enter from outside: the constructors, added batches and the CSV and
plain-dict loaders.  ``dataset_to_doc`` gives the dict form that JSON
writers nest; JSON text itself is made only where a file is written.
A total that would reach 2**63 raises OverflowError before it is stored.
Updates are value-semantic: adding a batch returns a new snapshot and leaves
the input untouched, so iteration histories can hold per-iteration datasets.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .spaces import Composition, FactorSpace, csv_text, format_composition, parse_composition


@dataclass(frozen=True)
class DemoBatch:
    """A block of identical demonstrations at one composition."""

    composition: Composition
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "composition", tuple(int(v) for v in self.composition))
        object.__setattr__(self, "count", int(self.count))
        if self.count < 1:
            raise ValueError(f"batch count must be >= 1, got {self.count}")


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
            grid[space.grid_index(list(counts))] = [int(n) for n in counts.values()]
        self._freeze(space, grid)

    @classmethod
    def from_grid(cls, space: FactorSpace, grid: np.ndarray) -> "Dataset":
        """Dataset with a copy of a count array of the space's size."""
        out = cls.__new__(cls)
        out._freeze(space, np.array(grid, dtype=np.int64).reshape(space.shape))
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

    @classmethod
    def empty(cls, space: FactorSpace) -> "Dataset":
        return cls(space)

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
        return int(self.grid[self.space.validate(c)])

    def count_array(self) -> np.ndarray:
        """Counts as a flat, read-only row-major integer array over the space."""
        return self.grid.reshape(-1)


def add_demos(dataset: Dataset, batch: DemoBatch) -> Dataset:
    """Return a new dataset with the batch merged in."""
    return add_many(dataset, [batch])


def add_many(dataset: Dataset, batches: Iterable[DemoBatch]) -> Dataset:
    """Return a new dataset with every batch merged in."""
    batches = list(batches)
    counts = [b.count for b in batches]
    if dataset.total + sum(counts) >= 2**63:  # no cell can wrap if the total cannot
        raise OverflowError("total demo count must stay below 2**63")
    grid = dataset.grid.copy()
    if batches:
        np.add.at(grid, dataset.space.grid_index([b.composition for b in batches]), counts)
    return Dataset.from_grid(dataset.space, grid)


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
    """CSV with one row per support composition, ascending linear index."""
    return csv_text(CSV_HEADER, ((format_composition(c), n) for c, n in dataset.counts.items()))


def dataset_from_csv(space: FactorSpace, text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected dataset CSV header {header!r}")
    counts: dict[Composition, int] = {}
    for row in reader:
        if not row:
            continue
        c = parse_composition(row[0])
        counts[c] = counts.get(c, 0) + int(row[1])
    return Dataset(space, counts)


def dataset_to_doc(dataset: Dataset) -> dict:
    return {
        "space": dataset.space.to_doc(),
        "counts": {format_composition(c): n for c, n in dataset.counts.items()},
    }


def dataset_from_doc(doc: dict) -> Dataset:
    counts = {parse_composition(key): int(n) for key, n in doc["counts"].items()}
    return Dataset(FactorSpace.from_doc(doc["space"]), counts)
