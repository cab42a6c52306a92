"""Coverage operators: thresholded orbits, hypercube spans, product closure."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from .spaces import Composition, FactorSpace, Tensor, format_composition


class MarkTensor:
    """Boolean coverage mask over a space, mutated during curation."""

    def __init__(self, space: FactorSpace, marked: np.ndarray | None = None):
        self.space = space
        if marked is None:
            self.marked = np.zeros(space.cardinality, dtype=bool)
        else:
            marked = np.asarray(marked, dtype=bool).reshape(-1)
            if marked.size != space.cardinality:
                raise ValueError(
                    f"mask has {marked.size} entries for cardinality {space.cardinality}"
                )
            self.marked = marked.copy()

    def is_marked(self, c: Composition) -> bool:
        return bool(self.marked[self.space.encode(c)])

    def mark(self, c: Composition) -> bool:
        """Mark one composition; True if it was previously unmarked."""
        idx = self.space.encode(c)
        was_new = not self.marked[idx]
        self.marked[idx] = True
        return was_new

    def mark_all(self, comps: Iterable[Composition]) -> int:
        return sum(self.mark(c) for c in comps)

    def mark_spans(self, s: Composition, support: Iterable[Composition]) -> int:
        """Mark s and its hypercube span with each support point; count new marks.

        Same cells as ``mark(s)`` then ``mark_all(hypercube_span(s, d))`` for
        every d, with one block assignment per support point.
        """
        s = self.space.validate(s)
        grid = self.marked.reshape(self.space.shape)
        before = np.count_nonzero(self.marked)
        grid[s] = True
        for d in support:
            grid[np.ix_(*[(a,) if a == b else (a, b) for a, b in zip(s, d)])] = True
        return int(np.count_nonzero(self.marked) - before)

    def all_marked(self) -> bool:
        return bool(self.marked.all())

    def unmarked_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.marked)


def hypercube_span(s: Composition, d: Composition) -> set[Composition]:
    """All compositions whose per-dimension coordinate comes from {s_m, d_m}.

    Size is 2^(number of differing dimensions); always contains s and d.
    """
    if len(s) != len(d):
        raise ValueError(f"compositions {s} and {d} live in different spaces")
    choices = [(a,) if a == b else (a, b) for a, b in zip(s, d)]
    return set(product(*choices))


def empirical_orbit(rates: Tensor, tau: float, strict: bool = True) -> frozenset[Composition]:
    """Compositions whose measured success rate clears the threshold.

    Strict '>' matches the curation loop's marking rule; the non-strict
    variant is exposed for sensitivity studies only.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if not rates.is_rates():
        raise ValueError("tensor is not a success-rate tensor (values outside [0, 1])")
    if strict:
        hits = np.flatnonzero(rates.values > tau)
    else:
        hits = np.flatnonzero(rates.values >= tau)
    return frozenset(rates.space.decode(int(i)) for i in hits)


def product_closure(comps: Iterable[Composition]) -> set[Composition]:
    """Cartesian product of per-dimension observed level sets.

    Equals the fixed point of repeated pairwise hypercube spans: idempotent,
    monotone, and a superset of its input.
    """
    comps = list(comps)
    if not comps:
        raise ValueError("product closure of an empty set is undefined")
    width = len(comps[0])
    if any(len(c) != width for c in comps):
        raise ValueError("compositions must share one space")
    per_dim = [sorted({c[m] for c in comps}) for m in range(width)]
    return set(product(*per_dim))


def orbit_to_csv(comps: Iterable[Composition]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["composition_indices"])
    for c in sorted(comps):
        writer.writerow([format_composition(c)])
    return buf.getvalue()
