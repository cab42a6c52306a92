"""Reference forms that the tests replay facil's array code against.

Each is the definition in its plainest form, kept out of the package: only
the tests call it.  The spans and the set-based compositionality check work
on compositions (tuples of level indices) rather than flat cells or grids;
``_cell_uniforms`` is the float view of the rollout kernel's Philox words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from facil.oracle import _CHUNK_CELLS, _philox_words
from facil.spaces import Composition


def hypercube_span(s: Composition, d: Composition) -> set[Composition]:
    """All compositions whose per-dimension coordinate comes from {s_m, d_m}.

    Size is 2^(number of differing dimensions); always contains s and d.
    """
    if len(s) != len(d):
        raise ValueError(f"compositions {s} and {d} live in different spaces")
    choices = [(a,) if a == b else (a, b) for a, b in zip(s, d)]
    return set(product(*choices))


def _cell_uniforms(seed: int, tag: int, index: np.ndarray, draws: int) -> np.ndarray:
    """A (len(index), draws) array of uniforms; row r starts cell index[r]'s stream.

    Each draw d of ``_philox_words`` as d * 2**-53, the way ``Generator.random`` reads a word.
    """
    out = np.empty((len(index), draws))
    block = np.empty((6, 2, -(-draws // 4) * min(len(index), _CHUNK_CELLS)), dtype=np.uint64)
    for start, stop, a, b in _philox_words(seed, tag, index, draws, block):
        words = np.stack((a[0], b[0], a[1], b[1]), axis=-1).transpose(1, 0, 2)
        out[start:stop] = words.reshape(stop - start, -1)[:, :draws] * 2.0**-53
    return out


# The compositionality check as sets of compositions, kept as it stood before
# the check moved to bool grids.  The marking rule is its own copy here, so a
# change to curation's rule shows up against it.


def _above_tau(rates: np.ndarray, tau: float) -> np.ndarray:
    """Flat mask of the cells whose rate is strictly above tau; tau and the rates lie in [0, 1]."""
    values = rates.reshape(-1)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if not bool(np.all(values >= 0.0) and np.all(values <= 1.0)):
        raise ValueError("tensor is not a success-rate tensor (values outside [0, 1])")
    return values > tau


def empirical_orbit(rates: np.ndarray, tau: float) -> frozenset[Composition]:
    """Compositions whose measured success rate (a grid) is strictly above tau."""
    above = _above_tau(rates, tau)  # flat, row-major as np.ndindex walks the grid
    return frozenset(c for c, keep in zip(np.ndindex(rates.shape), above) if keep)


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


@dataclass(frozen=True)
class CompositionalityReport:
    """Product-closure predictions checked against measured success."""

    predicted: frozenset[Composition]
    empirical: frozenset[Composition]
    violations: tuple[Composition, ...]
    pair_counts: Mapping[tuple[int, int], int]

    @property
    def predicted_size(self) -> int:
        return len(self.predicted)

    @property
    def empirical_size(self) -> int:
        return len(self.empirical)


def compositionality_check(
    train: set[Composition] | frozenset[Composition],
    rates: np.ndarray,
    tau: float,
) -> CompositionalityReport:
    """Which compositions does the factor design promise but not deliver?

    Predicted compositions are the product closure of the training support;
    empirical ones are those whose measured (or exact) success rate is
    strictly above tau, the curation loop's marking rule.
    Each violation increments every dimension pair whose level pair never
    occurs together in the training set, attributing the failure to
    unverified pairwise interactions.
    """
    if not train:
        raise ValueError("training support must be non-empty")
    shape = rates.shape
    train = frozenset(map(tuple, train))
    for c in train:
        if len(c) != len(shape) or not all(0 <= v < n for v, n in zip(c, shape)):
            raise ValueError(f"composition {c} is not a cell of a grid of shape {shape}")

    predicted = product_closure(train)
    empirical = empirical_orbit(rates, tau)
    violations = tuple(sorted(predicted - empirical))  # lexicographic is row-major order

    seen_pairs: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for m in range(len(shape)):
        for n in range(m + 1, len(shape)):
            seen_pairs[(m, n)] = {(c[m], c[n]) for c in train}
    pair_counts = {key: 0 for key in seen_pairs}
    for comp in violations:
        for (m, n), seen in seen_pairs.items():
            if (comp[m], comp[n]) not in seen:
                pair_counts[(m, n)] += 1
    return CompositionalityReport(
        predicted=frozenset(predicted),
        empirical=empirical,
        violations=violations,
        pair_counts=pair_counts,
    )
