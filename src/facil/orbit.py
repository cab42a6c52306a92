"""Coverage operators: thresholded orbits, hypercube spans, product closure.

An orbit keeps the cells whose rate is strictly above tau, the curation
loop's marking rule; both apply it, input checks included, by ``_above_tau``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

import numpy as np

from .spaces import Composition, Tensor, composition_labels, csv_text


def hypercube_span(s: Composition, d: Composition) -> set[Composition]:
    """All compositions whose per-dimension coordinate comes from {s_m, d_m}.

    Size is 2^(number of differing dimensions); always contains s and d.
    """
    if len(s) != len(d):
        raise ValueError(f"compositions {s} and {d} live in different spaces")
    choices = [(a,) if a == b else (a, b) for a, b in zip(s, d)]
    return set(product(*choices))


def _above_tau(rates: Tensor, tau: float) -> np.ndarray:
    """Flat mask of the cells whose rate is strictly above tau; tau and the rates lie in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if not rates.is_rates():
        raise ValueError("tensor is not a success-rate tensor (values outside [0, 1])")
    return rates.values > tau


def empirical_orbit(rates: Tensor, tau: float) -> frozenset[Composition]:
    """Compositions whose measured success rate is strictly above tau."""
    return frozenset(map(rates.space.decode, np.flatnonzero(_above_tau(rates, tau))))


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
    return csv_text(["composition_indices"], zip(composition_labels(sorted(comps))))
