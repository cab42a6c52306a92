"""Coverage operators: thresholded orbits, hypercube spans, product closure."""

from __future__ import annotations

from itertools import product
from typing import Iterable

import numpy as np

from .spaces import Composition, Tensor, csv_text, format_composition


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
    hits = rates.grid > tau if strict else rates.grid >= tau
    return frozenset(map(tuple, np.argwhere(hits).tolist()))


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
    return csv_text(["composition_indices"], ([format_composition(c)] for c in sorted(comps)))
