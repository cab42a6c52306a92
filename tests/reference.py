"""Reference forms that the tests replay facil's array code against.

Each is the definition in its plainest form, on compositions (tuples of
level indices) rather than flat cells, and kept out of the package: only
the tests call it.
"""

from __future__ import annotations

from itertools import product

from facil.spaces import Composition


def hypercube_span(s: Composition, d: Composition) -> set[Composition]:
    """All compositions whose per-dimension coordinate comes from {s_m, d_m}.

    Size is 2^(number of differing dimensions); always contains s and d.
    """
    if len(s) != len(d):
        raise ValueError(f"compositions {s} and {d} live in different spaces")
    choices = [(a,) if a == b else (a, b) for a, b in zip(s, d)]
    return set(product(*choices))
