"""The empirical orbit and the product closure, read from the compositionality
check's bool grids, and the reference hypercube span.

The empirical orbit is the cells whose rate is strictly above tau (curation's
marking rule); the product closure is the product of the levels a training
set uses on each axis, the fixed point of repeated hypercube spans.
"""

from __future__ import annotations

import numpy as np
import pytest

from facil.analysis import compositionality_check
from facil.spaces import build_space
from reference import hypercube_span


def space2x3():
    return build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"])])


def closure(train, shape):
    """The check's predicted grid for a training set on a grid of this shape."""
    space = build_space([(f"d{m}", [str(v) for v in range(n)]) for m, n in enumerate(shape)])
    return compositionality_check(space.cells(list(train)), np.zeros(shape), 0.5).predicted


def cells_of(grid: np.ndarray) -> set[tuple[int, ...]]:
    return set(map(tuple, np.argwhere(grid).tolist()))


def test_hypercube_span_known_cases():
    assert hypercube_span((0, 0), (0, 0)) == {(0, 0)}
    assert hypercube_span((0, 0), (1, 1)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert hypercube_span((2, 0), (2, 3)) == {(2, 0), (2, 3)}
    span = hypercube_span((0, 1, 2), (3, 1, 0))
    assert span == {(0, 1, 2), (0, 1, 0), (3, 1, 2), (3, 1, 0)}
    with pytest.raises(ValueError):
        hypercube_span((0, 0), (0, 0, 0))


def test_hypercube_span_size_is_power_of_two():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s = tuple(int(v) for v in rng.integers(0, 4, size=n))
        d = tuple(int(v) for v in rng.integers(0, 4, size=n))
        differing = sum(1 for a, b in zip(s, d) if a != b)
        span = hypercube_span(s, d)
        assert len(span) == 2**differing
        assert s in span and d in span


def test_empirical_orbit_strict_threshold():
    space = space2x3()
    rates = np.array([[0.0, 0.8, 0.81], [1.0, 0.5, 0.79]])
    report = compositionality_check(space.cells([(0, 0)]), rates, 0.8)
    # strictly above tau only: the exact-tau cell stays out
    assert cells_of(report.empirical) == {np.unravel_index(2, space.shape), np.unravel_index(3, space.shape)}
    assert report.empirical.shape == space.shape
    assert report.empirical_size == 2
    with pytest.raises(ValueError):
        report.empirical[0, 0] = True


def test_empirical_orbit_validates_inputs():
    space = space2x3()
    for tau in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 1\]"):
            compositionality_check(space.cells([(0, 0)]), np.full(space.shape, 0.5), tau)
    for value in (2.0, -0.5, np.nan):
        with pytest.raises(ValueError, match="not a success-rate tensor"):
            compositionality_check(space.cells([(0, 0)]), np.full(space.shape, value), 0.5)


def test_product_closure_small_example():
    grid = closure({(0, 0), (1, 1)}, (2, 2))
    assert cells_of(grid) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # already a product set: closure is the identity
    assert np.array_equal(closure(cells_of(grid), (2, 2)), grid)
    with pytest.raises(ValueError):
        grid[0, 0] = False


def test_product_closure_superset_and_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        comps = {
            tuple(int(v) for v in rng.integers(0, 4, size=n))
            for _ in range(int(rng.integers(1, 6)))
        }
        grid = closure(comps, (4,) * n)
        assert comps <= cells_of(grid)
        assert np.array_equal(closure(cells_of(grid), (4,) * n), grid)


def test_product_closure_matches_per_dim_projection():
    comps = [(0, 2, 1), (3, 2, 1), (0, 0, 1)]
    assert cells_of(closure(comps, (4, 3, 2))) == {(a, b, 1) for a in (0, 3) for b in (0, 2)}


def test_product_closure_validates():
    with pytest.raises(ValueError, match="training support must be non-empty"):
        closure(set(), (2, 2))
    with pytest.raises(ValueError, match="has 3 entries, space has 2 dims"):
        closure([(0, 0), (0, 0, 0)], (2, 2))
    with pytest.raises(ValueError):
        closure([(0, 0), (0, 2)], (2, 2))
