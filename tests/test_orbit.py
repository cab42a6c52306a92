"""Orbit thresholding, hypercube spans, and product closure."""

from __future__ import annotations

import numpy as np
import pytest

from facil.orbit import (
    empirical_orbit,
    hypercube_span,
    orbit_to_csv,
    product_closure,
)
from facil.spaces import Tensor, build_space


def space2x3():
    return build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"])])


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
    rates = Tensor(space, np.array([0.0, 0.8, 0.81, 1.0, 0.5, 0.79]))
    orbit = empirical_orbit(rates, 0.8)
    # strictly above tau only: the exact-tau cell stays out
    assert orbit == frozenset({space.decode(2), space.decode(3)})


def test_empirical_orbit_validates_inputs():
    space = space2x3()
    with pytest.raises(ValueError):
        empirical_orbit(Tensor(space, np.full(6, 0.5)), 1.5)
    with pytest.raises(ValueError):
        empirical_orbit(Tensor(space, np.full(6, 2.0)), 0.5)


def test_product_closure_small_example():
    closure = product_closure([(0, 0), (1, 1)])
    assert closure == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # already a product set: closure is the identity
    assert product_closure(closure) == closure


def test_product_closure_superset_and_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        comps = {
            tuple(int(v) for v in rng.integers(0, 4, size=n))
            for _ in range(int(rng.integers(1, 6)))
        }
        closure = product_closure(comps)
        assert comps <= closure
        assert product_closure(closure) == closure


def test_product_closure_matches_per_dim_projection():
    comps = [(0, 2, 1), (3, 2, 1), (0, 0, 1)]
    closure = product_closure(comps)
    assert closure == {(a, b, 1) for a in (0, 3) for b in (0, 2)}


def test_product_closure_validates():
    with pytest.raises(ValueError):
        product_closure([])
    with pytest.raises(ValueError):
        product_closure([(0, 0), (0, 0, 0)])


def test_orbit_csv_sorted():
    text = orbit_to_csv({(1, 0), (0, 2)})
    assert text.splitlines() == ["composition_indices", "0/2", "1/0"]
