"""Dataset value semantics, ratios, marginals, and serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from facil.dataset import (
    Dataset,
    DemoBatch,
    DemoBatches,
    add_demos,
    add_many,
    dataset_from_doc,
    dataset_to_csv,
    dataset_to_doc,
    marginal_counts,
    support_and_ratios,
)
from facil.spaces import build_space


def space3x2():
    return build_space([("color", ["red", "green", "blue"]), ("shape", ["round", "flat"])])


def test_demo_batch_requires_positive_count():
    with pytest.raises(ValueError):
        DemoBatch((0, 0), 0)
    with pytest.raises(ValueError):
        DemoBatch((0, 0), -3)
    assert DemoBatch((0, 1), 5).count == 5


def test_dataset_validates_compositions_and_counts():
    space = space3x2()
    with pytest.raises(ValueError):
        Dataset(space, {(4, 0): 1})
    with pytest.raises(ValueError):
        Dataset(space, {(0, 0): -1})
    # zero-count entries are dropped from the support
    d = Dataset(space, {(0, 0): 0, (1, 1): 2})
    assert d.support == frozenset({(1, 1)})


def test_non_integral_counts_are_rejected():
    # each of these used to keep 2 demos for 2.7
    space = space3x2()
    doc = dataset_to_doc(Dataset(space, {(0, 1): 2, (2, 0): 3}))
    for bad in (2.7, 2.0, "2"):
        with pytest.raises(ValueError, match="^counts: must be an integer"):
            dataset_from_doc(dict(doc, counts={"0/1": bad, "2/0": 3}))
        with pytest.raises(ValueError, match="^counts: must be an integer"):
            Dataset(space, {(0, 1): bad})
        with pytest.raises(ValueError, match="^batch count: must be an integer"):
            DemoBatch((0, 1), bad)
    with pytest.raises(ValueError, match="^batch counts: must be an integer"):
        DemoBatches([1, 4], [2.7, 3])
    with pytest.raises(ValueError, match="^batch cells: must be an integer"):
        DemoBatches([1.7, 4], [2, 3])
    with pytest.raises(ValueError, match="^grid: must be an integer"):
        Dataset.from_grid(space, np.full(6, 2.7))
    # uint64 values past int64 are named as given, not wrapped to negative numbers
    with pytest.raises(ValueError, match=f"^grid: must be below 2\\*\\*63, got {2**63}$"):
        Dataset.from_grid(space, np.array([2**63, 0, 0, 0, 0, 0], np.uint64))
    with pytest.raises(ValueError, match=f"^batch counts: must be below 2\\*\\*63, got {2**64 - 1}$"):
        DemoBatches([1], np.array([2**64 - 1], np.uint64))
    # Python ints past int64 too, which numpy keeps as objects
    with pytest.raises(ValueError, match=f"^counts: must be below 2\\*\\*63, got {2**64}$"):
        Dataset(space, {(0, 1): 2**64})
    with pytest.raises(ValueError, match=f"^batch counts: must be below 2\\*\\*63, got {2**70}$"):
        DemoBatches([1], [2**70])
    with pytest.raises(ValueError, match=f"^batch cells: must be below 2\\*\\*63, got {2**64}$"):
        DemoBatches([2**64], [1])
    with pytest.raises(ValueError, match=f"^counts: must be at least -2\\*\\*63, got {-(2**63) - 1}$"):
        Dataset(space, {(0, 1): -(2**63) - 1})
    # compositions: these used to be truncated to (0, 1), (1, 0) and (1, 1)
    with pytest.raises(ValueError, match="^composition: must be an integer, got 0.7"):
        DemoBatch((0.7, 1), 2)
    with pytest.raises(ValueError, match="^composition: must be an integer, got 1.9"):
        Dataset(space, {(1.9, 0): 3})
    with pytest.raises(ValueError, match="^composition: must be an integer, got 1.9"):
        Dataset(space, {(0, 1): 2}).count_at((1.9, 1.2))
    # integer numpy scalars and arrays stay accepted
    expected = Dataset(space, {(0, 1): 2, (2, 0): 3})
    assert dataset_from_doc(doc) == expected
    assert Dataset(space, {(0, 1): np.int32(2), (2, 0): np.uint64(3)}) == expected
    assert Dataset.from_grid(space, np.array([0, 2, 0, 0, 3, 0], dtype=np.int8)) == expected
    assert DemoBatch((0, 1), np.int64(2)).count == 2
    assert add_many(Dataset.empty(space), DemoBatches([1, 4], np.array([2, 3]))) == expected


def test_add_demos_is_value_semantic():
    space = space3x2()
    d0 = Dataset.empty(space)
    d1 = add_demos(d0, DemoBatch((1, 0), 4))
    d2 = add_demos(d1, DemoBatch((1, 0), 6))

    assert d0.total == 0 and d0.support == frozenset()
    assert d1.count_at((1, 0)) == 4
    assert d2.count_at((1, 0)) == 10
    assert d1.count_at((1, 0)) == 4  # unchanged by the later add


def test_add_many_accumulates():
    space = space3x2()
    d = add_many(
        Dataset.empty(space),
        [DemoBatch((0, 0), 1), DemoBatch((2, 1), 2), DemoBatch((0, 0), 3)],
    )
    assert d.total == 6
    assert d.count_at((0, 0)) == 4
    assert d.support == frozenset({(0, 0), (2, 1)})
    with pytest.raises(ValueError):
        add_many(d, [DemoBatch((0, 0), 1), DemoBatch((3, 0), 1)])
    with pytest.raises(ValueError):
        add_demos(d, DemoBatch((0, 0, 0), 1))


def test_grid_is_read_only_and_counts_ascend_by_linear_index():
    space = space3x2()
    d = Dataset(space, {(2, 1): 4, (0, 1): 7, (1, 0): 2})
    assert d.grid.shape == space.shape and d.grid.dtype == np.int64
    with pytest.raises(ValueError):
        d.grid[0, 0] = 1
    with pytest.raises(ValueError):
        d.grid.reshape(-1)[0] = 1
    assert list(d.counts) == [(0, 1), (1, 0), (2, 1)]
    assert dict(d.counts) == {(0, 1): 7, (1, 0): 2, (2, 1): 4}


def test_from_grid_copies_and_validates():
    space = space3x2()
    raw = np.array([0, 7, 2, 0, 0, 4])
    d = Dataset.from_grid(space, raw)
    raw[0] = 99
    assert d == Dataset(space, {(0, 1): 7, (1, 0): 2, (2, 1): 4})
    with pytest.raises(ValueError):
        Dataset.from_grid(space, [0, -1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        Dataset.from_grid(space, np.zeros(5))


def test_totals_that_would_reach_2_to_the_63_are_rejected():
    space = space3x2()
    half = 2**62
    d = add_many(Dataset.empty(space), [DemoBatch((0, 0), half - 1), DemoBatch((1, 1), half)])
    assert d.total == 2**63 - 1
    with pytest.raises(OverflowError):
        add_demos(d, DemoBatch((2, 0), 1))
    # two batches at one cell would wrap that cell, not only the total
    with pytest.raises(OverflowError):
        add_many(Dataset.empty(space), [DemoBatch((0, 0), half), DemoBatch((0, 0), half)])
    # an int64 grid whose sum wraps to a small positive total
    with pytest.raises(OverflowError):
        Dataset.from_grid(space, [2**63 - 1, 2**63 - 1, 2, 0, 0, 0])


def test_flat_grid_follows_encode_order():
    space = space3x2()
    d = Dataset(space, {(0, 1): 7, (2, 0): 9})
    arr = d.grid.reshape(-1)
    assert arr.dtype == np.int64
    assert arr.shape == (6,)
    assert arr[space.encode((0, 1))] == 7
    assert arr[space.encode((2, 0))] == 9
    assert arr.sum() == 16


def test_support_and_ratios_ordering_and_normalization():
    space = space3x2()
    d = Dataset(space, {(2, 1): 30, (0, 0): 10, (1, 0): 60})
    support, ratios = support_and_ratios(d)
    assert support == frozenset({(0, 0), (1, 0), (2, 1)})
    assert list(ratios) == [(0, 0), (1, 0), (2, 1)]  # ascending linear index
    assert ratios[(0, 0)] == 0.1
    assert ratios[(1, 0)] == 0.6
    assert ratios[(2, 1)] == 0.3
    assert abs(sum(ratios.values()) - 1.0) < 1e-12


def test_ratios_of_empty_dataset_error():
    with pytest.raises(ValueError):
        support_and_ratios(Dataset.empty(space3x2()))


def test_marginal_counts():
    space = space3x2()
    d = Dataset(space, {(0, 0): 5, (0, 1): 2, (2, 1): 3})
    assert marginal_counts(d, 0).tolist() == [7, 0, 3]
    assert marginal_counts(d, 1).tolist() == [5, 5]
    with pytest.raises(ValueError):
        marginal_counts(d, 2)


def test_csv_round_trip():
    space = space3x2()
    d = Dataset(space, {(1, 1): 12, (0, 0): 3, (2, 0): 1})
    text = dataset_to_csv(d)
    lines = text.splitlines()
    assert lines[0] == "composition_indices,count"
    assert lines[1] == "0/0,3"  # smallest linear index first


def test_json_round_trip_carries_space():
    space = space3x2()
    d = Dataset(space, {(2, 1): 4})
    again = dataset_from_doc(json.loads(json.dumps(dataset_to_doc(d))))
    assert again == d
    assert again.space == space
