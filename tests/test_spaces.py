"""Factor space construction, codecs, presets, and reduced products."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest

from facil.spaces import (
    SLOT_SEP,
    FactorDimension,
    FactorSpace,
    PRESET_NAMES,
    build_space,
    diagonal_init,
    format_composition,
    new_factor_subspace,
    parse_composition,
    preset_space,
    product_space,
    reduced_product,
    slot_cells,
)


def small_space() -> FactorSpace:
    return build_space([("color", ["red", "green", "blue"]), ("shape", ["round", "flat"])])


def test_dimension_rejects_empty_and_duplicate_labels():
    with pytest.raises(ValueError):
        FactorDimension("color", ())
    with pytest.raises(ValueError):
        FactorDimension("color", ("red", "red"))


def test_space_rejects_duplicate_dimension_names():
    dim = FactorDimension("color", ("red", "green"))
    with pytest.raises(ValueError):
        FactorSpace((dim, dim))


def test_shape_ndim_cardinality():
    space = small_space()
    assert space.shape == (3, 2)
    assert space.ndim == 2
    assert space.cardinality == 6


def test_cells_and_unravel_index_round_trip_row_major():
    space = build_space(
        [("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"]), ("c", ["c0", "c1"])]
    )
    comps = list(itertools.product(range(2), range(3), range(2)))
    assert space.cells(comps).tolist() == list(range(12))
    for idx, comp in enumerate(comps):
        assert space.cells([comp]).tolist() == [idx]
        assert np.unravel_index(idx, space.shape) == comp


def test_cells_rejects_bad_compositions():
    space = small_space()
    with pytest.raises(ValueError):
        space.cells([(0,)])
    with pytest.raises(ValueError):
        space.cells([(3, 0)])
    with pytest.raises(ValueError):
        space.cells([(0, -1)])
    assert space.cells([(2, 1)]).tolist() == [5]
    assert space.cells([(np.int64(2), True)]).tolist() == [5]
    # each of these used to be truncated (or parsed) to a valid cell
    with pytest.raises(ValueError, match="^composition: must be an integer, got 1.5"):
        space.cells([(1.5, 1)])
    with pytest.raises(ValueError, match="^composition: must be an integer, got '1'"):
        space.cells([("1", 0)])
    with pytest.raises(ValueError, match="^support: must be an integer, got 0.5"):
        reduced_product([((0.5, 1), 1.0)], space)


def test_cells_matches_ravel_multi_index_and_rejects_bad_entries():
    rng = np.random.default_rng(15)
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 5)))
        space = build_space([(f"d{m}", [str(v) for v in range(n)]) for m, n in enumerate(shape)])
        points = rng.integers(0, shape, size=(int(rng.integers(0, 12)), len(shape)))
        comps = [tuple(p) for p in points.tolist()]
        expected = np.ravel_multi_index(tuple(points.T), shape)
        assert np.array_equal(space.cells(comps), expected)
        assert np.array_equal(space.cells(points), expected)
        assert [int(space.cells([c])[0]) for c in comps] == expected.tolist()
        # one bad composition among valid ones; a second bad one after it is not the one named
        row, m = int(rng.integers(0, len(comps) + 1)), int(rng.integers(0, len(shape)))
        good = tuple(int(v) for v in rng.integers(0, shape))
        bad_entries = [  # out of range, negative, float, integral float, string, past int64
            (shape[m] + int(rng.integers(0, 3)), "out of range"),
            (-1 - int(rng.integers(0, 3)), "out of range"),
            (good[m] + 0.5, "^composition: must be an integer"),
            (float(good[m]), "^composition: must be an integer"),
            (str(good[m]), "^composition: must be an integer"),
            (2**70, "out of range"),
        ]
        for value, message in bad_entries:
            bad = good[:m] + (value,) + good[m + 1 :]
            if message == "out of range":
                message = f"^composition \\({', '.join(map(str, bad))},?\\): index {value} out of range"
            with pytest.raises(ValueError, match=message):
                space.cells(comps[:row] + [bad] + comps[row:] + [(-1,) * len(shape)])
        for bad in (good + (0,), good[:-1]):
            message = f"^composition \\({', '.join(map(str, bad))},?\\) has {len(bad)} entries"
            with pytest.raises(ValueError, match=message):
                space.cells(comps[:row] + [bad] + comps[row:] + [(0,) * (len(shape) + 2)])
        for width in (len(shape) - 1, len(shape) + 1):  # an array of rows too short or too long
            with pytest.raises(ValueError, match=f"has {width} entries, space has {len(shape)} dims"):
                space.cells(np.zeros((len(comps) + 1, width), np.int64))
        # one composition not in a list, a 0-d array, a 3-D array
        for bad in (np.array(good), np.array(good[0]), np.zeros((2, 1, len(shape)), np.int64)):
            message = f"composition array of shape {bad.shape} is not (n, {len(shape)})"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                space.cells(bad)
        assert space.cells(np.zeros((0,), np.int64)).tolist() == []  # an empty array is no composition
    # a uint64 entry past int64 is named with its composition too
    space = build_space([("a", ["0", "1", "2"]), ("b", ["0", "1"])])
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match=f"^composition \\(1, {big}\\): index {big} out of range"):
            space.cells(np.array([[0, 1], [1, big]], np.uint64))


def test_preset_shapes():
    expected = {
        "pnp_object": (4, 4),
        "oc_object": (4, 3),
        "pnp_action": (4, 2, 3),
        "oc_action": (4, 2),
        "environment": (3, 3),
    }
    assert set(PRESET_NAMES) == set(expected)
    for name, shape in expected.items():
        assert preset_space(name).shape == shape


def test_unknown_preset_errors():
    with pytest.raises(ValueError, match="unknown preset"):
        preset_space("warehouse")


def test_diagonal_init_square_grid_is_plain_diagonal():
    space = preset_space("pnp_object")
    assert diagonal_init(space) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_diagonal_init_wraps_on_uneven_grids():
    space = preset_space("pnp_action")  # 4x2x3
    init = diagonal_init(space)
    assert init == [(0, 0, 0), (1, 1, 1), (2, 0, 2), (3, 1, 0)]
    # every level of every dimension is covered at least once
    for m, size in enumerate(space.shape):
        assert {c[m] for c in init} == set(range(size))


def test_reduced_product_slot_labels_and_ratios():
    base = small_space()
    nxt = build_space([("temp", ["cold", "hot"])])
    support = [((0, 1), 0.25), ((2, 0), 0.75)]
    reduced = reduced_product(support, nxt)

    assert reduced.dims[0].name == "slot"
    assert reduced.dims[0].levels == (
        SLOT_SEP.join(["0", "1"]),
        SLOT_SEP.join(["2", "0"]),
    )
    assert reduced.dims[1].name == "temp"
    assert reduced.shape == (2, 2)
    assert reduced.slot_ratios == (0.25, 0.75)
    assert reduced.slot_bases.tolist() == [[0, 1], [2, 0]]
    assert reduced.slot_bases is reduced.slot_bases  # parsed once, then kept
    with pytest.raises(ValueError):
        reduced.slot_bases[0, 0] = 1
    with pytest.raises(ValueError, match="no slot dimension"):
        base.slot_bases
    assert new_factor_subspace(reduced).shape == (2,)
    assert new_factor_subspace(reduced).dims[0].name == "temp"
    with pytest.raises(ValueError, match="^space has no slot dimension with ratios$"):
        new_factor_subspace(base)


def test_slot_bases_name_the_first_label_that_is_not_level_indices():
    temp = FactorDimension("temp", ("cold", "hot"))
    for labels, bad in [(("a", "b"), "a"), (("0/1", "2"), "2"), (("0/1", "0/-1"), "0/-1"), (("0/1", "0/1 "), "0/1 ")]:
        space = FactorSpace((FactorDimension("inherited", labels), temp), slot_ratios=(0.5, 0.5))
        with pytest.raises(ValueError, match=f"^slot dimension 'inherited': label '{bad}' is not "):
            space.slot_bases
    space = FactorSpace((FactorDimension("inherited", ("3", "10")), temp), slot_ratios=(0.5, 0.5))
    assert space.slot_bases.tolist() == [[3], [10]]


def test_slot_cells_are_world_cells_in_slot_order():
    base = small_space()
    nxt = build_space([("temp", ["cold", "hot"])])
    world = product_space(base, nxt)
    reduced = reduced_product([((2, 0), 0.25), ((0, 1), 0.75)], nxt)
    got = slot_cells(reduced, world)
    expected = [world.cells([b + (t,) for t in range(2)]).tolist() for b in [(2, 0), (0, 1)]]
    assert got.dtype == np.int64 and got.tolist() == expected

    two_colors = build_space([("color", ["red", "green"]), ("shape", ["round", "flat"])])
    too_small = product_space(two_colors, nxt)
    wider_new = product_space(base, build_space([("temp", ["cold", "warm", "hot"])]))
    for bad in (too_small, wider_new, base, nxt):
        with pytest.raises(ValueError):
            slot_cells(reduced, bad)
    with pytest.raises(ValueError):
        slot_cells(world, world)  # no slot dimension


def test_slot_cells_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def grid(prefix, sizes):
        return build_space([(f"{prefix}{m}", [str(v) for v in range(n)]) for m, n in enumerate(sizes)])

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        base_shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        new_shape=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        data=st.data(),
    )
    def property_(base_shape, new_shape, data):
        base, nxt = grid("b", base_shape), grid("n", new_shape)
        world = product_space(base, nxt)
        picked = data.draw(
            st.lists(st.integers(0, base.cardinality - 1), min_size=1, unique=True), label="slots"
        )
        bases = [tuple(map(int, np.unravel_index(i, base.shape))) for i in picked]
        reduced = reduced_product([(b, 1 / len(bases)) for b in bases], nxt)
        got = slot_cells(reduced, world)
        assert got.shape == (len(bases), nxt.cardinality)
        for j, b in enumerate(bases):
            assert got[j].tolist() == world.cells([b + c for c in np.ndindex(nxt.shape)]).tolist()

    property_()


def test_reduced_product_preserves_support_order():
    nxt = build_space([("temp", ["cold", "hot"])])
    a = reduced_product([((0, 1), 0.5), ((2, 0), 0.5)], nxt)
    b = reduced_product([((2, 0), 0.5), ((0, 1), 0.5)], nxt)
    # slot order is the caller's support order; callers sort by linear index
    assert a.dims[0].levels == ("0/1", "2/0")
    assert b.dims[0].levels == ("2/0", "0/1")


def test_reduced_product_rejects_duplicate_or_ragged_support():
    nxt = build_space([("temp", ["cold", "hot"])])
    with pytest.raises(ValueError):
        reduced_product([((0, 1), 0.5), ((0, 1), 0.5)], nxt)
    with pytest.raises(ValueError):
        reduced_product([((0, 1), 0.5), ((2,), 0.5)], nxt)


def test_reduced_product_rejects_bad_inputs():
    nxt = build_space([("temp", ["cold", "hot"])])
    with pytest.raises(ValueError):
        reduced_product([], nxt)
    with pytest.raises(ValueError):
        reduced_product([((0, 0), 0.4), ((1, 1), 0.4)], nxt)  # ratios must sum to 1
    with pytest.raises(ValueError):
        reduced_product([((0, 0), 1.5), ((1, 1), -0.5)], nxt)


def test_slot_ratios_must_be_finite_and_positive():
    nxt = build_space([("temp", ["cold", "hot"])])
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            reduced_product([((0, 0), bad), ((1, 1), 1.0)], nxt)
    # a space document read from a file: json.loads accepts the NaN literal
    doc = reduced_product([((0, 0), 0.5), ((1, 1), 0.5)], nxt).to_doc()
    text = json.dumps(doc).replace("[0.5, 0.5]", "[NaN, 1.0]")
    with pytest.raises(ValueError, match="finite and positive"):
        FactorSpace.from_doc(json.loads(text))
    # one ratio per slot level
    with pytest.raises(ValueError, match="^slot_ratios has 3 entries for 2 slot levels$"):
        FactorSpace.from_doc(dict(doc, slot_ratios=[0.2, 0.3, 0.5]))


def test_product_space_concatenates_dimensions():
    world = product_space(preset_space("pnp_object"), preset_space("pnp_action"))
    assert world.shape == (4, 4, 4, 2, 3)
    assert [d.name for d in world.dims] == ["texture", "geometry", "x", "y", "yaw"]


def test_space_json_round_trip_preserves_slot_ratios():
    base = small_space()
    nxt = build_space([("temp", ["cold", "hot"])])
    reduced = reduced_product([((0, 0), 0.5), ((1, 1), 0.5)], nxt)
    for space in (base, reduced):
        again = FactorSpace.from_doc(json.loads(json.dumps(space.to_doc())))
        assert again == space
        assert again.slot_ratios == space.slot_ratios


def test_grid_numpy_cannot_size_is_rejected():
    def dims(first, count):
        return [(f"d{i}", [str(v) for v in range(10**4)]) for i in range(first, first + count)]

    with pytest.raises(ValueError, match="too large for numpy"):
        build_space(dims(0, 5))
    # each factor is 10**8 or 10**12 cells; their 10**20-cell product is refused
    with pytest.raises(ValueError, match="too large for numpy"):
        product_space(build_space(dims(0, 2)), build_space(dims(2, 3)))


def test_composition_text_round_trip():
    assert format_composition((3, 0, 2)) == "3/0/2"
    assert parse_composition("3/0/2") == (3, 0, 2)
    with pytest.raises(ValueError):
        parse_composition("3/x/2")
    with pytest.raises(ValueError):
        parse_composition("")
