"""Aggregated scoring and the batch-emitting expansion loop."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from facil import curation
from facil.curation import CurationTrace, aggregated_tensor, curate_expansion
from facil.dataset import Dataset
from facil.spaces import build_space
from reference import hypercube_span


def grid_space(shape):
    return build_space(
        [(f"d{m}", [f"d{m}_{v}" for v in range(size)]) for m, size in enumerate(shape)]
    )


def brute_force_scores(grid: np.ndarray) -> np.ndarray:
    """Direct slab-sum definition, one python loop per cell."""
    n = grid.ndim
    out = np.zeros_like(grid)
    for idx in itertools.product(*(range(s) for s in grid.shape)):
        total = 0.0
        for other in itertools.product(*(range(s) for s in grid.shape)):
            shared = sum(1 for a, b in zip(idx, other) if a == b)
            if other == idx:
                total += n * grid[other]
            else:
                total += shared * grid[other]
        out[idx] = total - (n - 1) * grid[idx]
    return out


def batch_compositions(space, batches):
    """The composition of each batch of a ``DemoBatches``, in order."""
    return list(zip(*(axis.tolist() for axis in np.unravel_index(batches.cells, space.shape))))


def test_aggregated_tensor_2x2_by_hand():
    scores = aggregated_tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert scores[(0, 0)] == 6.0  # row 3 + col 4 - 1
    assert scores[(0, 1)] == 7.0
    assert scores[(1, 0)] == 8.0
    assert scores[(1, 1)] == 9.0


def test_aggregated_tensor_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ndim = int(rng.integers(2, 5))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(ndim))
        grid = rng.random(shape)
        got = aggregated_tensor(grid)
        want = brute_force_scores(grid)
        assert np.max(np.abs(got - want)) < 1e-12


def test_no_expansion_when_everything_clears_tau():
    space = grid_space((2, 2))
    rates = np.full(space.shape, 0.9)
    d = Dataset(space, {(0, 0): 5})
    batches, after, trace = curate_expansion(rates, d, 0.8, 10)
    assert len(batches) == 0
    assert after == d
    assert trace.steps == ()


def test_single_selection_spans_whole_grid():
    space = grid_space((2, 2))
    rates = np.zeros(space.shape)
    d = Dataset(space, {(0, 0): 5, (1, 1): 5})
    batches, after, trace = curate_expansion(rates, d, 0.5, 10)

    # uniform scores tie; the smallest linear index wins
    assert batch_compositions(space, batches) == [(0, 0)]
    assert trace.steps[0].selected == (0, 0)
    # span against support cell (1, 1) marks the whole 2x2 grid
    assert trace.steps[0].newly_marked == 4
    assert after.grid[0, 0] == 15
    assert after.total == d.total + 10


def test_tie_break_and_span_order_on_a_line():
    space = grid_space((4,))
    rates = np.array([0.4, 0.2, 0.2, 0.3])
    d = Dataset(space, {(3,): 1})
    batches, after, trace = curate_expansion(rates, d, 0.5, 2)

    # 1D scores equal the rates; ties pick the smaller index first
    assert [s.selected for s in trace.steps] == [(1,), (2,), (0,)]
    assert [s.s_value for s in trace.steps] == [0.2, 0.2, 0.4]
    # step 0 marks (1,) and, through the span against (3,), also (3,)
    assert trace.steps[0].newly_marked == 2
    assert trace.steps[1].newly_marked == 1
    assert after.total == d.total + 3 * 2


def test_batches_fold_into_returned_dataset():
    rng = np.random.default_rng(9)
    space = grid_space((3, 3))
    rates = rng.random(space.shape) * 0.5
    d = Dataset(space, {(0, 0): 4, (1, 2): 4})
    batches, after, trace = curate_expansion(rates, d, 0.6, 7)
    assert after.total == d.total + 7 * len(batches)
    for step, composition, count in zip(
        trace.steps, batch_compositions(space, batches), batches.counts.tolist()
    ):
        assert step.selected == composition
        assert step.batch_size == count == 7
    assert len(trace.steps) <= space.cardinality


def test_curation_is_deterministic():
    rng = np.random.default_rng(13)
    space = grid_space((3, 2, 2))
    rates = rng.random(space.shape)
    d = Dataset(space, {(0, 0, 0): 3})
    first = curate_expansion(rates, d, 0.7, 5)
    second = curate_expansion(rates, d, 0.7, 5)
    assert np.array_equal(first[0].cells, second[0].cells)
    assert np.array_equal(first[0].counts, second[0].counts)
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_curation_validates_inputs():
    space = grid_space((2, 2))
    other = grid_space((2, 3))
    rates = np.zeros(space.shape)
    d = Dataset(other, {})
    with pytest.raises(ValueError):
        curate_expansion(rates, d, 0.5, 10)
    d2 = Dataset(space, {})
    with pytest.raises(ValueError):
        curate_expansion(rates, d2, 0.5, 0)
    with pytest.raises(ValueError):
        curate_expansion(rates, d2, 1.5, 10)
    with pytest.raises(ValueError, match="^cells, scores and newly_marked differ in length$"):
        CurationTrace((2, 2), [0, 3], [0.5], [1, 1], 10)


def test_curation_rejects_a_rate_grid_of_another_shape():
    """Rates are a grid of the dataset's shape: a flat array of the right size is not one."""
    d = Dataset(grid_space((2, 3)), {})
    for rates in (np.zeros(6), np.zeros((3, 2)), np.zeros((2, 2))):
        message = f"rate tensor shape {rates.shape} does not match dataset space (2, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curate_expansion(rates, d, 0.5, 10)


def replay_curation(rates: np.ndarray, dataset: Dataset, tau: float) -> list[tuple]:
    """The marking loop by its definition: marks are a set, spans come from hypercube_span."""
    scores = aggregated_tensor(rates).reshape(-1)
    cells = list(itertools.product(*(range(size) for size in rates.shape)))
    marked = {c for c, rate in zip(cells, rates.reshape(-1)) if rate > tau}
    support = set(dataset.support)
    steps = []
    while len(marked) < len(cells):
        # min keeps the first of equal scores, so ties go to the smallest linear index
        idx = min((i for i, c in enumerate(cells) if c not in marked), key=scores.__getitem__)
        selected = cells[idx]
        new = {selected}.union(*(hypercube_span(selected, d) for d in support)) - marked
        marked |= new
        support.add(selected)
        steps.append((selected, float(scores[idx]), len(new)))
    return steps


SUPPORT_KINDS = ["empty", "sparse", "diagonal"]
GRID_CASES = ["binary_10d", "levels_4d", "all_tied"]


def cases_in_4_to_6_dims(support_kind):
    """Eight (rates, dataset) cases of 4 to 6 dims with the given kind of support."""
    rng = np.random.default_rng({"empty": 41, "sparse": 42, "diagonal": 43}[support_kind])
    for trial in range(8):
        shape = tuple(int(v) for v in rng.integers(2, 4, size=int(rng.integers(4, 7))))
        space = grid_space(shape)
        # rates on a coarse lattice make score ties common; trial 0 ties every cell
        rates = rng.integers(0, 3, size=space.cardinality) / 2
        if trial == 0:
            rates[:] = 0.0
        if support_kind == "empty":
            counts = {}
        elif support_kind == "sparse":
            points = rng.integers(0, shape, size=(int(rng.integers(1, 4)), len(shape)))
            counts = {tuple(int(v) for v in p): 3 for p in points}
        else:
            counts = {tuple(j % size for size in shape): 2 for j in range(max(shape))}
        yield rates.reshape(shape), Dataset(space, counts)


def check_replay(rates: np.ndarray, d: Dataset) -> list[tuple]:
    """curate_expansion gives the replay's selections, scores, marks and batches."""
    batches, after, trace = curate_expansion(rates, d, 0.6, 4)
    want = replay_curation(rates, d, 0.6)
    assert [(s.selected, s.s_value, s.newly_marked) for s in trace.steps] == want
    assert batch_compositions(d.space, batches) == [s[0] for s in want]
    assert after.total == d.total + 4 * len(want)
    return want


@pytest.mark.parametrize("support_kind", SUPPORT_KINDS)
def test_curation_replays_hypercube_span_unions_in_4_to_6_dims(support_kind):
    for rates, d in cases_in_4_to_6_dims(support_kind):
        check_replay(rates, d)


def test_curation_rejects_tensors_that_are_not_rates():
    space = grid_space((2, 2))
    d = Dataset(space, {(0, 0): 1})
    message = r"tensor is not a success-rate tensor \(values outside \[0, 1\]\)"
    for bad in (np.array([0.2, np.nan, 0.1, 0.3]), np.array([0.2, 1.5, 0.1, 0.3])):
        with pytest.raises(ValueError, match=message):
            curate_expansion(bad.reshape(space.shape), d, 0.5, 1)
    # the marking rule itself: cells strictly above tau, on rates in [0, 1] only
    marked = curation._above_tau(np.array([[0.5, 0.25], [1.0, 0.0]]), 0.25)
    assert marked.tolist() == [[True, False], [True, False]]
    with pytest.raises(ValueError, match=message):
        curation._above_tau(np.full(space.shape, 1.5), 0.5)


def grid_case(case):
    """(rates, dataset) on a binary, a leveled or an all-tied grid."""
    rng = np.random.default_rng({"binary_10d": 51, "levels_4d": 52, "all_tied": 53}[case])
    if case == "binary_10d":
        # spans against a few near points are far smaller than 2**10 per row
        shape = (2,) * 10
        rates = rng.integers(0, 3, size=2**10) / 2
        points = rng.integers(0, 2, size=(3, 10))
        counts = {tuple(int(v) for v in p): 3 for p in points}
    elif case == "levels_4d":
        # support points differ from most selections on every axis
        shape = (10,) * 4
        rates = rng.integers(0, 3, size=10**4) / 2
        points = rng.integers(0, 10, size=(3, 4))
        counts = {tuple(int(v) for v in p): 3 for p in points}
    else:
        # every score ties, and the first selection marks a run of the order
        # longer than one skip block, which the second selection walks past
        shape = (2, 2, 300)
        rates = np.full(1200, 0.25)
        counts = {(1, 0, j): 1 for j in range(300)}
    space = grid_space(shape)
    return rates.reshape(shape), Dataset(space, counts)


@pytest.mark.parametrize("case", GRID_CASES)
def test_curation_replay_on_binary_leveled_and_tied_grids(case):
    want = check_replay(*grid_case(case))
    if case == "all_tied":
        assert [s[0] for s in want] == [(0, 0, 0), (0, 1, 0)]
        assert curation._SKIP_BLOCK < 300


@pytest.mark.parametrize("form", ["table", "doubling"])
def test_each_span_form_replays_every_case(form, monkeypatch):
    # forced, so each form meets every case whichever one the rule picks for its grid
    monkeypatch.setattr(curation, "_use_table", lambda shape: form == "table")
    for kind in SUPPORT_KINDS:
        for rates, d in cases_in_4_to_6_dims(kind):
            check_replay(rates, d)
    for case in GRID_CASES:
        check_replay(*grid_case(case))


@pytest.mark.parametrize(
    "shape, table",
    [
        ((10,) * 4, True),
        ((3,) * 5, True),
        ((4,) * 6, True),
        ((4,) * 9, True),
        ((4,) * 10, False),
        ((2,) * 10, False),
        ((2,) * 14, False),
    ],
)
def test_span_form_rule(shape, table):
    # the table's expected written-cell ratio to the doubling: 1.23, 2.49, 2.23, 3.33, 3.80,
    # 17.8, 56.1; the table lost on 4**10, with some 1,650 support rows of 1,024 sums
    assert curation._use_table(shape) is table


def test_span_cells_are_the_hypercube_spans_in_their_stated_count():
    rng = np.random.default_rng(54)
    for ndim in range(1, 7):
        shape = tuple(int(v) for v in rng.integers(1, 5, size=ndim))
        strides = np.array([int(np.prod(shape[m + 1 :])) for m in range(ndim)])
        s = rng.integers(0, shape)
        support = np.vstack([rng.integers(0, shape, size=(5, ndim)), s])
        cells = curation._span_cells(int(s @ strides), (support - s) * strides)
        want = {
            int(np.ravel_multi_index(c, shape))
            for t in support
            for c in hypercube_span(tuple(s.tolist()), tuple(t.tolist()))
        }
        assert set(cells.tolist()) == want
        assert len(cells) == sum(2 ** int(np.count_nonzero(s != t)) for t in support)


def test_score_order_is_the_stable_argsort():
    """Ascending score, ties by ascending index, with heavy ties and both zeros."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tied = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 3.25])
    values = tied | st.floats(allow_nan=False)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(scores=st.lists(values, min_size=1, max_size=600))
    def property_(scores):
        scores = np.array(scores)
        assert np.array_equal(curation._score_order(scores), np.argsort(scores, kind="stable"))

    property_()
    # a 10**4-cell pass whose scores take a few values, half of the zeros negative
    rng = np.random.default_rng(55)
    scores = rng.integers(0, 4, size=10**4) / 4.0
    scores[(scores == 0) & (rng.random(10**4) < 0.5)] = -0.0
    assert np.array_equal(curation._score_order(scores), np.argsort(scores, kind="stable"))
