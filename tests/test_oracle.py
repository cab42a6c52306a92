"""Synthetic policy oracle: probability model, streams, and evaluations."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from facil.dataset import Dataset, DemoBatches, InputMemoryError, add_many
from facil.oracle import (
    _CHUNK_CELLS,
    DEFAULT_BETA,
    DEFAULT_BLACKLIST,
    DEFAULT_KAPPA0,
    DEFAULT_P_MAX,
    EvaluationReport,
    OracleParams,
    _philox_words,
    _rollout_hits,
    default_family,
    default_params,
    derive_tag,
    mapped_evaluation,
    ratio_guided_evaluation,
    simulate_evaluation,
    success_at,
    success_tensor,
)
from facil.spaces import build_space, preset_space, product_space, reduced_product, slot_cells
from reference import _cell_uniforms


def plain_params(space, **overrides):
    base = dict(
        kappa0=10.0,
        beta=0.0,
        p_max=1.0,
        blacklist=frozenset(),
        seed=3,
    )
    base.update(overrides)
    return OracleParams(**base)


def test_derive_tag_is_stable_and_order_sensitive():
    assert derive_tag(7) == derive_tag(7)
    assert derive_tag(7) != derive_tag(8)
    assert derive_tag(1, 2) != derive_tag(2, 1)
    assert derive_tag() == 0x243F6A8885A308D3
    # pinned so serialized histories stay replayable across releases
    assert derive_tag(7, 1) == 13614444201623091972


def test_params_validation():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    with pytest.raises(ValueError):
        plain_params(space, kappa0=0.0)
    with pytest.raises(ValueError):
        plain_params(space, p_max=0.0)
    with pytest.raises(ValueError):
        plain_params(space, p_max=1.5)
    with pytest.raises(ValueError):
        plain_params(space, beta=-1.0)
    with pytest.raises(ValueError, match="one dimension twice"):
        plain_params(space, blacklist=frozenset({((0, 0), (0, 1))}))


def test_family_checks_constants_and_blacklist_at_construction():
    with pytest.raises(ValueError, match="kappa0: must be > 0"):
        OracleParams(kappa0=-1.0, beta=1.0, p_max=1.0, blacklist=(), seed=0)
    with pytest.raises(ValueError, match="beta: must be >= 0"):
        OracleParams(kappa0=1.0, beta=float("nan"), p_max=1.0, blacklist=(), seed=0)
    with pytest.raises(ValueError, match="one dimension twice"):
        OracleParams(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=(((1, 0), (1, 1)),), seed=0)
    # an infinite beta made NaN transfer (0 * inf) at cells with an empty marginal
    for field in ("kappa0", "beta"):
        with pytest.raises(ValueError, match=f"^{field}: must be .* finite, got inf"):
            plain_params(None, **{field: math.inf})
    # 7.5 used to become seed 7 and share its streams
    for seed in (7.5, 7.0):
        with pytest.raises(ValueError, match="^seed: must be an integer"):
            OracleParams(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=(), seed=seed)
    assert default_family(np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_seed_outside_uint64_is_rejected():
    # the streams key on the seed as one uint64, so -1 and 2**64 would alias 2**64 - 1 and 0
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed: must be in 0\.\.2\*\*64 - 1"):
            default_params(space, seed)
    for seed in (0, 2**64 - 1):
        assert default_params(space, seed).seed == seed


def test_negative_blacklist_indices_are_rejected():
    # numpy would read -1 as the last dimension or level and blacklist the wrong cells
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    for pair in (((-1, 0), (1, 0)), ((0, 0), (1, -1))):
        with pytest.raises(ValueError, match="blacklist: .* has a negative index"):
            plain_params(space, blacklist=frozenset({pair}))
        with pytest.raises(ValueError, match="blacklist: .* has a negative index"):
            OracleParams(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=(pair,), seed=0)


def test_blacklist_pairs_are_normalized():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, blacklist=frozenset({((1, 0), (0, 1))}))
    assert p.blacklist == frozenset({((0, 1), (1, 0))})
    # each entry used to be truncated: this pair was stored as ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="^blacklist: must be an integer"):
        OracleParams(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=[((0.5, 1), (1, 2.9))], seed=0)


def test_check_space_rejects_mismatches():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space)
    p.check_space(space)
    bad = plain_params(space, blacklist=frozenset({((0, 0), (1, 5))}))
    with pytest.raises(ValueError, match="invalid for shape"):
        bad.check_space(space)


def test_params_json_round_trip():
    space = preset_space("pnp_object")
    p = default_params(space, 42)
    assert OracleParams(**json.loads(json.dumps(p.to_doc()))) == p


def test_family_instantiates_per_space():
    family = default_family(9)
    pnp = family.params_for(preset_space("pnp_object"))
    assert pnp.blacklist == frozenset(DEFAULT_BLACKLIST)
    assert (pnp.kappa0, pnp.beta, pnp.p_max) == (DEFAULT_KAPPA0, DEFAULT_BETA, DEFAULT_P_MAX)

    # oc_action is 4x2: the pair needing level 2 on dim 1 is dropped
    oc = family.params_for(preset_space("oc_action"))
    assert oc.blacklist == frozenset({((0, 0), (1, 1)), ((0, 2), (1, 0))})

    # one-dimensional spaces cannot host any pair
    line = family.params_for(build_space([("only", ["l0", "l1", "l2"])]))
    assert line.blacklist == frozenset()

    compositional = dataclasses.replace(default_family(9), blacklist=())
    assert compositional.params_for(preset_space("pnp_object")).blacklist == frozenset()


def test_blacklist_cuts_transfer_at_matching_cells():
    space = build_space(
        [("a", ["a0", "a1"]), ("b", ["b0", "b1"]), ("c", ["c0", "c1"])]
    )
    p = plain_params(space, beta=4.0, blacklist=frozenset({((0, 1), (2, 0))}))
    d = Dataset(space, {(0, 0, 0): 1, (1, 1, 1): 1})  # every level has a demo, so every cell transfers
    probs = success_at(p, d)
    # any middle coordinate, pinned first and last: no direct demos there, so no success
    assert probs[1, 0, 0] == 0.0 and probs[1, 1, 0] == 0.0
    assert np.count_nonzero(probs == 0.0) == 2
    cells = space.cells([(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert success_at(p, d, cells).tolist() == [0.0, probs[0, 0, 0], 0.0, probs[1, 0, 1]]


def broadcast_success(params, dataset):
    """The whole-grid formula ``success_at`` replaced: a broadcast minimum and a blacklist mask."""
    space = dataset.space
    direct = dataset.grid.reshape(-1).astype(float)
    weakest = np.full(space.shape, np.inf)
    for m in range(space.ndim):
        marg = dataset.grid.sum(axis=tuple(a for a in range(space.ndim) if a != m)).astype(float)
        shape = [1] * space.ndim
        shape[m] = marg.size
        weakest = np.minimum(weakest, marg.reshape(shape))
    mask = np.zeros(space.shape, dtype=bool)
    for (da, la), (db, lb) in params.blacklist:
        index: list = [slice(None)] * space.ndim
        index[da], index[db] = la, lb
        mask[tuple(index)] = True
    with np.errstate(over="ignore"):
        transfer = params.beta * weakest.reshape(-1)
        transfer[mask.reshape(-1)] = 0.0
        energy = direct + transfer
        return np.minimum(params.p_max, 1.0 - np.exp(-energy / params.kappa0))


def test_success_at_equals_the_broadcast_formula_bit_for_bit():
    """At any cells, in any shape, and over the whole grid, compared as uint64.

    A cell's probability does not depend on where it sits in the array, so
    this also checks that numpy's ``exp`` gives each element the same bits
    wherever it falls in a vector lane.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        space = build_space([(f"d{m}", [f"l{j}" for j in range(n)]) for m, n in enumerate(shape)])
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = np.zeros(space.cardinality, dtype=np.int64)
        fill = draw(st.sampled_from(["empty", "sparse", "dense"]))
        top = draw(st.sampled_from([1, 50, 10**9]))
        if fill == "sparse":
            picked = rng.integers(0, space.cardinality, draw(st.integers(1, 4)))
            counts[picked] = rng.integers(1, top + 1, picked.size)
        elif fill == "dense":
            counts[:] = rng.integers(0, top + 1, counts.size)
        pairs = []
        for _ in range(draw(st.integers(0, 3)) if space.ndim > 1 else 0):
            da = draw(st.integers(0, space.ndim - 2))
            db = draw(st.integers(da + 1, space.ndim - 1))
            pair = ((da, draw(st.integers(0, shape[da] - 1))), (db, draw(st.integers(0, shape[db] - 1))))
            pairs.append(pair if draw(st.booleans()) else pair[::-1])
        params = plain_params(
            space,
            kappa0=draw(st.sampled_from([1e-320, 1.0, 230.0])),
            beta=draw(st.sampled_from([0.0, 1.0, 690.0, 1e308, 2**40])),  # an int beta too
            p_max=draw(st.sampled_from([1.0, 0.9]) | st.floats(0.0, 1.0, exclude_min=True)),
            blacklist=frozenset(pairs),
        )
        n = draw(st.integers(0, 20))
        cells_shape = draw(st.sampled_from([(n,), (1, n), (n // 4, 4), (n % 5, n % 3)]))
        cells = rng.integers(0, space.cardinality, cells_shape)  # repeats and any order
        return params, Dataset.from_grid(space, counts.reshape(shape)), cells

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=cases())
    def property_(case):
        params, d, cells = case
        expected = broadcast_success(params, d)
        at_cells, whole = success_at(params, d, cells), success_at(params, d)
        assert at_cells.dtype == whole.dtype == np.float64
        assert at_cells.shape == cells.shape and whole.shape == d.space.shape
        assert np.array_equal(at_cells.view(np.uint64), expected[cells].view(np.uint64))
        assert np.array_equal(whole.reshape(-1).view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(success_tensor(params, d).reshape(-1).view(np.uint64), expected.view(np.uint64))

    property_()


def test_success_at_is_exact_across_the_exponent_clamp():
    """Energy over kappa0 from 0 to past exp's underflow, in steps of 0.37 to 2.

    Below about -37.4, 1 - exp(x) rounds to 1.0, so clamping x at -700 changes
    no bit; a clamp nearer 0 would show here as a probability below 1.
    """
    space = build_space([("a", [str(j) for j in range(2001)])])
    d = Dataset.from_grid(space, np.arange(2001))
    for kappa0 in (1.0, 0.5, 1.3, 2.7):
        params = plain_params(space, kappa0=kappa0)
        got, expected = success_at(params, d), broadcast_success(params, d)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert (got < 1.0).any() and (got[-1000:] == 1.0).all()


def test_success_probability_formula():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, beta=4.0)
    d = Dataset(space, {(0, 0): 5})
    probs = success_tensor(p, d)

    # direct 5 plus transfer 4*min(5,5) at the demoed cell
    assert probs[(0, 0)] == pytest.approx(1.0 - math.exp(-(5 + 4 * 5) / 10.0))
    # (0,1): marginals a0=5, b1=0 -> weakest 0, no direct
    assert probs[(0, 1)] == 0.0
    assert probs[(1, 0)] == 0.0
    assert probs[(1, 1)] == 0.0

    def success_prob(c):
        """Scalar reference: direct demos plus transfer through the weakest marginal."""
        blocked = any(c[da] == la and c[db] == lb for (da, la), (db, lb) in p.blacklist)
        sums = [d.grid.sum(axis=tuple(a for a in range(space.ndim) if a != m)) for m in range(space.ndim)]
        weakest = min(float(sums[m][c[m]]) for m in range(space.ndim))
        energy = float(d.grid[c]) + (0.0 if blocked else p.beta * weakest)
        return min(p.p_max, 1.0 - math.exp(-energy / p.kappa0))

    for c in np.ndindex(space.shape):
        assert success_prob(c) == pytest.approx(probs[c])


def test_transfer_uses_weakest_marginal():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, beta=2.0)
    d = Dataset(space, {(0, 0): 6, (1, 0): 2})
    probs = success_tensor(p, d)
    # (1,1): min(marg_a[1]=2, marg_b[1]=0) = 0
    assert probs[(1, 1)] == 0.0
    # (0,0): direct 6 + 2*min(6, 8)
    assert probs[(0, 0)] == pytest.approx(1.0 - math.exp(-(6 + 2 * 6) / 10.0))
    # (1,0): direct 2 + 2*min(2, 8)
    assert probs[(1, 0)] == pytest.approx(1.0 - math.exp(-(2 + 2 * 2) / 10.0))


def test_blacklist_blocks_transfer_but_not_direct():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    bl = frozenset({((0, 1), (1, 1))})
    p = plain_params(space, beta=100.0, blacklist=bl)
    d = Dataset(space, {(0, 0): 50, (1, 0): 50, (0, 1): 50})
    probs = success_tensor(p, d)
    assert probs[(0, 0)] == 1.0 - math.exp(-(50 + 100 * 50) / 10.0)
    # (1,1) is blacklisted and has no direct demos: exactly zero
    assert probs[(1, 1)] == 0.0

    # direct demos at the blacklisted cell still count
    d2 = add_many(d, DemoBatches(space.cells([(1, 1)]), [30]))
    probs2 = success_tensor(p, d2)
    assert probs2[(1, 1)] == pytest.approx(1.0 - math.exp(-30 / 10.0))


def test_p_max_caps_probability():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, p_max=0.75)
    d = Dataset(space, {(0, 0): 10_000})
    assert success_tensor(p, d)[(0, 0)] == 0.75


def test_energy_past_float_range_gives_p_max_without_a_numpy_warning():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    d = Dataset(space, {(0, 0): 3})  # every other cell has no demos and an empty marginal
    for overrides in ({"kappa0": 1e-320}, {"beta": 1e308}, {"kappa0": 1e-320, "beta": 1e308}):
        probs = success_tensor(plain_params(space, p_max=0.9, **overrides), d)
        assert probs.tolist() == [[0.9, 0.0], [0.0, 0.0]]


def test_one_demo_per_level_saturates_default_transfer():
    """beta = 3*kappa0: a single demo through a level already clears 0.95."""
    space = preset_space("pnp_object")
    params = dataclasses.replace(default_family(0), blacklist=()).params_for(space)
    d = Dataset(space, {(i, i): 1 for i in range(4)})
    probs = success_tensor(params, d)
    off_diag = probs[(0, 1)]
    assert off_diag == pytest.approx(1.0 - math.exp(-3.0))
    assert off_diag > 0.95


def test_simulate_evaluation_reports_consistent_counts():
    space = preset_space("pnp_object")
    params = default_params(space, 7)
    d = Dataset(space, {(i, i): 50 for i in range(4)})
    report = simulate_evaluation(params, d, space, k=8, iteration_tag=5)
    assert report.k == 8
    assert report.total_rollouts == space.cardinality * 8
    assert np.all(report.successes >= 0) and np.all(report.successes <= 8)
    assert np.allclose(report.rates.reshape(-1), report.successes / 8)
    assert report.overall == pytest.approx(float(report.rates.mean()))


def test_per_cell_grids_are_read_only():
    """success_tensor and a report's rates are read-only float grids of the space's shape."""
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"])])
    params = plain_params(space)
    d = Dataset(space, {(0, 0): 3, (1, 2): 30})
    report = simulate_evaluation(params, d, space, k=4)
    for grid in (success_tensor(params, d), report.rates):
        assert grid.shape == space.shape and grid.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.5
    assert np.array_equal(report.rates, (report.successes / 4).reshape(space.shape))
    assert report.rates is not report.rates  # computed on each read, so never stale


def test_per_cell_grids_are_not_copied():
    """On 20**4 cells each read peaks under 1.5x its grid's bytes; one more copy would be 2x."""
    space = build_space([(f"d{m}", [str(v) for v in range(20)]) for m in range(4)])
    rng = np.random.default_rng(5)
    params = dataclasses.replace(plain_params(space), beta=1.0)
    d = Dataset.from_grid(space, rng.integers(0, 3, space.shape))
    report = EvaluationReport(space, rng.integers(0, 6, space.cardinality), 5)
    for read in (lambda: success_tensor(params, d), lambda: report.rates):
        read()  # anything a first read builds and keeps is not part of the read
        tracemalloc.start()
        try:
            grid = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == space.shape
        assert peak < 1.5 * grid.nbytes, f"peak {peak / grid.nbytes:.2f}x the grid's bytes"


def test_simulate_evaluation_rejects_shape_mismatch():
    space = preset_space("pnp_object")
    params = default_params(space, 7)
    d = Dataset(space)
    with pytest.raises(ValueError):
        simulate_evaluation(params, d, preset_space("environment"), k=2)
    with pytest.raises(ValueError):
        simulate_evaluation(params, d, space, k=0)


@pytest.mark.parametrize("draws", [1, 3, 4, 5, 8, 10, 20])
def test_cell_uniforms_match_numpy_philox(draws):
    top = 2**64 - 1
    sizes = [1, _CHUNK_CELLS - 1, _CHUNK_CELLS, _CHUNK_CELLS + 1]
    for seed in (0, 7, top):
        for tag in (0, 7, top):
            # uint64 arrays: numpy reads the list [0, 2**64 - 1] as float64.
            key = np.array([seed, tag], dtype=np.uint64)
            expected = np.array([
                np.random.Generator(
                    np.random.Philox(key=key, counter=np.array([0, i, 0, 0], dtype=np.uint64))
                ).random(draws)
                for i in range(max(sizes))
            ])
            for cells in sizes:
                got = _cell_uniforms(seed, tag, np.arange(cells), draws)
                assert got.shape == (cells, draws)
                assert np.array_equal(got, expected[:cells]), (seed, tag, cells)


def test_rollout_paths_build_no_numpy_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rollout path built a numpy bit generator")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    base = preset_space("pnp_object")
    nxt = build_space([("temp", ["cold", "hot"])])
    world = build_space(
        [("texture", list(base.dims[0].levels)), ("geometry", list(base.dims[1].levels)),
         ("temp", ["cold", "hot"])]
    )
    reduced = reduced_product([((0, 0), 0.25), ((1, 1), 0.75)], nxt)
    params = plain_params(world, seed=2**64 - 1)
    d = Dataset(world, {(0, 0, 0): 7, (1, 1, 1): 7})
    tag = 2**64 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_evaluation(params, d, world, k=7, iteration_tag=tag)
        mapped_evaluation(params, d, reduced, k=7, iteration_tag=tag)
        ratio_guided_evaluation(params, d, reduced, k=7, iteration_tag=tag)


def test_rollouts_are_deterministic_and_thread_invariant():
    space = preset_space("pnp_object")
    params = default_params(space, 11)
    d = Dataset(space, {(0, 0): 20, (1, 2): 35})
    a = simulate_evaluation(params, d, space, k=16, iteration_tag=3)
    b = simulate_evaluation(params, d, space, k=16, iteration_tag=3)
    assert a.successes.tolist() == b.successes.tolist()
    assert a.to_csv() == b.to_csv()


def test_rollouts_vary_with_tag_and_seed():
    space = preset_space("pnp_object")
    # seven direct demos per cell with kappa 10: p ~ 0.5 everywhere
    d = Dataset.from_grid(space, np.full(space.cardinality, 7))
    p7 = plain_params(space, seed=7)
    base = simulate_evaluation(p7, d, space, k=64, iteration_tag=0)
    other_tag = simulate_evaluation(p7, d, space, k=64, iteration_tag=1)
    other_seed = simulate_evaluation(plain_params(space, seed=8), d, space, k=64, iteration_tag=0)
    assert base.successes.tolist() != other_tag.successes.tolist()
    assert base.successes.tolist() != other_seed.successes.tolist()


def test_degenerate_probabilities_have_no_sampling_noise():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, beta=1000.0, kappa0=0.001)
    d = Dataset(space, {(0, 0): 1, (1, 1): 1})  # saturates every cell
    report = simulate_evaluation(p, d, space, k=25)
    assert report.successes.tolist() == [25, 25, 25, 25]
    empty = simulate_evaluation(p, Dataset(space), space, k=25)
    assert empty.successes.tolist() == [0, 0, 0, 0]


def test_evaluation_csv_layout():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space)
    report = simulate_evaluation(p, Dataset(space), space, k=2)
    lines = report.to_csv().splitlines()
    assert lines[0] == "composition_indices,successes,k,rate"
    assert len(lines) == 5
    assert lines[1] == "0/0,0,2,0.0"


def test_mapped_evaluation_expands_slot_prefixes():
    base = preset_space("pnp_object")
    nxt = build_space([("temp", ["cold", "hot"])])
    world = build_space(
        [("texture", list(base.dims[0].levels)), ("geometry", list(base.dims[1].levels)),
         ("temp", ["cold", "hot"])]
    )
    reduced = reduced_product([((0, 0), 0.5), ((1, 1), 0.5)], nxt)
    params = plain_params(world, kappa0=0.001, beta=0.0)
    # saturate exactly the (0,0,*) prefix; leave (1,1,*) empty
    d = Dataset(world, {(0, 0, 0): 9, (0, 0, 1): 9})
    report = mapped_evaluation(params, d, reduced, k=6, iteration_tag=2)
    assert report.space == reduced
    assert report.total_rollouts == reduced.cardinality * 6
    grid = report.successes.reshape(reduced.shape)
    assert grid[0].tolist() == [6, 6]
    assert grid[1].tolist() == [0, 0]


def test_ratio_guided_evaluation_budget_and_determinism():
    base = preset_space("pnp_object")
    nxt = build_space([("temp", ["cold", "hot"])])
    world = build_space(
        [("texture", list(base.dims[0].levels)), ("geometry", list(base.dims[1].levels)),
         ("temp", ["cold", "hot"])]
    )
    reduced = reduced_product([((0, 0), 0.25), ((1, 1), 0.75)], nxt)
    params = plain_params(world, kappa0=0.001, beta=0.0)
    d = Dataset(world, {(0, 0, 0): 9, (0, 0, 1): 9, (1, 1, 0): 9, (1, 1, 1): 9})
    report = ratio_guided_evaluation(params, d, reduced, k=10, iteration_tag=4)
    # only the new-factor sub-grid is enumerated
    assert report.space.shape == (2,)
    assert report.total_rollouts == 2 * 10
    # every slot expansion sits at p = 1, so sampling slots cannot miss
    assert report.successes.tolist() == [10, 10]
    again = ratio_guided_evaluation(params, d, reduced, k=10, iteration_tag=4)
    assert report.successes.tolist() == again.successes.tolist()

    with pytest.raises(ValueError):
        ratio_guided_evaluation(params, d, world, k=10)


def two_slot_world(columns: int):
    """A (2, columns) world, and its reduced grid with slots s=0 and s=1 over x."""
    x = build_space([("x", [str(i) for i in range(columns)])])
    world = product_space(build_space([("s", ["0", "1"])]), x)
    return world, reduced_product([((0,), 0.375), ((1,), 0.625)], x)


# Under plain_params (kappa0 = 10, beta = 0) n demos give p = 1 - exp(-n / 10):
# exactly 0 at n = 0, exactly 1.0 at n = 400, strictly between for 1..30.
SATURATED = 400


def skip_layout(columns: int, uncertain: int, mixed: int, fill: str, layout_seed: int) -> np.ndarray:
    """Demo counts on a (2, columns) world grid, in random column order.

    ``uncertain`` columns hold one fractional p (and a 0 or 1 beside it),
    ``mixed`` columns pair p = 0 with p = 1, and the rest are both 0 or both
    1 as ``fill`` says ("zero", "one" or "both": either, per column).
    """
    rng = np.random.default_rng(layout_seed)
    order = rng.permutation(columns)
    frac, mix, rest = np.split(order, [uncertain, uncertain + mixed])
    counts = np.zeros((2, columns), dtype=np.int64)
    if fill != "zero":
        counts[:, rest] = SATURATED * (rng.integers(0, 2, rest.size) if fill == "both" else 1)
    top = rng.integers(0, 2, mix.size)
    counts[top, mix] = SATURATED
    row = rng.integers(0, 2, frac.size)
    counts[row, frac] = rng.integers(1, 31, frac.size)
    counts[1 - row, frac] = SATURATED * rng.integers(0, 2, frac.size)
    return counts


def dense_successes(seed: int, tag: int, probs: np.ndarray, k: int) -> np.ndarray:
    """k rollouts at every flat probability, every cell drawn."""
    draws = _cell_uniforms(seed, tag, np.arange(probs.size), k)
    return np.count_nonzero(draws < probs[:, None], axis=1)


def dense_ratio_successes(seed, tag, slot_probs, ratios, k) -> np.ndarray:
    """Ratio-guided rollouts with every new-factor cell drawn."""
    cells = slot_probs.shape[1]
    draws = _cell_uniforms(seed, tag, np.arange(cells), 2 * k)
    cumulative = np.cumsum(np.asarray(ratios, dtype=float))
    cumulative[-1] = 1.0
    slots = np.searchsorted(cumulative, draws[:, 0::2], side="right")
    return np.count_nonzero(draws[:, 1::2] < slot_probs[slots, np.arange(cells)[:, None]], axis=1)


def test_skipped_cells_leave_every_success_count_unchanged():
    """Drawing only the uncertain cells gives the dense path's counts.

    The boundary examples put C - 1, C and C + 1 uncertain cells (C is
    _CHUNK_CELLS, the cells of one pass), spread with gaps over 1.25 C
    columns, so the drawn indices fill one pass short of, exactly to, or one
    past its end; the last example's ratio-guided call draws C + 300 columns.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    top = 2**64 - 1
    c = _CHUNK_CELLS
    boundary = [
        dict(columns=c + c // 4, uncertain=u, mixed=m, fill="both", p_max=1.0, seed=seed, tag=tag, k=k)
        for u, m, seed, tag, k in (
            (c - 1, 0, 0, 0, 5), (c, 0, top, top, 3), (c + 1, 0, 0, top, 8),
            (c - 1, 1, top, 0, 1), (c, 300, 0, 7, 4),
        )
    ]
    special = [
        dict(columns=40, uncertain=10, mixed=10, fill="both", p_max=0.75, seed=top, tag=1, k=6),
        dict(columns=40, uncertain=0, mixed=0, fill="zero", p_max=1.0, seed=0, tag=2, k=7),
        dict(columns=40, uncertain=0, mixed=0, fill="one", p_max=1.0, seed=top, tag=3, k=7),
    ]

    @st.composite
    def cases(draw):
        columns = draw(st.integers(1, 60))
        uncertain = draw(st.integers(0, columns))
        return dict(
            columns=columns,
            uncertain=uncertain,
            mixed=draw(st.integers(0, columns - uncertain)),
            fill=draw(st.sampled_from(["zero", "one", "both"])),
            p_max=draw(st.sampled_from([1.0, 1.0, 0.9, 0.5])),
            seed=draw(st.sampled_from([0, top]) | st.integers(0, top)),
            tag=draw(st.integers(0, top)),
            k=draw(st.integers(1, 9)),
        )

    def check(case, layout_seed):
        world, reduced = two_slot_world(case["columns"])
        counts = skip_layout(
            case["columns"], case["uncertain"], case["mixed"], case["fill"], layout_seed
        )
        params = plain_params(world, p_max=case["p_max"], seed=case["seed"])
        d = Dataset.from_grid(world, counts)
        seed, tag, k = case["seed"], case["tag"], case["k"]
        probs = success_tensor(params, d).reshape(-1)
        slot_probs = probs[slot_cells(reduced, world)]
        fractional = np.count_nonzero((probs > 0) & (probs < 1))
        if case["p_max"] == 1.0:  # the layout holds exactly what it says
            assert fractional == case["uncertain"]
            assert np.all((probs == 0) | (probs == 1) | ((probs > 0.05) & (probs < 0.96)))
        else:
            assert not np.any(probs == 1)

        rows = []

        def counting(seed, tag, index, draws):
            rows.append(len(index))
            return _philox_words(seed, tag, index, draws)

        with mock.patch("facil.oracle._philox_words", counting):
            got = simulate_evaluation(params, d, world, k, tag).successes
            mapped = mapped_evaluation(params, d, reduced, k, tag).successes
            ratio = ratio_guided_evaluation(params, d, reduced, k, tag).successes
        assert np.array_equal(got, dense_successes(seed, tag, probs, k))
        assert np.array_equal(mapped, dense_successes(seed, tag, slot_probs.reshape(-1), k))
        expected = dense_ratio_successes(seed, tag, slot_probs, reduced.slot_ratios, k)
        assert np.array_equal(ratio, expected)
        columns_certain = np.all(slot_probs >= 1, axis=0) | np.all(slot_probs <= 0, axis=0)
        assert rows == [fractional, fractional, np.count_nonzero(~columns_certain)]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=cases(), layout_seed=st.integers(0, 2**32 - 1))
    def property_(case, layout_seed):
        check(case, layout_seed)

    for example in boundary + special:
        property_ = hypothesis.example(case=example, layout_seed=11)(property_)
    property_()


# 0, 2**-60, the least subnormal, 0.5, the float below 1, 1, and a p_max below 1.
EDGE_PROBS = [0.0, 2.0**-60, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0, 0.9]


def on_and_beside(draws: np.ndarray) -> np.ndarray:
    """Per cell, one of its draws (a multiple j * 2**-53), or one ulp below or above it."""
    cells = np.arange(len(draws))
    own = draws[cells, cells % draws.shape[1]]
    return np.stack([np.nextafter(own, 0.0), own, np.nextafter(own, 1.0)])[cells % 3, cells]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
def test_integer_thresholds_give_the_float_compares_hits(k):
    """Plain and ratio-guided hits equal those of u < p on ``_cell_uniforms``.

    p sits on each cell's own draws and one ulp either side, and at
    EDGE_PROBS; the cumulative slot ratios land on pick draws.  The cells
    span two passes, and a k (2k with picks) that is not a multiple of 4
    leaves spare words in the last block.
    """
    seed, tag, cells = 2**64 - 1, 5, _CHUNK_CELLS + 99
    uniforms = _cell_uniforms(seed, tag, np.arange(cells), 2 * k)
    probs = on_and_beside(uniforms[:, :k])
    probs[::50] = np.resize(EDGE_PROBS, probs[::50].size)
    assert np.array_equal(_rollout_hits(probs[None], k, seed, tag), dense_successes(seed, tag, probs, k))

    # Bounds on distinct pick draws of the first cells; differences and their
    # partial sums of multiples of 2**-53 below 1 are exact.
    bounds = np.unique(uniforms[:3, 0::2])[:5]
    ratios = tuple(np.diff(np.concatenate([[0.0], bounds, [1.0]])).tolist())
    assert np.array_equal(np.cumsum(ratios)[:-1], bounds)
    slot_probs = np.empty((len(ratios), cells))
    slot_probs[:] = on_and_beside(uniforms[:, 1::2])
    slot_probs[1::2] = np.resize(EDGE_PROBS, cells)
    slot_probs[0, :10] = 0.0  # cells whose slot pick alone decides each hit
    slot_probs[-1, :10] = 1.0
    got = _rollout_hits(slot_probs, k, seed, tag, ratios)
    assert np.array_equal(got, dense_ratio_successes(seed, tag, slot_probs, ratios, k))


def test_one_evaluation_holds_no_array_of_every_draw():
    """One rollout call on 2**18 uncertain cells at k = 5 peaks below 56 B per cell.

    The untouched flywheel.k size check is 40 B per cell.  A kernel that held
    every float draw and its compare peaked at 78 B per cell.
    """
    cells = 2**18
    probs = np.linspace(0.01, 0.99, cells)[None]
    tracemalloc.start()
    try:
        _rollout_hits(probs, 5, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cells < 56


@pytest.mark.parametrize("k", [10**16, 10**18])
def test_k_too_large_fails_even_when_no_cell_draws(k):
    # The empty dataset gives p = 0 everywhere, so no cell takes a draw; the
    # full cells x k request still names the field.  10**16 draws exceed any
    # address space; 10**18 are past what numpy can size.
    base = preset_space("pnp_object")
    nxt = build_space([("temp", ["cold", "hot"])])
    world = product_space(base, nxt)
    reduced = reduced_product([((0, 0), 0.25), ((1, 1), 0.75)], nxt)
    params = plain_params(world)
    empty = Dataset(world)
    with pytest.raises(InputMemoryError, match=r"^flywheel\.k: "):
        simulate_evaluation(params, empty, world, k=k)
    with pytest.raises(InputMemoryError, match=r"^flywheel\.k: "):
        mapped_evaluation(params, empty, reduced, k=k)
    with pytest.raises(InputMemoryError, match=r"^flywheel\.k: "):
        ratio_guided_evaluation(params, empty, reduced, k=k)


def test_report_rejects_non_integral_counts():
    space = build_space([("a", ["a0", "a1"])])
    doc = EvaluationReport(space, [1, 2], 2).to_doc()
    for key, value in (("successes", [1.7, 2]), ("successes", [1.0, 2.0]), ("k", 2.5)):
        with pytest.raises(ValueError, match=f"^{key}: must be an integer"):
            EvaluationReport.from_doc(dict(doc, **{key: value}))
    with pytest.raises(ValueError, match="^successes: must be an integer"):
        EvaluationReport(space, np.array([0.5, 1.0]), 1)
    report = EvaluationReport(space, np.array([1, 2], dtype=np.int16), np.int64(2))
    assert report == EvaluationReport.from_doc(doc) and type(report.k) is int
    with pytest.raises(ValueError, match="^successes array does not match the benchmark space$"):
        EvaluationReport(space, [1, 2, 0], 2)
    for successes in ([1, 3], [-1, 0]):
        with pytest.raises(ValueError, match=r"^per-cell successes must lie in 0\.\.k$"):
            EvaluationReport(space, successes, 2)


def test_report_rejects_k_below_one():
    # k = 0 with all-zero counts would pass the 0..k range check and give 0/0 rates.
    space = build_space([("a", ["a0", "a1"])])
    for k in (0, -1):
        with pytest.raises(ValueError, match=r"^k: must be >= 1"):
            EvaluationReport(space, [0, 0], k)
    doc = EvaluationReport(space, [0, 0], 1).to_doc()
    doc["k"] = 0
    with pytest.raises(ValueError, match=r"^k: must be >= 1"):
        EvaluationReport.from_doc(doc)
