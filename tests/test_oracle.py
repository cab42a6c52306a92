"""Synthetic policy oracle: probability model, streams, and evaluations."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from facil.dataset import Dataset, DemoBatch, add_many
from facil.oracle import (
    _CHUNK_CELLS,
    DEFAULT_BETA,
    DEFAULT_BLACKLIST,
    DEFAULT_KAPPA0,
    DEFAULT_P_MAX,
    OracleFamily,
    OracleParams,
    _cell_uniforms,
    blacklist_mask,
    compositional_family,
    default_family,
    default_params,
    derive_tag,
    kappa_grid,
    mapped_evaluation,
    ratio_guided_evaluation,
    simulate_evaluation,
    success_prob,
    success_tensor,
)
from facil.spaces import build_space, preset_space, reduced_product


def plain_params(space, **overrides):
    base = dict(
        kappa0=10.0,
        level_weights=tuple((1.0,) * s for s in space.shape),
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
    with pytest.raises(ValueError):
        plain_params(space, level_weights=((0.5, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="one dimension twice"):
        plain_params(space, blacklist=frozenset({((0, 0), (0, 1))}))


def test_family_checks_constants_and_blacklist_at_construction():
    with pytest.raises(ValueError, match="kappa0: must be > 0"):
        OracleFamily(kappa0=-1.0, beta=1.0, p_max=1.0, blacklist=(), seed=0)
    with pytest.raises(ValueError, match="beta: must be >= 0"):
        OracleFamily(kappa0=1.0, beta=float("nan"), p_max=1.0, blacklist=(), seed=0)
    with pytest.raises(ValueError, match="one dimension twice"):
        OracleFamily(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=(((1, 0), (1, 1)),), seed=0)


def test_negative_blacklist_indices_are_rejected():
    # numpy would read -1 as the last dimension or level and blacklist the wrong cells
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    for pair in (((-1, 0), (1, 0)), ((0, 0), (1, -1))):
        with pytest.raises(ValueError, match="blacklist: .* has a negative index"):
            plain_params(space, blacklist=frozenset({pair}))
        with pytest.raises(ValueError, match="blacklist: .* has a negative index"):
            OracleFamily(kappa0=1.0, beta=1.0, p_max=1.0, blacklist=(pair,), seed=0)


def test_blacklist_pairs_are_normalized():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, blacklist=frozenset({((1, 0), (0, 1))}))
    assert p.blacklist == frozenset({((0, 1), (1, 0))})


def test_check_space_rejects_mismatches():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space)
    p.check_space(space)
    with pytest.raises(ValueError):
        p.check_space(build_space([("a", ["a0", "a1", "a2"]), ("b", ["b0", "b1"])]))
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
    assert pnp.level_weights == ((1.0,) * 4,) * 2
    assert pnp.blacklist == frozenset(DEFAULT_BLACKLIST)
    assert (pnp.kappa0, pnp.beta, pnp.p_max) == (DEFAULT_KAPPA0, DEFAULT_BETA, DEFAULT_P_MAX)

    # oc_action is 4x2: the pair needing level 2 on dim 1 is dropped
    oc = family.params_for(preset_space("oc_action"))
    assert oc.blacklist == frozenset({((0, 0), (1, 1)), ((0, 2), (1, 0))})

    # one-dimensional spaces cannot host any pair
    line = family.params_for(build_space([("only", ["l0", "l1", "l2"])]))
    assert line.blacklist == frozenset()

    assert compositional_family(9).params_for(preset_space("pnp_object")).blacklist == frozenset()


def test_kappa_grid_scales_by_level_weights():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, level_weights=((1.0, 2.0), (1.0, 3.0)))
    grid = kappa_grid(p, space).reshape(space.shape)
    assert grid[0, 0] == 10.0
    assert grid[1, 0] == 20.0
    assert grid[0, 1] == 30.0
    assert grid[1, 1] == 60.0


def test_blacklist_mask_marks_matching_cells():
    space = build_space(
        [("a", ["a0", "a1"]), ("b", ["b0", "b1"]), ("c", ["c0", "c1"])]
    )
    p = plain_params(space, blacklist=frozenset({((0, 1), (2, 0))}))
    mask = blacklist_mask(p, space).reshape(space.shape)
    # any middle coordinate, pinned first and last
    assert mask[1, 0, 0] and mask[1, 1, 0]
    assert not mask[0, 0, 0] and not mask[1, 0, 1]
    assert mask.sum() == 2


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
    for c in space.compositions():
        assert success_prob(p, d, c) == pytest.approx(probs[c])


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
    d2 = add_many(d, [DemoBatch((1, 1), 30)])
    probs2 = success_tensor(p, d2)
    assert probs2[(1, 1)] == pytest.approx(1.0 - math.exp(-30 / 10.0))


def test_p_max_caps_probability():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space, p_max=0.75)
    d = Dataset(space, {(0, 0): 10_000})
    assert success_tensor(p, d)[(0, 0)] == 0.75


def test_one_demo_per_level_saturates_default_transfer():
    """beta = 3*kappa0: a single demo through a level already clears 0.95."""
    space = preset_space("pnp_object")
    params = compositional_family(0).params_for(space)
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
    assert np.allclose(report.rates.values, report.successes / 8)
    assert report.overall == pytest.approx(float(report.rates.values.mean()))


def test_simulate_evaluation_rejects_shape_mismatch():
    space = preset_space("pnp_object")
    params = default_params(space, 7)
    d = Dataset.empty(space)
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
                got = _cell_uniforms(seed, tag, cells, draws)
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
    d = Dataset(space, {c: 7 for c in space.compositions()})
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
    empty = simulate_evaluation(p, Dataset.empty(space), space, k=25)
    assert empty.successes.tolist() == [0, 0, 0, 0]


def test_evaluation_csv_layout():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    p = plain_params(space)
    report = simulate_evaluation(p, Dataset.empty(space), space, k=2)
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
    d = add_many(
        Dataset.empty(world), [DemoBatch((0, 0, 0), 9), DemoBatch((0, 0, 1), 9)]
    )
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
    d = add_many(
        Dataset.empty(world),
        [DemoBatch((0, 0, 0), 9), DemoBatch((0, 0, 1), 9),
         DemoBatch((1, 1, 0), 9), DemoBatch((1, 1, 1), 9)],
    )
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
