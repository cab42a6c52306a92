"""Flywheel loop, budget arithmetic, apportioning, staged expansion."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from facil.dataset import Dataset
from facil.flywheel import (
    FlywheelConfig,
    RunHistory,
    apportion_counts,
    rollout_budget,
    run_flywheel,
    sequential_expansion,
    stage_labels,
)
from facil.oracle import (
    OracleFamily,
    OracleParams,
    compositional_family,
    default_family,
    default_params,
    derive_tag,
)
from facil.spaces import build_space, preset_space


def hard_params(space, kappa0=1e9, seed=3):
    """No transfer, enormous difficulty: nothing ever clears tau."""
    return OracleParams(
        kappa0=kappa0,
        level_weights=tuple((1.0,) * s for s in space.shape),
        beta=0.0,
        p_max=1.0,
        blacklist=frozenset(),
        seed=seed,
    )


def test_rollout_budget_pinned_example():
    report = rollout_budget(24, 16, 7, 5)
    assert report.full_possibilities == 384
    assert report.full_rollouts == 1920
    assert report.reduced_possibilities == 168
    assert report.sampled_rollouts == 120
    assert report.speedup == 16.0


def test_rollout_budget_second_example():
    report = rollout_budget(8, 12, 5, 5)
    assert report.full_possibilities == 96
    assert report.reduced_possibilities == 40
    assert report.sampled_rollouts == 40
    assert report.full_rollouts == 480
    assert report.speedup == 12.0


def test_rollout_budget_validation_and_json():
    with pytest.raises(ValueError):
        rollout_budget(0, 16, 7, 5)
    with pytest.raises(ValueError):
        rollout_budget(24, 16, 7, 0)
    doc = dataclasses.asdict(rollout_budget(2, 3, 1, 4))
    assert set(doc) == {
        "full_possibilities",
        "reduced_possibilities",
        "sampled_rollouts",
        "full_rollouts",
        "speedup",
    }


def test_apportion_counts_largest_remainder():
    assert apportion_counts(10, [0.2, 0.8]) == [2, 8]
    assert apportion_counts(5, [0.5, 0.5]) == [3, 2]  # tie goes to the low index
    assert apportion_counts(4, [1 / 3, 1 / 3, 1 / 3]) == [2, 1, 1]
    assert apportion_counts(2, [0.25, 0.75]) == [1, 1]
    assert apportion_counts(0, [0.5, 0.5]) == [0, 0]
    with pytest.raises(ValueError):
        apportion_counts(-1, [1.0])


def test_apportion_counts_always_sums_to_total():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        raw = rng.random(n) + 1e-9
        ratios = (raw / raw.sum()).tolist()
        total = int(rng.integers(0, 500))
        parts = apportion_counts(total, ratios)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)


def test_flywheel_config_validation_and_doc_round_trip():
    with pytest.raises(ValueError):
        FlywheelConfig(tau=0.0)
    with pytest.raises(ValueError):
        FlywheelConfig(tau=1.0)
    with pytest.raises(ValueError):
        FlywheelConfig(unit_size=0)
    with pytest.raises(ValueError):
        FlywheelConfig(k=0)
    with pytest.raises(ValueError):
        FlywheelConfig(max_iterations=0)
    with pytest.raises(ValueError):
        FlywheelConfig(evaluation_mode="guess")

    cfg = FlywheelConfig(
        tau=0.9, unit_size=7, k=3, max_iterations=4,
        evaluation_mode="exact", initial_compositions=((0, 0), (1, 1)),
    )
    assert FlywheelConfig(**cfg.to_doc()) == cfg


def test_immediate_convergence_keeps_diagonal_support():
    space = preset_space("pnp_object")
    params = compositional_family(7).params_for(space)
    history = run_flywheel(space, params, FlywheelConfig())

    assert history.converged
    assert history.iterations == 1
    rec = history.records[0]
    assert rec.batches == ()
    assert rec.trace.steps == ()
    assert rec.total_after == rec.total_before == 4 * 50
    assert rec.rollouts_spent == space.cardinality * 5
    assert history.dataset.support == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})
    assert history.initial_dataset == history.dataset


def test_capped_run_reports_not_converged():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    history = run_flywheel(space, hard_params(space), FlywheelConfig(max_iterations=1))
    assert not history.converged
    assert history.iterations == 1
    rec = history.records[0]
    assert rec.overall_rate == 0.0
    assert len(rec.batches) > 0
    assert rec.total_after > rec.total_before


def test_iteration_record_invariants_on_long_run():
    space = preset_space("pnp_object")
    params = dataclasses.replace(default_params(space, 7), beta=0.0)
    history = run_flywheel(space, params, FlywheelConfig(max_iterations=300))

    assert history.converged
    assert history.records[-1].overall_rate >= 0.8
    # without transfer the support must carpet nearly the whole grid
    assert history.records[-1].support_after >= 14
    assert history.iterations > 10

    for i, rec in enumerate(history.records):
        assert rec.iteration == i + 1
        assert rec.support_after >= rec.support_before
        assert rec.rollouts_spent == space.cardinality * 5
        if i + 1 < len(history.records):
            assert rec.total_after > rec.total_before
    last = history.records[-1]
    assert last.total_after == last.total_before  # converged pass adds nothing
    assert history.total_rollouts == sum(r.rollouts_spent for r in history.records)


def test_initial_compositions_override():
    space = preset_space("pnp_object")
    params = compositional_family(7).params_for(space)
    cfg = FlywheelConfig(initial_compositions=((0, 3), (3, 0)))
    history = run_flywheel(space, params, cfg)
    assert history.initial_dataset.support == frozenset({(0, 3), (3, 0)})
    assert history.initial_dataset.total == 2 * 50
    bad = FlywheelConfig(initial_compositions=((9, 9),))
    with pytest.raises(ValueError):
        run_flywheel(space, params, bad)


def test_dataset_at_and_csv_and_summary():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    history = run_flywheel(space, hard_params(space), FlywheelConfig(max_iterations=3))

    assert history.dataset_at(2) == history.records[1].dataset_after
    with pytest.raises(ValueError):
        history.dataset_at(99)

    lines = history.iterations_csv().splitlines()
    assert lines[0] == "iteration,total_demos,support_size,overall_rate,rollouts_spent"
    assert len(lines) == history.iterations + 1

    summary = history.summary()
    assert summary["stage"] == "O"
    assert summary["converged"] is False
    assert summary["iterations"] == 3
    assert summary["total_demos"] == history.dataset.total
    assert summary["total_rollouts"] == history.total_rollouts


def test_history_json_round_trip_is_bit_exact():
    space = preset_space("pnp_object")
    params = default_params(space, 7)
    history = run_flywheel(space, params, FlywheelConfig(max_iterations=4))
    text = history.to_json()
    again = RunHistory.from_json(text)
    assert again.to_json() == text
    assert again.converged == history.converged
    assert again.stage == history.stage
    assert again.space == history.space
    assert again.config == history.config
    assert again.dataset == history.dataset
    assert again.initial_dataset == history.initial_dataset
    assert len(again.records) == len(history.records)
    for a, b in zip(again.records, history.records):
        assert a.report.successes.tolist() == b.report.successes.tolist()
        assert a.batches == b.batches
        assert a.trace == b.trace
        assert a.dataset_after == b.dataset_after


def test_history_fields_derive_from_records():
    space = preset_space("pnp_object")
    params = dataclasses.replace(default_params(space, 7), beta=0.0)
    for max_iterations, converged in ((3, False), (300, True)):
        cfg = FlywheelConfig(max_iterations=max_iterations)
        run = run_flywheel(space, params, cfg)
        for history in (run, RunHistory.from_json(run.to_json())):
            records = history.records
            assert len(records) >= 3
            assert records[0].dataset_before is history.initial_dataset
            for prev, rec in zip(records, records[1:]):
                assert rec.dataset_before is prev.dataset_after
            assert history.dataset is records[-1].dataset_after
            assert history.world_space == history.initial_dataset.space
            assert history.converged == (records[-1].overall_rate >= cfg.tau) == converged
            for rec in records:
                assert rec.total_before == rec.dataset_before.total
                assert rec.support_before == len(rec.dataset_before.support)
                assert rec.total_after == rec.dataset_after.total
                assert rec.support_after == len(rec.dataset_after.support)
                assert rec.overall_rate == rec.report.overall
                assert rec.rollouts_spent == rec.report.total_rollouts == space.cardinality * 5


def test_stage_labels():
    assert stage_labels(3) == ["O", "OA", "OAE"]
    assert stage_labels(5) == ["O", "OA", "OAE", "stage4", "stage5"]


def test_single_stage_expansion_matches_plain_run():
    space = preset_space("pnp_object")
    family = default_family(7)
    cfg = FlywheelConfig()
    histories = sequential_expansion([space], family, cfg)
    direct = run_flywheel(
        space, family.params_for(space), cfg, eval_tag_base=derive_tag(0, 1)
    )
    assert len(histories) == 1
    assert histories[0].to_json() == direct.to_json()


def test_sequential_expansion_converges_across_presets():
    stages = [preset_space("pnp_object"), preset_space("pnp_action"), preset_space("environment")]
    histories = sequential_expansion(stages, default_family(7), FlywheelConfig())

    assert [h.stage for h in histories] == ["O", "OA", "OAE"]
    assert all(h.converged for h in histories)
    assert histories[0].world_space.ndim == 2
    assert histories[1].world_space.ndim == 5
    assert histories[2].world_space.ndim == 7
    # later stages search a slot-reduced product, not the raw world
    assert histories[1].space.dims[0].name == "slot"
    assert histories[1].space.slot_ratios is not None
    assert histories[2].space.dims[0].name == "slot"
    # demos always land in full world coordinates
    for h in histories:
        for comp in h.dataset.support:
            assert len(comp) == h.world_space.ndim


def test_sequential_expansion_stops_after_failure():
    stages = [preset_space("pnp_object"), preset_space("environment")]
    family = OracleFamily(kappa0=1e9, beta=0.0, p_max=1.0, blacklist=(), seed=3)
    histories = sequential_expansion(stages, family, FlywheelConfig(max_iterations=2))
    assert len(histories) == 1
    assert not histories[0].converged


def test_sequential_expansion_validates_stage_one():
    space = preset_space("pnp_object")
    nxt = preset_space("environment")
    from facil.spaces import reduced_product

    reduced = reduced_product([((0, 0), 1.0)], nxt)
    with pytest.raises(ValueError):
        sequential_expansion([], default_family(7), FlywheelConfig())
    with pytest.raises(ValueError):
        sequential_expansion([reduced, space], default_family(7), FlywheelConfig())


def test_ratio_and_exact_modes_spend_different_budgets():
    stages = [preset_space("pnp_object"), preset_space("pnp_action")]
    family = default_family(7)

    ratio = sequential_expansion(stages, family, FlywheelConfig(evaluation_mode="ratio_guided"))
    exact = sequential_expansion(stages, family, FlywheelConfig(evaluation_mode="exact"))
    assert all(h.converged for h in ratio)
    assert all(h.converged for h in exact)

    slots_r = len(ratio[1].space.dims[0])
    subgrid_cells = preset_space("pnp_action").cardinality
    assert ratio[1].records[0].rollouts_spent == subgrid_cells * 5
    slots_e = len(exact[1].space.dims[0])
    assert exact[1].records[0].rollouts_spent == slots_e * subgrid_cells * 5
    assert slots_r == slots_e == 4


def test_reduced_run_requires_world():
    nxt = preset_space("environment")
    from facil.spaces import reduced_product

    reduced = reduced_product([((0, 0), 1.0)], nxt)
    params = default_family(7).params_for(preset_space("environment"))
    with pytest.raises(ValueError):
        run_flywheel(reduced, params, FlywheelConfig())


@pytest.mark.parametrize("mode", ["exact", "ratio_guided"])
@pytest.mark.parametrize(
    "world_sizes",
    [
        [2, 4, 3, 3],  # slot base (3, 1) does not fit the leading dimension
        [4, 4, 3],  # one new-factor dimension short
        [4, 4, 3, 2],  # new-factor grid shaped differently
    ],
)
def test_reduced_run_rejects_a_world_the_slots_do_not_fit(mode, world_sizes):
    from facil.spaces import product_space, reduced_product

    nxt = preset_space("environment")
    reduced = reduced_product([((0, 0), 0.5), ((3, 1), 0.5)], nxt)
    world = build_space([(f"w{m}", [str(j) for j in range(n)]) for m, n in enumerate(world_sizes)])
    assert world != product_space(preset_space("pnp_object"), nxt)
    params = default_family(7).params_for(world)
    with pytest.raises(ValueError):
        run_flywheel(reduced, params, FlywheelConfig(evaluation_mode=mode), world=world)
