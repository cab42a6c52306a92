"""Flywheel loop, budget arithmetic, apportioning, staged expansion."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import facil.dataset
import facil.flywheel
import facil.spaces
from facil.dataset import Dataset, add_many
from facil.flywheel import (
    EVALUATION_MODES,
    FlywheelConfig,
    RunHistory,
    apportion_counts,
    rollout_budget,
    run_flywheel,
    sequential_expansion,
    stage_labels,
)
from facil.oracle import (
    OracleParams,
    default_family,
    default_params,
    derive_tag,
)
from facil.spaces import (
    build_space,
    diagonal_init,
    new_factor_subspace,
    preset_space,
    product_space,
    reduced_product,
)


def compositional_params(space):
    """The default oracle constants with no blacklisted interactions at all."""
    return dataclasses.replace(default_family(7), blacklist=()).params_for(space)


def hard_params(space, kappa0=1e9, seed=3):
    """No transfer, enormous difficulty: nothing ever clears tau."""
    return OracleParams(
        kappa0=kappa0,
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
    # 10.7 used to count as 10 cells
    with pytest.raises(ValueError, match="^grid_cells: must be an integer"):
        rollout_budget(10.7, 3, 2, 5)
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


def test_apportion_counts_past_float_precision_sums_exactly_or_raises():
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(300):
        raw = rng.random(int(rng.integers(1, 6))) + 1e-9
        ratios = (raw / raw.sum()).tolist()
        total = int(rng.integers(2**50, 2**63)) >> int(rng.integers(0, 10))
        try:
            parts = apportion_counts(total, ratios)
        except OverflowError:
            outcomes.add("raised")
            continue
        outcomes.add("split")
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)
    assert outcomes == {"split", "raised"}
    with pytest.raises(OverflowError):
        apportion_counts(2**58, [3 / 7, 2 / 7, 2 / 7])


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
    # non-integral values raise instead of truncating (2.5 would run 2-demo batches)
    for field in ("unit_size", "k", "max_iterations"):
        for value in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
                FlywheelConfig(**{field: value})
    with pytest.raises(ValueError, match="^initial_compositions: must be an integer"):
        FlywheelConfig(initial_compositions=[(0.7, 0)])
    numpy_ints = FlywheelConfig(unit_size=np.int32(7), k=np.int64(3), max_iterations=np.uint8(4),
                                initial_compositions=[np.array([0, 1])])
    assert (numpy_ints.unit_size, numpy_ints.k, numpy_ints.max_iterations) == (7, 3, 4)
    assert numpy_ints.initial_compositions == ((0, 1),)
    assert type(numpy_ints.k) is int

    cfg = FlywheelConfig(
        tau=0.9, unit_size=7, k=3, max_iterations=4,
        evaluation_mode="exact", initial_compositions=((0, 0), (1, 1)),
    )
    assert FlywheelConfig(**cfg.to_doc()) == cfg


def test_immediate_convergence_keeps_diagonal_support():
    space = preset_space("pnp_object")
    params = compositional_params(space)
    history = run_flywheel(space, params, FlywheelConfig())

    assert history.converged
    assert history.iterations == 1
    rec = history.records[0]
    assert len(rec.trace.cells) == 0
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
    assert len(rec.trace.cells) > 0
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
    params = compositional_params(space)
    cfg = FlywheelConfig(initial_compositions=((0, 3), (3, 0)))
    history = run_flywheel(space, params, cfg)
    assert history.initial_dataset.support == frozenset({(0, 3), (3, 0)})
    assert history.initial_dataset.total == 2 * 50
    bad = FlywheelConfig(initial_compositions=((9, 9),))
    with pytest.raises(ValueError):
        run_flywheel(space, params, bad)


def test_iterations_csv_and_summary():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    history = run_flywheel(space, hard_params(space), FlywheelConfig(max_iterations=3))

    lines = history.iterations_csv().splitlines()
    assert lines[0] == "iteration,total_demos,support_size,overall_rate,rollouts_spent"
    assert len(lines) == history.iterations + 1

    summary = history.summary()
    assert summary["stage"] == "O"
    assert summary["converged"] is False
    assert summary["iterations"] == 3
    assert summary["total_demos"] == history.dataset.total
    assert summary["support_size"] == len(history.dataset.support)
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
        assert a.trace == b.trace  # the batches are the trace's cells
        assert a.dataset_after == b.dataset_after


def grid_space(prefix, sizes):
    return build_space([(f"{prefix}{m}", [f"l{j}" for j in range(n)]) for m, n in enumerate(sizes)])


def round_trip_runs():
    """A curating 4-D weak-transfer run, and the second stage of each expansion mode."""
    weak = dataclasses.replace(default_family(7), beta=1.0)
    space = grid_space("d", [4, 4, 4, 4])
    yield run_flywheel(space, weak.params_for(space), FlywheelConfig(tau=0.9))
    stages = [grid_space("a", [4, 4]), grid_space("b", [3, 3])]
    oracle = dataclasses.replace(default_family(7), beta=10.0)
    for mode in ("exact", "ratio_guided"):
        cfg = FlywheelConfig(tau=0.9, evaluation_mode=mode)
        histories = sequential_expansion(stages, oracle, cfg)
        assert len(histories) == 2
        yield histories[1]


def test_history_round_trip_compares_equal():
    for history in round_trip_runs():
        assert any(rec.trace.steps for rec in history.records)
        again = RunHistory.from_json(history.to_json())
        assert again == history
        rec = again.records[0]
        flipped = rec.report.successes.copy()
        flipped[0] = rec.report.k - flipped[0]
        report = dataclasses.replace(rec.report, successes=flipped)
        changed = dataclasses.replace(rec, report=report)
        assert again != dataclasses.replace(again, records=(changed,) + again.records[1:])


def test_history_json_labels_and_renders_each_dataset_once():
    # The expand_ratio benchmark's stage OA: seeded on every cell, it converges at
    # once, so one dataset of 1,296 counts is the initial, the final and the
    # record's dataset_after.
    stages = [grid_space("s1d", [6, 6]), grid_space("s2d", [6, 6])]
    oracle = dataclasses.replace(default_family(7), beta=10.0)
    every_cell = tuple((a, b) for a in range(6) for b in range(6))
    cfg = FlywheelConfig(tau=0.8, evaluation_mode="ratio_guided", initial_compositions=every_cell)
    oa = sequential_expansion(stages, oracle, cfg)[1]
    assert oa.iterations == 1 and oa.records[0].dataset_after is oa.initial_dataset
    assert len(oa.dataset.support) == 1296
    # a dense support is labelled from the grid's label column, a sparse one per
    # support cell; either way each dataset is labelled once
    gathered = mock.Mock(wraps=facil.dataset.composition_labels)
    column = mock.Mock(wraps=facil.dataset.label_column)
    rendered = mock.Mock(wraps=facil.spaces._write)  # writes every value of the document
    with mock.patch.object(facil.dataset, "composition_labels", gathered):
        with mock.patch.object(facil.dataset, "label_column", column):
            with mock.patch.object(facil.spaces, "_write", rendered):
                text = oa.to_json()
            assert oa.to_json() == text  # the dataset keeps its labels for the next writer
    assert gathered.call_count + column.call_count == 1
    labels, counts = oa.dataset.support_columns
    assert isinstance(labels, tuple) and len(labels) == 1296
    with pytest.raises(ValueError):
        counts[0] = 0
    assert oa.dataset.support_columns[1] is counts
    counts = [c for c in rendered.call_args_list if isinstance(c.args[0], facil.spaces.IntColumns)]
    assert len(counts) == 1
    doc = json.loads(text)
    block = doc["initial_dataset"]
    assert len(block["counts"]) == 1296
    assert doc["final_dataset"] == doc["iterations"][0]["dataset_after"] == block


def test_history_holds_a_count_grid_and_success_counts_per_iteration():
    """16 B per cell per iteration: an int64 count grid and int64 success counts.

    On 20**4 cells this run curates once and converges at iteration 2, so it
    keeps two count grids and two reports.  A report that also cached its
    float64 rates held 24.8 B per cell per iteration here.
    """
    space = build_space([(f"d{m}", [f"l{j}" for j in range(20)]) for m in range(4)])
    params = OracleParams(kappa0=230.0, beta=1.0, p_max=1.0, blacklist=(), seed=7)
    tracemalloc.start()
    try:
        history = run_flywheel(space, params, FlywheelConfig(tau=0.925, max_iterations=2))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(history.records) == 2 and history.converged
    assert held / (space.cardinality * len(history.records)) < 20.8


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
                # a plain run's pass folds one batch_size batch at each traced cell
                sizes = np.full(len(rec.trace.cells), rec.trace.batch_size)
                assert rec.dataset_after == add_many(rec.dataset_before, rec.trace.cells, sizes)


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
    family = OracleParams(kappa0=1e9, beta=0.0, p_max=1.0, blacklist=(), seed=3)
    histories = sequential_expansion(stages, family, FlywheelConfig(max_iterations=2))
    assert len(histories) == 1
    assert not histories[0].converged


def test_stage_handoff_slots_ascend_with_python_int_ratios():
    """The next stage's slots are the support in ascending linear index, each at n / total.

    The ratios are divided as Python ints: at these counts numpy's float
    division gives 0.4814814814814815 for 13/27, Python 0.48148148148148145.
    """
    unit = 17177801105091714
    first = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    second = build_space([("c", ["c0", "c1"])])
    # listed high cell first, so the order below is the handoff's own
    cfg = FlywheelConfig(
        unit_size=unit,
        evaluation_mode="exact",
        max_iterations=1,
        initial_compositions=((1, 1),) * 14 + ((0, 0),) * 13,
    )
    family = OracleParams(kappa0=230.0, beta=690.0, p_max=1.0, blacklist=(), seed=7)
    first_run, second_run = sequential_expansion([first, second], family, cfg)
    assert first_run.converged and first_run.dataset.total == 27 * unit
    assert second_run.space.dims[0].levels == ("0/0", "1/1")
    assert second_run.space.slot_ratios == (13 * unit / (27 * unit), 14 * unit / (27 * unit))
    assert second_run.space.slot_ratios[0] == 0.48148148148148145
    assert abs(sum(second_run.space.slot_ratios) - 1.0) < 1e-12


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
    # a plain run's world, if given, is its own space's shape
    plain = preset_space("environment")
    with pytest.raises(ValueError, match="^world space does not match a plain search space$"):
        run_flywheel(plain, params, FlywheelConfig(), world=preset_space("pnp_object"))


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


@pytest.mark.parametrize("mode", EVALUATION_MODES)
def test_reduced_run_decodes_slot_labels_once(mode):
    # the space keeps its parsed slot labels: the slot map and every evaluation read them
    space = reduced_product([((0, 0), 0.5), ((1, 1), 0.5)], preset_space("environment"))
    world = product_space(preset_space("pnp_object"), preset_space("environment"))
    cfg = FlywheelConfig(evaluation_mode=mode, max_iterations=3)
    decode = mock.Mock(wraps=facil.spaces.parse_composition)
    with mock.patch.object(facil.spaces, "parse_composition", decode):
        history = run_flywheel(space, hard_params(world), cfg, world=world)
    assert history.iterations == 3 and not history.converged
    assert all(len(rec.trace.cells) for rec in history.records)  # every iteration curated
    assert decode.call_count == len(space.dims[0])  # once per slot label


def per_slot_batches(space, cfg, selection):
    """The world batches of one batch at a curation cell, as (composition, count) per slot."""
    if space.slot_ratios is None:
        return [(selection, cfg.unit_size)]
    bases = [tuple(map(int, label.split("/"))) for label in space.dims[0].levels]
    if cfg.evaluation_mode == "exact":
        return [(bases[selection[0]] + tuple(selection[1:]), cfg.unit_size)]
    shares = apportion_counts(cfg.unit_size, space.slot_ratios)
    return [(b + tuple(selection), n) for b, n in zip(bases, shares) if n > 0]


def fold(dataset, batches):
    """add_many of (world composition, count) batches, placed one composition at a time."""
    cells = dataset.space.cells([c for c, _ in batches])
    return add_many(dataset, cells, [n for _, n in batches])


def random_run(rng):
    """A plain or reduced search space, its world, and a config drawn from rng."""
    base = build_space([(f"b{m}", "abcd"[: int(n)]) for m, n in enumerate(rng.integers(1, 5, 2))])
    nxt = build_space([(f"n{m}", "xyz"[: int(n)]) for m, n in enumerate(rng.integers(1, 4, 2))])
    mode = ["plain", *EVALUATION_MODES][int(rng.integers(3))]
    if mode == "plain":
        space = world = curation_space = base
    else:
        cells = list(np.ndindex(base.shape))
        picked = rng.choice(len(cells), size=int(rng.integers(1, len(cells) + 1)), replace=False)
        weights = rng.integers(1, 6, len(picked))
        support = [(cells[i], w / weights.sum()) for i, w in zip(picked, weights)]
        space = reduced_product(support, nxt)
        world = product_space(base, nxt)
        curation_space = space if mode == "exact" else new_factor_subspace(space)
    initial = None
    if rng.random() < 0.5:  # repeated cells on purpose
        cells = list(np.ndindex(curation_space.shape))
        initial = [cells[i] for i in rng.integers(0, len(cells), int(rng.integers(1, 8)))]
    cfg = FlywheelConfig(
        tau=float(rng.choice([0.5, 0.8, 0.95])),
        unit_size=int(rng.choice([1, 2, 3, 50])),  # 1 to 3 leave some slot shares at 0
        k=int(rng.choice([1, 3])),
        max_iterations=int(rng.integers(1, 4)),
        evaluation_mode="exact" if mode == "exact" else "ratio_guided",
        initial_compositions=initial,
    )
    seed = int(rng.integers(2**63))
    params = OracleParams(kappa0=40.0, beta=1.0, p_max=1.0, blacklist=(), seed=seed)
    return space, world, curation_space, cfg, params


def test_array_fold_equals_per_slot_demo_batches():
    rng = np.random.default_rng(2024)
    seen = set()
    for case in range(150):
        space, world, curation_space, cfg, params = random_run(rng)
        sizes = []
        real_add_many = facil.flywheel.add_many

        def counted(dataset, cells, counts):
            sizes.append(len(cells))
            return real_add_many(dataset, cells, counts)

        with mock.patch.object(facil.flywheel, "add_many", counted):
            history = run_flywheel(space, params, cfg, world=world)

        init = cfg.initial_compositions or diagonal_init(curation_space)
        batches = [wb for c in init for wb in per_slot_batches(space, cfg, c)]
        expected = fold(Dataset(world), batches)
        expected_sizes = [len(batches)]
        assert history.initial_dataset == expected, case
        for rec in history.records:
            if rec.trace.steps:
                batches = [
                    wb for s in rec.trace.steps for wb in per_slot_batches(space, cfg, s.selected)
                ]
                expected = fold(expected, batches)
                expected_sizes.append(len(batches))
            assert rec.dataset_after == expected, case
        assert sizes == expected_sizes, case
        mode = cfg.evaluation_mode if space.slot_ratios else "plain"
        zero_share = space.slot_ratios is not None and 0 in apportion_counts(
            cfg.unit_size, space.slot_ratios
        )
        seen.add((mode, zero_share and mode == "ratio_guided", len(history.records) > 1))
    assert {m for m, _, _ in seen} == {"plain", "exact", "ratio_guided"}
    assert ("ratio_guided", True, True) in seen  # zero shares, and batches past the first pass
