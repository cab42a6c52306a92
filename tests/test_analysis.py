"""Scaling fits, baseline samplers, strategy comparison, design checks."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from facil import analysis
from facil.analysis import (
    STRATEGY_NAMES,
    ScalingFit,
    StrategyOutcome,
    baseline_sampler,
    bundled_rates,
    compare_strategies,
    comparison_csv,
    compositionality_check,
    fit_power_law,
    generalization_gap,
    load_rate_table,
    scaling_csv,
    stream_tag,
    truncate_history,
    violations_csv,
)
from facil.cli import main
from facil.dataset import Dataset
from facil.flywheel import FlywheelConfig, run_flywheel, sequential_expansion
from facil.oracle import (
    OracleParams,
    default_family,
    default_params,
    success_tensor,
)
from facil.spaces import build_space, preset_space
import reference


def test_stream_tag_distinguishes_names():
    assert stream_tag("gaussian") == stream_tag("gaussian")
    assert stream_tag("gaussian") != stream_tag("factors_mixture")


def test_scaling_fit_needs_two_points():
    with pytest.raises(ValueError):
        ScalingFit(alpha=0.5, log_c=0.0, r_squared=1.0, n_points=1)


def test_fit_needs_demo_counts_that_fix_a_slope():
    # numpy's fit only warned here and returned a slope the points do not determine
    for points in ([(10, 0.5), (10, 0.6)], [(10.0, 0.5), (10.0 * (1 + 1e-15), 0.6)]):
        with pytest.raises(ValueError, match="^the demo counts do not determine a slope"):
            fit_power_law(points)


def test_two_point_fit_is_exact():
    fit = fit_power_law([(1000.0, 0.5), (4000.0, 0.75)])
    # failure halves as N quadruples: alpha = log(2)/log(4) = 1/2
    assert abs(fit.alpha - 0.5) < 1e-12
    assert fit.r_squared == 1.0
    assert fit.n_points == 2


def test_synthetic_power_law_recovered_exactly():
    alpha, c = 0.37, 2.0
    points = [(float(n), 1.0 - c * n**-alpha) for n in (100, 400, 1600, 6400, 25600)]
    fit = fit_power_law(points)
    assert abs(fit.alpha - alpha) < 1e-9
    assert abs(math.exp(fit.log_c) - c) < 1e-9
    assert fit.r_squared >= 1.0 - 1e-12


def test_a_fit_off_the_power_law_reports_its_r_squared():
    """Three points not on one power law give r2 below 1, pinned by value; success 0 is a point."""
    fit = fit_power_law([(10, 0.0), (100, 0.5), (1000, 0.8)])
    assert fit.n_points == 3
    assert abs(fit.r_squared - 0.9936331438032057) < 1e-12


def test_fit_invariant_under_axis_rescaling():
    rng = np.random.default_rng(17)
    success = np.clip(1.0 - 1.5 * np.array([200, 400, 800, 1600]) ** -0.3
                      + rng.normal(0, 0.01, 4), 0.0, 0.999)
    points = list(zip([200.0, 400.0, 800.0, 1600.0], success))
    fit = fit_power_law(points)
    scaled = fit_power_law([(n * 1000.0, s) for n, s in points])
    assert abs(fit.alpha - scaled.alpha) < 1e-12


def test_fit_drops_saturated_points_with_warning():
    points = [(100.0, 0.5), (200.0, 1.0), (400.0, 0.75)]
    with pytest.warns(UserWarning, match="dropped 1 point"):
        fit = fit_power_law(points)
    assert fit.n_points == 2
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            fit_power_law([(100.0, 1.0), (200.0, 0.5)])
    with pytest.raises(ValueError):
        fit_power_law([(0.0, 0.5), (200.0, 0.5)])
    with pytest.raises(ValueError):
        fit_power_law([(100.0, -0.1), (200.0, 0.5)])
    # NaN used to fit NaNs, and an infinite count reached LAPACK
    inf, nan = float("inf"), float("nan")
    for bad in ((100.0, nan), (nan, 0.5), (inf, 0.5), (100.0, inf)):
        with pytest.raises(ValueError, match="points must be finite"):
            fit_power_law([bad, (200.0, 0.5), (400.0, 0.75)])


def test_factors_mixture_spreads_over_grid():
    space = preset_space("pnp_object")
    d = baseline_sampler("factors_mixture", space, 4000, 12)
    assert d.total == 4000
    # uniform multinomial at 250/cell expected: every cell occupied
    assert len(d.support) == space.cardinality


def test_gaussian_concentrates_as_sigma_shrinks():
    space = preset_space("pnp_object")
    d = baseline_sampler("gaussian", space, 500, 12, mode=(2, 3), sigma=0.01)
    assert d.support == frozenset({(2, 3)})
    assert d.grid[2, 3] == 500


def test_gaussian_default_mode_is_grid_center():
    space = preset_space("environment")  # 3x3: center (1, 1)
    d = baseline_sampler("gaussian", space, 300, 12, sigma=0.01)
    assert d.support == frozenset({(1, 1)})


def test_gaussian_mass_decays_from_mode():
    space = build_space([("a", [f"a{i}" for i in range(5)])])
    d = baseline_sampler("gaussian", space, 100_000, 3, mode=(2,), sigma=1.0)
    counts = d.grid.tolist()
    assert counts[2] == max(counts)
    assert counts[1] > counts[0] and counts[3] > counts[4]


def dense_gaussian_probabilities(space, mode, sigma):
    """The former form: squared offsets from a dense (ndim x cells) index grid."""
    mode = analysis._gaussian_mode(space, mode, sigma)
    index_grids = np.indices(space.shape).reshape(space.ndim, -1)
    centered = index_grids - np.asarray(mode, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore"):
        logits = -np.sum(centered**2, axis=0) / (2.0 * sigma * sigma)
    logits -= logits.max()
    probs = np.exp(logits)
    return probs / probs.sum()


def test_gaussian_probabilities_equal_the_dense_form_bit_for_bit():
    """Per-axis terms summed in axis order give the dense index grid's floats."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        mode = draw(st.none() | st.tuples(*(st.integers(0, n - 1) for n in shape)))
        sigma = draw(st.sampled_from([1e-160, 1e-3, 0.42, 1.0, 1e3]) | st.floats(1e-160, 1e3))
        return shape, mode, sigma

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=cases())
    def property_(case):
        shape, mode, sigma = case
        space = build_space([(f"d{m}", [str(j) for j in range(n)]) for m, n in enumerate(shape)])
        got = analysis._gaussian_probabilities(space, mode, sigma)
        expected = dense_gaussian_probabilities(space, mode, sigma)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), case

    property_()


def test_sampler_determinism_and_validation():
    space = preset_space("pnp_object")
    a = baseline_sampler("factors_mixture", space, 1000, 5)
    b = baseline_sampler("factors_mixture", space, 1000, 5)
    c = baseline_sampler("factors_mixture", space, 1000, 6)
    assert a == b
    assert a != c
    # the two baseline families use separate streams at the same seed
    g = baseline_sampler("gaussian", space, 1000, 5, sigma=5.0)
    assert g != a
    with pytest.raises(ValueError):
        baseline_sampler("facil_ratio", space, 10, 0)
    with pytest.raises(ValueError):
        baseline_sampler("factors_mixture", space, -1, 0)
    # 2.5 used to draw 2 demos
    with pytest.raises(ValueError, match="^n_demos: must be an integer"):
        baseline_sampler("factors_mixture", space, 2.5, 7)
    with pytest.raises(ValueError):
        baseline_sampler("gaussian", space, 10, 0, sigma=0.0)
    # 2 * sigma * sigma underflows to 0 here, which would make NaN logits
    with pytest.raises(ValueError, match="sigma"):
        baseline_sampler("gaussian", space, 10, 0, sigma=1e-200)
    narrow = baseline_sampler("gaussian", space, 10, 0, mode=(1, 2), sigma=1e-160)
    assert narrow.grid[1, 2] == 10


def test_strategy_outcome_validation():
    with pytest.raises(ValueError):
        StrategyOutcome("surprise", "O", 10, 0.5)
    with pytest.raises(ValueError):
        StrategyOutcome("gaussian", "O", -1, 0.5)
    with pytest.raises(ValueError):
        StrategyOutcome("gaussian", "O", 10, 1.5)


def test_truncate_history_picks_last_affordable_state():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    params = OracleParams(
        kappa0=1e9, beta=0.0,
        p_max=1.0, blacklist=frozenset(), seed=3,
    )
    history = run_flywheel(space, params, FlywheelConfig(max_iterations=3))
    init_total = history.initial_dataset.total

    assert truncate_history(history, init_total - 1).total == 0
    assert truncate_history(history, init_total) == history.initial_dataset
    mid = history.records[0].dataset_after
    assert truncate_history(history, mid.total) == mid
    assert truncate_history(history, 10**9) == history.dataset


def test_compare_strategies_layout_and_reproducibility():
    space = preset_space("pnp_object")
    params = default_params(space, 7)
    cfg = FlywheelConfig(k=2, max_iterations=2)
    budgets = [100, 400]
    first = compare_strategies(space, params, budgets, cfg, gaussian_sigma=1.0)
    second = compare_strategies(space, params, budgets, cfg, gaussian_sigma=1.0)

    assert [(o.strategy, o.budget) for o in first] == [
        (s, b) for s in sorted(STRATEGY_NAMES) for b in budgets
    ]
    assert first == second
    assert comparison_csv(first) == comparison_csv(second)
    # params.seed is the only seed: every stream follows it
    other = compare_strategies(space, default_params(space, 8), budgets, cfg, gaussian_sigma=1.0)
    assert [o.success for o in other] != [o.success for o in first]
    lines = comparison_csv(first).splitlines()
    assert lines[0] == "strategy,benchmark,budget,success"
    assert len(lines) == 1 + len(first)

    with pytest.raises(ValueError):
        compare_strategies(space, params, [400, 100], cfg)
    with pytest.raises(ValueError, match="^budgets must be >= 0$"):
        compare_strategies(space, params, [-1, 5], cfg)
    # this used to fail as "budgets must be sorted ascending"
    with pytest.raises(ValueError, match="^budgets: must be an integer"):
        compare_strategies(space, params, [2.5], cfg)

    # a subset of the strategies gives their rows of the full comparison
    subset = ("gaussian", "factors_mixture", "gaussian")
    picked = compare_strategies(space, params, budgets, cfg, gaussian_sigma=1.0, strategies=subset)
    assert picked == [o for o in first if o.strategy in subset]
    with pytest.raises(ValueError, match=r"^unknown strategies \['uniform'\]"):
        compare_strategies(space, params, budgets, cfg, strategies=["gaussian", "uniform"])


@pytest.mark.parametrize(
    "mode, sigma", [(None, 1e-200), (None, -1.0), ((4, 0), 1.0), ((0, 0, 0), 1.0)]
)
def test_compare_strategies_checks_gaussian_settings_before_the_run(monkeypatch, mode, sigma):
    import facil.analysis

    space = preset_space("pnp_object")
    params = default_params(space, 7)
    cfg = FlywheelConfig(k=2, max_iterations=2)
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return run_flywheel(*args, **kwargs)

    monkeypatch.setattr(facil.analysis, "run_flywheel", counted)
    with pytest.raises(ValueError) as sampler_error:
        baseline_sampler("gaussian", space, 10, 0, mode=mode, sigma=sigma)
    with pytest.raises(ValueError) as compare_error:
        compare_strategies(space, params, [100], cfg, gaussian_mode=mode, gaussian_sigma=sigma)
    assert str(compare_error.value) == str(sampler_error.value)
    assert runs == []
    compare_strategies(space, params, [100], cfg, gaussian_mode=(1, 2), gaussian_sigma=0.5)
    assert len(runs) == 1


def test_transfer_ablation_removes_curation_advantage():
    """With beta = 0 the oracle rewards only direct coverage, so curated
    and uniform sampling need comparable budgets to cross tau."""
    space = preset_space("pnp_object")
    params = dataclasses.replace(default_params(space, 7), beta=0.0)
    cfg = FlywheelConfig(tau=0.8, unit_size=50, k=20, max_iterations=300)
    budgets = list(range(1000, 17000, 1000))
    outcomes = compare_strategies(space, params, budgets, cfg)
    success = {(o.strategy, o.budget): o.success for o in outcomes}

    def crossing(strategy):
        for b in budgets:
            if success[(strategy, b)] >= cfg.tau:
                return b
        raise AssertionError(f"{strategy} never crossed tau")

    facil = crossing("facil_ratio")
    mixture = crossing("factors_mixture")
    assert facil >= 0.8 * mixture, f"facil {facil} vs mixture {mixture}"


def test_generalization_gap_zero_without_blacklist():
    stages = [preset_space("pnp_object"), preset_space("pnp_action")]
    compositional = dataclasses.replace(default_family(7), blacklist=())
    histories = sequential_expansion(stages, compositional, FlywheelConfig())
    assert all(h.converged for h in histories)
    h = histories[1]
    params = compositional.params_for(h.world_space)
    rate_reduced, rate_full, gap = generalization_gap(
        params, h.dataset, h.space, h.world_space, 20
    )
    assert rate_reduced == 1.0
    assert rate_full == 1.0
    assert gap == 0.0
    again = generalization_gap(params, h.dataset, h.space, h.world_space, 20)
    assert (rate_reduced, rate_full, gap) == again
    with pytest.raises(ValueError, match="^full benchmark shape .* does not match dataset"):
        generalization_gap(params, h.dataset, h.space, h.space, 20)


def test_compositionality_check_flags_blocked_cells():
    space = build_space(
        [("object_side", ["left", "right"]),
         ("light_direction", ["toward_left", "toward_right"])]
    )
    train = {(1, 0), (0, 1)}
    d = Dataset(space, {c: 2400 for c in train})
    params = OracleParams(
        kappa0=230.0, beta=690.0,
        p_max=1.0, blacklist=frozenset({((0, 0), (1, 0)), ((0, 1), (1, 1))}), seed=0,
    )
    probs = success_tensor(params, d)
    report = compositionality_check(space.cells(list(train)), probs, 0.8)

    assert report.predicted.tolist() == [[True, True], [True, True]]
    assert report.violations == ((0, 0), (1, 1))
    assert report.pair_counts == {(0, 1): 2}
    assert report.predicted_size == 4
    assert report.empirical_size == 2

    text = violations_csv(report, probs)
    assert text.splitlines() == [
        "composition_indices,predicted_p_or_rate",
        "0/0,0.0",
        "1/1,0.0",
    ]


def test_compositionality_check_passes_clean_design():
    space = build_space(
        [("object_height", ["short", "medium", "tall"]),
         ("sun_angle", ["low", "mid", "high"])]
    )
    train = {(2, 0), (0, 1)}
    d = Dataset(space, {c: 2400 for c in train})
    params = OracleParams(
        kappa0=230.0, beta=690.0,
        p_max=1.0, blacklist=frozenset(), seed=0,
    )
    report = compositionality_check(space.cells(list(train)), success_tensor(params, d), 0.8)
    assert report.violations == ()
    assert np.argwhere(report.predicted).tolist() == [[0, 0], [0, 1], [2, 0], [2, 1]]
    assert not (report.predicted & ~report.empirical).any()

    with pytest.raises(ValueError):
        compositionality_check(space.cells([]), success_tensor(params, d), 0.8)


def test_compositionality_check_needs_rates_strictly_above_tau():
    space = build_space([("a", ["a0", "a1"]), ("b", ["b0", "b1"])])
    rates = np.array([[0.8, 0.9], [0.9, 0.9]])
    report = compositionality_check(space.cells([(0, 0), (1, 1)]), rates, 0.8)
    assert report.violations == ((0, 0),)


def test_compositionality_check_equals_the_set_reference():
    """The grids, violations, pair counts and violations CSV equal the set-based check's."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        point = st.tuples(*(st.integers(0, n - 1) for n in shape))
        grid = list(itertools.product(*map(range, shape)))
        # a list, so repeats reach the check; or the whole grid
        train = draw(st.lists(point, min_size=1, max_size=8) | st.just(grid))
        tau = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
        # each cell takes one of a few values, so ties at tau, 0 and 1 are common
        value = st.sampled_from([0.0, 1.0, tau]) | st.floats(0.0, 1.0)
        palette = draw(st.lists(value, min_size=1, max_size=6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return shape, train, rng.choice(palette, size=len(grid)), tau

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(case=cases())
    def property_(case):
        shape, train, values, tau = case
        space = build_space([(f"d{m}", [str(j) for j in range(n)]) for m, n in enumerate(shape)])
        rates = values.reshape(shape)
        # the flat cells check-comp passes, repeats and all
        got = compositionality_check(space.cells(train), rates, tau)
        want = reference.compositionality_check(train, rates, tau)
        assert set(map(tuple, np.argwhere(got.predicted).tolist())) == want.predicted
        assert set(map(tuple, np.argwhere(got.empirical).tolist())) == want.empirical
        assert got.predicted_size == want.predicted_size
        assert got.empirical_size == want.empirical_size
        assert got.violations == want.violations
        assert all(type(v) is int for c in got.violations for v in c)
        assert got.pair_counts == want.pair_counts
        assert violations_csv(got, rates) == violations_csv(want, rates)

    property_()


def test_scaling_csv_format():
    fits = {
        "O": ScalingFit(alpha=0.3, log_c=0.1, r_squared=0.99, n_points=5),
        "OA": ScalingFit(alpha=0.2, log_c=0.2, r_squared=0.95, n_points=5),
    }
    lines = scaling_csv(fits).splitlines()
    assert lines[0] == "benchmark,alpha,r2,points"
    assert len(lines) == 3
    assert lines[1].startswith("O,0.3,")


def test_load_rate_table_parses_and_validates():
    grouped = load_rate_table("benchmark,n_demos,success_rate\nO,100,0.5\nO,200,0.6\n")
    assert grouped == {"O": [(100.0, 0.5), (200.0, 0.6)]}
    no_bench = load_rate_table("n_demos,success_rate\n100,0.5\n")
    assert list(no_bench) == ["all"]
    with pytest.raises(ValueError):
        load_rate_table("n,s\n1,2\n")
    with pytest.raises(ValueError):
        load_rate_table("")


def test_bundled_tables_ship_with_the_package():
    for name in ("pickplace_success_rates.csv", "openclose_success_rates.csv"):
        grouped = load_rate_table(bundled_rates(name))
        assert set(grouped) == {"O", "OA", "OAE"}
        assert all(len(points) == 5 for points in grouped.values())


def test_baseline_draws_of_compare_pnp_are_pinned(tmp_path, monkeypatch):
    # Generator.multinomial's stream is not promised across numpy versions (NEP 19);
    # if the compare_pnp golden tree moves on another numpy, this names the layer.
    digests = {"factors_mixture": hashlib.sha256(), "gaussian": hashlib.sha256()}

    def recorded(strategy, *args):  # the datasets compare itself draws, in budget order
        dataset = baseline_sampler(strategy, *args)
        digests[strategy].update(np.ascontiguousarray(dataset.grid, dtype="<i8").tobytes())
        return dataset

    monkeypatch.setattr(analysis, "baseline_sampler", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"space": "pnp_object", "seed": 7, "out": str(tmp_path / "out")}))
    assert main(["compare", "--config", str(config)]) == 0
    assert {strategy: d.hexdigest() for strategy, d in digests.items()} == {
        "factors_mixture": "16125f14db0ae19efe31813166e489df43d06b696fd6c240863944238a9eb117",
        "gaussian": "3aa2098ffe3885d70310e35b485e4764f38e147fe04e0b17e894f0db90716f1b",
    }
