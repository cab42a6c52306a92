"""Acceptance gate: one test per release criterion, one printed line each.

Every test times its own body against the criterion's runtime budget and
prints "[criterion N] PASS (…)" through the capture plug so the line shows
up in a normal pytest run; assertion details land in the FAIL line.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from facil.analysis import (
    compare_strategies,
    compositionality_check,
    fit_power_law,
    bundled_rates,
    generalization_gap,
    load_rate_table,
)
from facil.cli import main
from facil.curation import aggregated_tensor, curate_expansion
from facil.dataset import Dataset, DemoBatches, add_many
from facil.flywheel import FlywheelConfig, rollout_budget, run_flywheel, sequential_expansion
from facil.oracle import OracleParams, default_family, default_params, success_tensor
from facil.spaces import build_space, preset_space
from reference import hypercube_span


@contextmanager
def criterion(capsys, number: int, time_limit: float, note: dict):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_limit, f"took {elapsed:.3f}s, limit {time_limit}s"
    except BaseException as exc:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL: {exc}")
        raise
    with capsys.disabled():
        detail = note.get("detail", "")
        print(f"[criterion {number}] PASS ({elapsed:.3f}s) {detail}".rstrip())


def test_criterion_1_budget_arithmetic(capsys):
    note: dict = {}
    with criterion(capsys, 1, 1.0, note):
        rollout_budget(24, 16, 7, 5)  # warm the code path, then time the call
        start = time.perf_counter()
        report = rollout_budget(24, 16, 7, 5)
        call_elapsed = time.perf_counter() - start

        assert report.full_possibilities == 384
        assert report.full_rollouts == 1920
        assert report.reduced_possibilities == 168
        assert report.sampled_rollouts == 120
        assert report.speedup == 16.0
        assert call_elapsed < 0.001, f"single call took {call_elapsed * 1e6:.0f}us"
        note["detail"] = f"384/1920/168/120/16.0 in {call_elapsed * 1e6:.0f}us"


def brute_force_scores(grid: np.ndarray) -> np.ndarray:
    """Per-cell double loop; the inner sum over all other cells is one
    numpy reduction so 200 instances stay inside the time budget."""
    n = grid.ndim
    coords = np.indices(grid.shape).reshape(n, -1)
    flat = grid.reshape(-1)
    out = np.zeros(flat.size)
    for pos, idx in enumerate(itertools.product(*(range(s) for s in grid.shape))):
        shared = np.zeros(flat.size)
        for m in range(n):
            shared += coords[m] == idx[m]
        out[pos] = float(shared @ flat) - (n - 1) * flat[pos]
    return out.reshape(grid.shape)


def test_criterion_2_aggregated_tensor_equivalence(capsys):
    note: dict = {}
    with criterion(capsys, 2, 5.0, note):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(200):
            ndim = int(rng.integers(2, 5))
            shape = tuple(int(rng.integers(2, 7)) for _ in range(ndim))
            grid = rng.random(shape)
            got = aggregated_tensor(grid)
            worst = max(worst, float(np.max(np.abs(got - brute_force_scores(grid)))))
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"
        note["detail"] = f"200 tensors, worst |delta| {worst:.1e}"


def replay_expansion(rates, dataset, tau, unit_size, batches, after, trace):
    """Independent step-by-step replay of one expansion run."""
    space = dataset.space
    scores = aggregated_tensor(rates)
    cells = list(itertools.product(*map(range, space.shape)))
    marked = {c for c in cells if rates[c] > tau}
    support = set(dataset.support)
    folded = dataset

    assert len(batches) == len(trace.steps)
    for i, step in enumerate(trace.steps):
        unmarked = [c for c in cells if c not in marked]
        assert unmarked, "trace continued after full marking"
        min_s = min(scores[c] for c in unmarked)
        expected = next(c for c in unmarked if scores[c] == min_s)
        assert step.step == i
        assert step.selected == expected, (
            f"step {i} picked {step.selected}, minimal-S tie-break gives {expected}"
        )
        assert step.s_value == scores[expected]
        assert step.batch_size == unit_size
        assert np.unravel_index(batches.cells[i], space.shape) == expected
        assert batches.counts[i] == unit_size

        before = len(marked)
        marked.add(expected)
        for d in support:
            marked |= hypercube_span(expected, d)
        assert step.newly_marked == len(marked) - before
        support.add(expected)
        folded = add_many(folded, DemoBatches(batches.cells[i : i + 1], batches.counts[i : i + 1]))

    assert len(marked) == space.cardinality, "loop ended before full marking"
    assert folded == after


def test_criterion_3_expansion_loop_correctness(capsys):
    note: dict = {}
    with criterion(capsys, 3, 5.0, note):
        rng = np.random.default_rng(303)
        for instance in range(100):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(2, 6)) for _ in range(ndim))
            space = build_space(
                [(f"d{m}", [f"v{v}" for v in range(s)]) for m, s in enumerate(shape)]
            )
            if instance % 2 == 0:
                values = rng.random(space.cardinality)
            else:
                # quarter-step rates make exact score ties common
                values = rng.integers(0, 5, size=space.cardinality) / 4.0
            rates = values.reshape(shape)
            tau = float(rng.uniform(0.05, 0.95))
            counts = {
                c: int(rng.integers(1, 6))
                for c in itertools.product(*map(range, space.shape))
                if rng.random() < 0.3
            }
            dataset = Dataset(space, counts)
            unit = int(rng.integers(1, 9))

            batches, after, trace = curate_expansion(rates, dataset, tau, unit)
            replay_expansion(rates, dataset, tau, unit, batches, after, trace)
        note["detail"] = "100 instances replayed, full marking every time"


def span_fixpoint(comps):
    closed = set(comps)
    changed = True
    while changed:
        changed = False
        snapshot = list(closed)
        for a in snapshot:
            for b in snapshot:
                for c in hypercube_span(a, b):
                    if c not in closed:
                        closed.add(c)
                        changed = True
    return closed


def test_criterion_4_closure_equivalence(capsys):
    note: dict = {}
    with criterion(capsys, 4, 10.0, note):
        rng = np.random.default_rng(404)
        for instance in range(100):
            if instance < 5:
                shape = (8, 8, 8, 8)  # cardinality 4096, the allowed maximum
                t_size = int(rng.integers(1, 3))
            else:
                ndim = int(rng.integers(1, 5))
                shape = tuple(int(rng.integers(2, 9)) for _ in range(ndim))
                while math.prod(shape) > 4096:
                    shape = shape[:-1]
                t_size = int(rng.integers(1, 5))
            comps = {
                tuple(int(rng.integers(0, s)) for s in shape) for _ in range(t_size)
            }
            space = build_space([(f"d{m}", list(map(str, range(n)))) for m, n in enumerate(shape)])
            rates = np.zeros(shape)
            predicted = compositionality_check(space.cells(list(comps)), rates, 0.5).predicted
            assert set(map(tuple, np.argwhere(predicted).tolist())) == span_fixpoint(comps)
        note["detail"] = "100 instances, the check's predicted grid == pairwise-span fixpoint"


def test_criterion_5_scaling_fits(capsys):
    note: dict = {}
    with criterion(capsys, 5, 1.0, note):
        targets = {
            ("pickplace_success_rates.csv", "O"): 0.291,
            ("pickplace_success_rates.csv", "OAE"): 0.101,
            ("openclose_success_rates.csv", "O"): 0.196,
            ("openclose_success_rates.csv", "OA"): 0.172,
            ("openclose_success_rates.csv", "OAE"): 0.087,
        }
        fits = {}
        for name in ("pickplace_success_rates.csv", "openclose_success_rates.csv"):
            grouped = load_rate_table(bundled_rates(name))
            for benchmark, points in grouped.items():
                fits[(name, benchmark)] = fit_power_law(points)
        for key, target in targets.items():
            got = fits[key].alpha
            assert abs(got - target) <= 0.02, f"{key}: alpha {got:.4f} vs {target}"
        # the pickplace OA table is internally consistent at a steeper slope
        oa = fits[("pickplace_success_rates.csv", "OA")].alpha
        assert abs(oa - 0.315) <= 0.02, f"pickplace OA alpha {oa:.4f} vs 0.315"

        synthetic = [(float(n), 1.0 - 2.0 * n**-0.37) for n in (100, 400, 1600, 6400)]
        fit = fit_power_law(synthetic)
        assert abs(fit.alpha - 0.37) <= 1e-9
        assert fit.r_squared >= 1.0 - 1e-12
        note["detail"] = "five anchored rows within 0.02, exact synthetic recovery"


def test_criterion_6_flywheel_minimality(capsys):
    note: dict = {}
    with criterion(capsys, 6, 10.0, note):
        space = preset_space("pnp_object")
        params = default_params(space, 7)
        cfg = FlywheelConfig()
        history = run_flywheel(space, params, cfg)

        assert history.converged
        assert history.records[-1].overall_rate >= cfg.tau
        support = len(history.dataset.support)
        assert support <= 7, f"support size {support} > 7"
        note["detail"] = (
            f"converged in {history.iterations} iteration(s), "
            f"rate {history.records[-1].overall_rate}, support {support}"
        )


def test_criterion_7_data_efficiency_ordering(capsys):
    note: dict = {}
    with criterion(capsys, 7, 120.0, note):
        space = preset_space("pnp_object")
        params = default_params(space, 102)
        cfg = FlywheelConfig(tau=0.95, unit_size=120, k=20, max_iterations=20)
        budgets = [500, 2000, 8000, 16000, 32000, 64000, 128000]
        outcomes = compare_strategies(
            space, params, budgets, cfg, gaussian_mode=(1, 1), gaussian_sigma=0.42
        )

        success = {(o.strategy, o.budget): o.success for o in outcomes}

        def crossing(strategy: str) -> int:
            for budget in budgets:
                if success[(strategy, budget)] >= cfg.tau:
                    return budget
            raise AssertionError(f"{strategy} never reaches tau within the budget grid")

        facil = crossing("facil_ratio")
        mixture = crossing("factors_mixture")
        gaussian = crossing("gaussian")
        assert facil * 3 <= mixture, f"facil {facil} vs mixture {mixture}"
        assert facil * 5 <= gaussian, f"facil {facil} vs gaussian {gaussian}"

        half = gaussian // 2
        assert half in budgets
        gap = success[("facil_ratio", half)] - success[("gaussian", half)]
        assert gap >= 0.30, f"gap at {half} is {gap:.4f}"
        note["detail"] = (
            f"crossings {facil}/{mixture}/{gaussian}, gap at {half} = {gap:.4f}"
        )


def test_criterion_8_generalization_gap(capsys):
    note: dict = {}
    with criterion(capsys, 8, 120.0, note):
        stages = [preset_space("pnp_object"), preset_space("pnp_action")]
        compositional = dataclasses.replace(default_family(7), blacklist=())
        histories = sequential_expansion(stages, compositional, FlywheelConfig())
        assert all(h.converged for h in histories)
        final = histories[-1]

        clean = compositional.params_for(final.world_space)
        _, _, gap_clean = generalization_gap(
            clean, final.dataset, final.space, final.world_space, 20
        )
        assert abs(gap_clean) <= 0.05, f"clean gap {gap_clean:.4f}"

        # same converged dataset, same constants, interaction blacklist injected
        poisoned = default_family(7).params_for(final.world_space)
        assert poisoned.blacklist
        rate_reduced, rate_full, gap_poisoned = generalization_gap(
            poisoned, final.dataset, final.space, final.world_space, 20
        )
        assert gap_poisoned > 0.1, f"injected gap {gap_poisoned:.4f}"
        note["detail"] = (
            f"clean gap {gap_clean:.4f}, injected gap {gap_poisoned:.4f} "
            f"(reduced {rate_reduced:.4f} vs full {rate_full:.4f})"
        )


def test_criterion_9_compositionality_checker(capsys):
    note: dict = {}
    with criterion(capsys, 9, 1.0, note):
        light = build_space(
            [("object_side", ["left", "right"]),
             ("light_direction", ["toward_left", "toward_right"])]
        )
        train = {(1, 0), (0, 1)}
        dataset = Dataset(light, {c: 2400 for c in train})
        params = OracleParams(
            kappa0=230.0,
            beta=690.0,
            p_max=1.0,
            blacklist=frozenset({((0, 0), (1, 0)), ((0, 1), (1, 1))}),
            seed=0,
        )
        probs = success_tensor(params, dataset)
        report = compositionality_check(light.cells(list(train)), probs, 0.8)
        assert report.predicted.all() and report.predicted_size == 4
        assert report.violations == ((0, 0), (1, 1))

        shadow = build_space(
            [("object_height", ["short", "medium", "tall"]),
             ("sun_angle", ["low", "mid", "high"])]
        )
        train2 = {(2, 0), (0, 1)}
        dataset2 = Dataset(shadow, {c: 2400 for c in train2})
        params2 = dataclasses.replace(params, blacklist=frozenset())
        probs2 = success_tensor(params2, dataset2)
        report2 = compositionality_check(shadow.cells(list(train2)), probs2, 0.8)
        assert report2.violations == ()
        both = report2.predicted & report2.empirical
        assert both[2, 1] and both[0, 0]
        note["detail"] = "blocked cells flagged exactly, clean design has none"


def test_criterion_10_cli_determinism(capsys, tmp_path, monkeypatch):
    note: dict = {}
    with criterion(capsys, 10, 60.0, note):
        table = tmp_path / "rates.csv"
        table.write_text(bundled_rates("pickplace_success_rates.csv"), encoding="utf-8")
        configs = {
            "run": {"space": "pnp_object", "seed": 7},
            "expand": {"stages": ["pnp_object", "oc_action"], "seed": 7},
            "compare": {
                "space": "pnp_object",
                "seed": 7,
                "budgets": [100, 300],
                "flywheel": {"k": 2, "max_iterations": 2},
            },
            "fit": {"seed": 7},
            "check-comp": {
                "space": [["object_side", ["left", "right"]],
                          ["light_direction", ["toward_left", "toward_right"]]],
                "seed": 7,
                "oracle": {"blacklist": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]},
                "check": {"train": [[1, 0], [0, 1]]},
            },
            "budget": {"seed": 7},
        }
        extra = {
            "fit": ["--input", str(table)],
            "budget": ["--grid", "24", "--base", "16", "--slots", "7", "--k", "5"],
        }

        for command, doc in configs.items():
            cfg_path = tmp_path / f"{command.replace('-', '_')}.json"
            cfg_path.write_text(json.dumps(doc), encoding="utf-8")
            trees = []
            for variant, threads in (("first", "1"), ("again", "1"), ("mt", "4")):
                out = tmp_path / f"{command}_{variant}"
                monkeypatch.setenv("FACIL_OUT", str(out))
                code = main(
                    [command, "--config", str(cfg_path), "--threads", threads]
                    + extra.get(command, [])
                )
                assert code == 0, f"{command} exited {code}"
                trees.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
                )
            assert trees[0], f"{command} wrote no files"
            assert trees[0] == trees[1], f"{command}: repeat run differs"
            assert trees[0] == trees[2], f"{command}: thread count changed outputs"
        monkeypatch.delenv("FACIL_OUT")
        note["detail"] = "6 commands, repeat and 4-thread runs byte-identical"
