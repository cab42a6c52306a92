"""The benchmark's tracer wraps facil functions where their callers look them up.

bench/tracer.py names each lookup site as "module:attribute.path".  A
refactor that drops or moves one of those names would only show up when the
traced benchmark runs; these tests resolve every site against the package,
and check that a traced run's curation counts are the run's own.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import facil.flywheel
from facil.flywheel import FlywheelConfig, apportion_counts
from facil.oracle import OracleParams, default_family
from facil.spaces import build_space

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "site", sorted(site for sites, _ in tracer.SITES.values() for site in sites)
)
def test_tracer_site_resolves_to_a_callable(site):
    owner, attr = tracer._resolve(site)
    assert callable(getattr(owner, attr, None)), site


def test_traced_curation_counts_are_the_runs_own():
    # A run_flywheel that bound curate_expansion or add_many at import, or a trace
    # whose steps view left its arrays, would still match the benchmark's pinned counts.
    space = build_space([(f"d{m}", [f"l{j}" for j in range(4)]) for m in range(4)])
    params = dataclasses.replace(default_family(7), beta=1.0).params_for(space)
    cfg = FlywheelConfig(tau=0.9)

    def run():
        return facil.flywheel.run_flywheel(space, params, cfg)

    history, metrics, _ = tracer.Tracer().call(run)
    traces = [rec.trace for rec in history.records]
    selections = sum(len(trace.cells) for trace in traces)
    assert selections > 0
    assert metrics["curation.selections"] == selections
    assert metrics["curation.newly_marked"] == sum(int(t.newly_marked.sum()) for t in traces) > 0
    # a plain run folds one unit_size batch per seed cell and per selection
    assert history.dataset.total % cfg.unit_size == 0
    assert metrics["dataset.batches_folded"] == history.dataset.total // cfg.unit_size
    assert metrics["dataset.batches_folded"] == len(history.initial_dataset.support) + selections


def test_traced_batch_count_of_a_ratio_guided_stage_counts_world_batches():
    # A ratio-guided stage folds one world batch per slot with a nonzero share for
    # each seed cell and selection; a fold whose cells kept one row per curation
    # cell would count the rows instead.
    stages = [build_space([(n, [f"{n}{j}" for j in range(4)]) for n in names]) for names in ("ab", "cd")]
    params = OracleParams(kappa0=40.0, beta=1.0, p_max=1.0, blacklist=(), seed=7)
    cfg = FlywheelConfig(tau=0.8, unit_size=10, evaluation_mode="ratio_guided")

    def run():
        return facil.flywheel.sequential_expansion(stages, params, cfg)

    histories, metrics, _ = tracer.Tracer().call(run)
    assert [h.space.slot_ratios is None for h in histories] == [True, False]
    ratios = histories[1].space.slot_ratios
    nonzero = [1, sum(share > 0 for share in apportion_counts(cfg.unit_size, ratios))]
    assert (len(ratios), nonzero[1]) == (16, 10)
    # every seed cell holds unit_size demos, spread over the slots on a reduced stage
    seeded = [h.initial_dataset.total // cfg.unit_size for h in histories]
    selections = [sum(len(rec.trace.cells) for rec in h.records) for h in histories]
    assert [a + b for a, b in zip(seeded, selections)] == [26, 33]
    expected = sum((a + b) * n for a, b, n in zip(seeded, selections, nonzero))
    assert metrics["dataset.batches_folded"] == expected == 356
