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
from facil.flywheel import FlywheelConfig
from facil.oracle import default_family
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
