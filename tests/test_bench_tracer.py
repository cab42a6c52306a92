"""The benchmark's tracer wraps facil functions where their callers look them up.

bench/tracer.py names each lookup site as "module:attribute.path".  A
refactor that drops or moves one of those names would only show up when the
traced benchmark runs; this test resolves every site against the package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
