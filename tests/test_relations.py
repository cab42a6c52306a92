"""Metamorphic relations between runs: one run checked against another, no reference.

A run capped at ``max_iterations`` m is the first m iterations of the same
run with a larger cap: the loop reads nothing of the cap but the bound.
This holds for a plain ``run_flywheel`` and for every stage that a capped
``sequential_expansion`` runs, in each evaluation mode (a stage that does
not converge ends the chain, so the capped chain may stop early).  Spaces
are small and transfer is weak, so that runs iterate.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from facil.flywheel import FlywheelConfig, RunHistory, run_flywheel, sequential_expansion  # noqa: E402
from facil.oracle import OracleParams  # noqa: E402
from facil.spaces import build_space  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def grid(shape: tuple[int, ...], prefix: str = "d"):
    return build_space([(f"{prefix}{m}", [str(v) for v in range(n)]) for m, n in enumerate(shape)])


def shapes(min_dims: int, max_dims: int):
    return st.lists(st.integers(2, 4), min_size=min_dims, max_size=max_dims).map(tuple)


@st.composite
def setups(draw):
    """Weak-transfer oracle constants, a loop config, and a cap below its max_iterations."""
    params = OracleParams(
        kappa0=draw(st.sampled_from([20.0, 40.0, 80.0])),
        beta=draw(st.sampled_from([0.0, 0.25, 1.0])),
        p_max=draw(st.sampled_from([1.0, 0.97])),
        blacklist=frozenset(),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    cfg = FlywheelConfig(
        tau=draw(st.sampled_from([0.8, 0.9, 0.95])),
        unit_size=draw(st.sampled_from([5, 20, 50])),
        k=draw(st.integers(2, 6)),
        max_iterations=draw(st.integers(2, 6)),
    )
    cap = draw(st.integers(1, cfg.max_iterations - 1))
    return params, cfg, cap


def check_prefix(capped: RunHistory, full: RunHistory, cap: int) -> int:
    """The capped history's records are the first ones of the full run's, and no more.

    Returns how many iterations the full run went past the cap: a relation
    checked only on runs that stop before their cap would show nothing.
    """
    assert capped.stage == full.stage and capped.space == full.space
    assert capped.initial_dataset == full.initial_dataset
    assert len(capped.records) == min(cap, len(full.records))
    for got, want in zip(capped.records, full.records):
        assert got.iteration == want.iteration
        assert got.report == want.report
        assert got.trace == want.trace
        assert got.dataset_before == want.dataset_before
        assert got.dataset_after == want.dataset_after
    return len(full.records) - cap


def test_a_capped_plain_run_is_the_first_iterations_of_a_longer_one():
    past_cap = []

    @SETTINGS
    @given(shape=shapes(1, 4), setup=setups())
    def property_(shape, setup):
        params, cfg, cap = setup
        space = grid(shape)
        full = run_flywheel(space, params, cfg)
        capped = run_flywheel(space, params, dataclasses.replace(cfg, max_iterations=cap))
        past_cap.append(check_prefix(capped, full, cap))
        assert capped.converged == (full.converged and len(full.records) <= cap)

    property_()
    assert max(past_cap) > 0


@pytest.mark.parametrize("mode", ["exact", "ratio_guided"])
def test_a_capped_expansion_runs_the_first_iterations_of_each_stage(mode):
    past_cap: dict[str, list[int]] = {"O": [], "OA": []}

    # more examples: a chain reaches its second stage only if its first converges within the cap
    @settings(SETTINGS, max_examples=150)
    @given(first=shapes(1, 2), second=shapes(1, 2), setup=setups())
    def property_(first, second, setup):
        params, cfg, cap = setup
        cfg = dataclasses.replace(cfg, evaluation_mode=mode)
        stages = [grid(first, "a"), grid(second, "b")]
        full = sequential_expansion(stages, params, cfg)
        capped = sequential_expansion(stages, params, dataclasses.replace(cfg, max_iterations=cap))
        assert 1 <= len(capped) <= len(full)
        for capped_stage, full_stage in zip(capped, full):
            past_cap[full_stage.stage].append(check_prefix(capped_stage, full_stage, cap))
        # every stage before the last converged, so the full chain ran it the same way
        assert all(h.converged for h in capped[:-1])

    property_()
    assert max(past_cap["O"]) > 0 and max(past_cap["OA"]) > 0
