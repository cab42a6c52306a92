"""Metamorphic relations between runs: one run checked against another, no reference.

- A run capped at ``max_iterations`` m is the first m iterations of the same
  run with a larger cap: the loop reads nothing of the cap but the bound.
  This holds for a plain ``run_flywheel`` and for every stage that a capped
  ``sequential_expansion`` runs, in each evaluation mode (a stage that does
  not converge ends the chain, so the capped chain may stop early).
- Renaming every dimension and level changes the ``history*.json`` files of
  ``run`` and ``expand`` and no other output file: everything else reads
  level indices only.
- Doubling ``unit_size`` and ``kappa0`` together doubles every demo count and
  leaves every success probability, and so every rate, score and selection,
  the same: energy over kappa0 and a stage's count ratios scale by exact
  powers of two.  This holds for plain runs and ``exact``-mode expansions;
  ``ratio_guided`` apportions a batch over slots, which is not linear.
- In every pass that curates, each selection newly marks at least one cell,
  and together they mark every cell not strictly above tau.

Spaces are small and transfer is weak, so that runs iterate.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from facil.cli import main  # noqa: E402
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


def dims_doc(shape: tuple[int, ...], axis: str, level: str) -> list:
    """An inline space: axis m is named ``axis`` + m, its level v ``level`` + v."""
    return [[f"{axis}{m}", [f"{level}{v}" for v in range(n)]] for m, n in enumerate(shape)]


@st.composite
def documents(draw, stages: int) -> tuple[list[tuple[int, ...]], dict]:
    """Stage shapes and a config document without its spaces; weak transfer."""
    oracle = {
        "kappa0": draw(st.sampled_from([20.0, 40.0, 80.0])),
        "beta": draw(st.sampled_from([0.0, 0.25, 1.0])),
        "p_max": draw(st.sampled_from([1.0, 0.97])),
        "blacklist": draw(st.sampled_from([[], [[[0, 0], [1, 1]]]])),
    }
    flywheel = {
        "tau": draw(st.sampled_from([0.8, 0.9, 0.95])),
        "unit_size": draw(st.sampled_from([5, 20, 50])),
        "k": draw(st.integers(2, 6)),
        "max_iterations": draw(st.integers(1, 5)),
        "evaluation_mode": draw(st.sampled_from(["exact", "ratio_guided"])),
    }
    doc = {"seed": draw(st.integers(0, 2**64 - 1)), "oracle": oracle, "flywheel": flywheel}
    return [draw(shapes(1, 3)) for _ in range(stages)], doc


def output_files(command: str, doc: dict) -> tuple[int, dict[str, bytes]]:
    """The exit code and output files, by name, of one command run in process."""
    with tempfile.TemporaryDirectory() as root:
        config, out = Path(root) / "config.json", Path(root) / "out"
        config.write_text(json.dumps({**doc, "out": str(out)}), encoding="utf-8")
        code = main([command, "--config", str(config)])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["run", "expand"])
def test_renaming_every_dimension_and_level_changes_only_the_history_files(monkeypatch, command):
    monkeypatch.delenv("FACIL_OUT", raising=False)
    codes, seen = [], set()

    @settings(SETTINGS, max_examples=50)
    @given(drawn=documents(1 if command == "run" else 2))
    def property_(drawn):
        shapes_, doc = drawn

        def named(axis: str, level: str) -> dict:
            stages = [dims_doc(shape, f"{stage}{axis}", level) for stage, shape in zip("ab", shapes_)]
            return {**doc, "space": stages[0]} if command == "run" else {**doc, "stages": stages}

        code, files = output_files(command, named("d", ""))
        renamed_code, renamed = output_files(command, named("axis_", "level "))
        codes.append(code)
        seen.update(files)
        assert (renamed_code, sorted(renamed)) == (code, sorted(files))
        history = {name for name in files if name.startswith("history")}
        assert history and all(files[name] != renamed[name] for name in history)
        assert all(files[name] == renamed[name] for name in set(files) - history)

    property_()
    assert 1 in codes  # some runs stop short of tau, so they curated
    assert command == "run" or "history_OA.json" in seen


def check_doubled(plain: RunHistory, twice: RunHistory) -> int:
    """Same rates CSVs, selections and scores, every count doubled; returns the selections."""
    assert twice.converged == plain.converged
    assert np.array_equal(twice.initial_dataset.grid, 2 * plain.initial_dataset.grid)
    assert len(twice.records) == len(plain.records)
    for got, want in zip(twice.records, plain.records):
        assert got.report.to_csv() == want.report.to_csv()
        assert np.array_equal(got.trace.cells, want.trace.cells)
        assert np.array_equal(got.trace.scores, want.trace.scores)
        assert np.array_equal(got.dataset_after.grid, 2 * want.dataset_after.grid)
    return sum(len(rec.trace.cells) for rec in plain.records)


def doubled(params: OracleParams, cfg: FlywheelConfig) -> tuple[OracleParams, FlywheelConfig]:
    return (
        dataclasses.replace(params, kappa0=2 * params.kappa0),
        dataclasses.replace(cfg, unit_size=2 * cfg.unit_size),
    )


def test_doubling_unit_size_and_kappa0_doubles_only_the_counts():
    selections = []

    @settings(SETTINGS, max_examples=40)
    @given(shape=shapes(1, 4), setup=setups())
    def property_(shape, setup):
        params, cfg, _ = setup
        space = grid(shape)
        plain, twice = run_flywheel(space, params, cfg), run_flywheel(space, *doubled(params, cfg))
        selections.append(check_doubled(plain, twice))

    property_()
    assert max(selections) > 0


def test_doubling_unit_size_and_kappa0_in_an_exact_expansion_doubles_only_the_counts():
    second = []

    @settings(SETTINGS, max_examples=60)
    @given(first=shapes(1, 2), then=shapes(1, 2), setup=setups())
    def property_(first, then, setup):
        params, cfg, _ = setup
        cfg = dataclasses.replace(cfg, evaluation_mode="exact")
        stages = [grid(first, "a"), grid(then, "b")]
        plain = sequential_expansion(stages, params, cfg)
        twice = sequential_expansion(stages, *doubled(params, cfg))
        assert len(twice) == len(plain)
        counts = [check_doubled(p, t) for p, t in zip(plain, twice)]
        if len(plain) == 2:
            second.append(counts[1])

    property_()
    assert second and max(second) > 0


def check_marks(history: RunHistory) -> int:
    """Each curating pass's newly_marked: all >= 1, summing to the cells not above tau.

    Returns how many cells of those passes sit exactly at tau.
    """
    tau, at_tau = history.config.tau, 0
    for rec in history.records:
        if rec.overall_rate >= tau:
            assert len(rec.trace.cells) == 0
            continue
        newly = rec.trace.newly_marked
        assert len(newly) and newly.min() >= 1
        assert newly.sum() == np.count_nonzero(rec.report.rates <= tau)
        at_tau += np.count_nonzero(rec.report.rates == tau)
    return at_tau


@pytest.mark.parametrize("mode", [None, "exact", "ratio_guided"])
def test_each_selection_marks_a_new_cell_and_a_pass_marks_every_cell_at_or_below_tau(mode):
    at_tau = []

    @settings(SETTINGS, max_examples=40)
    @given(first=shapes(1, 3), then=shapes(1, 2), setup=setups(), k=st.sampled_from([5, 10, 20]))
    def property_(first, then, setup, k):
        params, cfg, _ = setup
        cfg = dataclasses.replace(cfg, k=k)  # a rate n / k can sit exactly at each tau
        if mode is None:
            histories = [run_flywheel(grid(first), params, cfg)]
        else:
            cfg = dataclasses.replace(cfg, evaluation_mode=mode)
            histories = sequential_expansion([grid(first, "a"), grid(then, "b")], params, cfg)
        at_tau.extend(map(check_marks, histories))

    property_()
    assert max(at_tau) > 0
