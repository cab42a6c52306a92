"""Command-line interface: config validation, commands, and output files."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import facil.analysis
import facil.dataset
import facil.oracle
from facil import cli
from facil.cli import ConfigError, build_config, main, parse_config
from facil.flywheel import FlywheelConfig, RunHistory
from facil.oracle import (
    DEFAULT_BETA,
    DEFAULT_BLACKLIST,
    DEFAULT_KAPPA0,
    DEFAULT_P_MAX,
    OracleParams,
)
from facil.spaces import FactorSpace, preset_space

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def isolated_out(monkeypatch):
    # keep ambient FACIL_OUT from leaking into tests that rely on config out
    monkeypatch.delenv("FACIL_OUT", raising=False)


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_defaults_fill_every_field():
    config = parse_config(None)
    assert config.space == preset_space("pnp_object")
    assert config.stages == tuple(
        preset_space(name) for name in ("pnp_object", "pnp_action", "environment")
    )
    assert config.oracle.seed == 0
    assert (config.oracle.kappa0, config.oracle.beta, config.oracle.p_max) == (
        DEFAULT_KAPPA0,
        DEFAULT_BETA,
        DEFAULT_P_MAX,
    )
    assert config.oracle.blacklist == frozenset(DEFAULT_BLACKLIST)
    assert config.flywheel == FlywheelConfig()
    assert config.budgets == (500, 2000, 8000, 32000, 128000)
    assert config.gaussian_mode is None
    assert config.train is None
    assert config.out_dir == "facil_out"
    assert config.space.shape == (4, 4)


def test_minimal_config_document():
    config = build_config({"space": "pnp_object", "seed": 7})
    assert config.oracle.seed == 7
    assert config.space.shape == (4, 4)


def test_inline_space_selector():
    config = build_config(
        {"space": [["side", ["left", "right"]], ["light", ["l0", "l1", "l2"]]]}
    )
    assert config.space.shape == (2, 3)
    assert [d.name for d in config.space.dims] == ["side", "light"]


def test_config_error_messages_name_field_paths():
    with pytest.raises(ConfigError, match="mystery: unknown configuration key"):
        build_config({"mystery": 1})
    with pytest.raises(ConfigError, match="flywheel.tau"):
        build_config({"flywheel": {"tau": 1.5}})
    with pytest.raises(ConfigError, match=r"stages\[1\]: unknown preset"):
        build_config({"stages": ["pnp_object", "warehouse"]})
    with pytest.raises(ConfigError, match=r"strategies\[0\]"):
        build_config({"strategies": ["surprise"]})
    with pytest.raises(ConfigError, match="budgets"):
        build_config({"budgets": [500, 100]})
    with pytest.raises(ConfigError, match="oracle.blacklist"):
        build_config({"oracle": {"blacklist": [[0, 0]]}})
    with pytest.raises(ConfigError, match="seed"):
        build_config({"seed": -1})
    with pytest.raises(ConfigError, match="gaussian.sigma"):
        build_config({"gaussian": {"sigma": 0}})
    with pytest.raises(ConfigError, match="check.demos_per_composition"):
        build_config({"check": {"demos_per_composition": 0}})


def test_config_document_round_trip():
    doc = {
        "space": "oc_object",
        "stages": ["oc_object", "oc_action"],
        "seed": 11,
        "oracle": {"kappa0": 40.0, "beta": 0.5, "p_max": 0.97, "blacklist": [[[0, 1], [1, 0]]]},
        "flywheel": {"tau": 0.9, "unit_size": 25, "k": 3, "max_iterations": 7,
                     "evaluation_mode": "exact", "initial_compositions": [[0, 0]]},
        "strategies": ["gaussian"],
        "budgets": [10, 20],
        "gaussian": {"mode": [1, 1], "sigma": 0.5},
        "check": {"train": [[0, 0], [1, 1]], "demos_per_composition": 10},
        "out": "results",
    }
    config = build_config(doc)
    assert config.space == preset_space("oc_object")
    assert config.stages == (preset_space("oc_object"), preset_space("oc_action"))
    assert config.oracle == OracleParams(
        kappa0=40.0, beta=0.5, p_max=0.97, blacklist=(((0, 1), (1, 0)),), seed=11
    )
    assert config.flywheel == FlywheelConfig(**doc["flywheel"])
    assert (config.strategies, config.budgets) == (("gaussian",), (10, 20))
    assert (config.gaussian_mode, config.gaussian_sigma) == ((1, 1), 0.5)
    assert (config.train, config.demos_per_composition) == (((0, 0), (1, 1)), 10)
    assert config.out_dir == "results"


def test_missing_or_invalid_config_file(tmp_path, capsys):
    assert main(["budget", "--config", str(tmp_path / "nope.json"),
                 "--grid", "2", "--base", "2", "--slots", "1", "--k", "1"]) == 2
    assert "error: config:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["budget", "--config", str(bad),
                 "--grid", "2", "--base", "2", "--slots", "1", "--k", "1"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_budget_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    code = main(["budget", "--grid", "24", "--base", "16", "--slots", "7", "--k", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "full_possibilities": 384,
        "reduced_possibilities": 168,
        "sampled_rollouts": 120,
        "full_rollouts": 1920,
        "speedup": 16.0,
    }
    assert json.loads((tmp_path / "out" / "budget.json").read_text()) == doc

    assert main(["budget", "--grid", "0", "--base", "16", "--slots", "7", "--k", "5"]) == 2
    assert "error: budget:" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli(tmp_path):
    """``python -m facil.cli``, which README documents, runs ``main`` and exits with its code."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "FACIL_OUT": str(tmp_path / "out"),
    }

    def budget(slots: str) -> subprocess.CompletedProcess:
        argv = ["-m", "facil.cli", "budget", "--grid", "24", "--base", "16", "--slots", slots, "--k", "5"]
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)

    proc = budget("7")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["speedup"] == 16.0
    assert (tmp_path / "out" / "budget.json").read_text() == proc.stdout
    proc = budget("0")
    assert proc.returncode == 2 and proc.stderr.startswith("error: budget:")


# Exits 3 where numpy imports numpy.random with itself (numpy 1.x), which no change in
# facil can avoid; else prints each exit code and the numpy.random modules loaded.
NO_RANDOM_MAIN = """
import json, sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(3)
from facil.cli import main, parse_config
parse_config(None)
codes = [main(["run", "--config", sys.argv[1]]), main(["expand", "--config", sys.argv[2]])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("numpy.random"))]))
"""


def test_run_and_expand_never_import_numpy_random(tmp_path):
    """Only compare's baseline samplers draw from numpy's generators; importing them costs
    a plain run or expand about 6 MB of resident memory and 15 ms."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "FACIL_OUT": str(tmp_path / "out"),
    }
    run = write_config(tmp_path, {"space": "pnp_object", "seed": 7}, "run.json")
    stages = {"stages": ["pnp_object", "pnp_action"], "seed": 7, "flywheel": {"max_iterations": 2}}
    expand = write_config(tmp_path, stages, "expand.json")
    argv = [sys.executable, "-c", NO_RANDOM_MAIN, run, expand]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes[0] in (0, 1) and codes[1] in (0, 1)
    assert loaded == []


def test_budget_base_past_float_range_exits_two(tmp_path, capsys, monkeypatch):
    # speedup is the base as a float; 10**400 has none, 2**1023 still does.
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    args = ["budget", "--grid", "1", "--slots", "1", "--k", "1", "--base"]
    assert main(args + [str(10**400)]) == 2
    assert "error: budget: base_cardinality" in capsys.readouterr().err
    assert not (tmp_path / "out" / "budget.json").exists()
    assert main(args + [str(2**1023)]) == 0
    assert json.loads(capsys.readouterr().out)["speedup"] == float(2**1023)


def test_fit_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    table = tmp_path / "rates.csv"
    table.write_text(
        "benchmark,n_demos,success_rate\n"
        "O,1000,0.5\nO,4000,0.75\n"
        "OA,1000,0.4\nOA,4000,0.6\n"
        "OAE,1000,0.2\nOAE,4000,0.3\n",
        encoding="utf-8",
    )
    assert main(["fit", "--input", str(table)]) == 0
    lines = (tmp_path / "out" / "scaling.csv").read_text().splitlines()
    assert lines[0] == "benchmark,alpha,r2,points"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "O"

    assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 2
    assert "error: fit.input:" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["fit", "--input", str(bad)]) == 2


def test_fit_with_one_distinct_demo_count_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    table = tmp_path / "rates.csv"
    table.write_text("benchmark,n_demos,success_rate\na,10,0.5\na,10,0.6\n", encoding="utf-8")
    assert main(["fit", "--input", str(table)]) == 2
    assert "error: fit.input: the demo counts do not determine a slope" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scaling.csv").exists()


@pytest.mark.parametrize("row", ["200,nan", "inf,0.5", "200"])
def test_fit_rejects_non_finite_or_missing_values(tmp_path, monkeypatch, capsys, row):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    table = tmp_path / "rates.csv"
    table.write_text(f"n_demos,success_rate\n100,0.5\n400,0.7\n{row}\n", encoding="utf-8")
    assert main(["fit", "--input", str(table)]) == 2
    assert "error: fit.input:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scaling.csv").exists()


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("run", '{"oracle": {"kappa0": "abc"}}', "oracle.kappa0"),
        ("run", '{"oracle": {"kappa0": 1e400}}', "oracle.kappa0"),
        ("run", '{"oracle": {"beta": [1]}}', "oracle.beta"),
        ("run", '{"oracle": {"p_max": true}}', "oracle.p_max"),
        ("run", '{"flywheel": {"tau": null}}', "flywheel.tau"),
        ("compare", '{"gaussian": {"sigma": "wide"}}', "gaussian.sigma"),
        ("compare", '{"space": "pnp_object", "gaussian": {"mode": [1]}}', "gaussian.mode"),
        (
            "run",
            '{"space": "pnp_object", "flywheel": {"initial_compositions": [[9, 9]]}}',
            "flywheel.initial_compositions[0]",
        ),
        (
            "expand",
            '{"stages": ["pnp_object"], "flywheel": {"initial_compositions": [[0, 0, 0]]}}',
            "flywheel.initial_compositions[0]",
        ),
        (
            "expand",
            '{"stages": ["pnp_object", "pnp_action"],'
            ' "flywheel": {"initial_compositions": [[0, 0], [1, 1], [2, 2], [3, 3]]}}',
            "flywheel.initial_compositions[0]",
        ),
        (
            "expand",
            '{"stages": ["pnp_object", "oc_action"], "flywheel": {"evaluation_mode": "exact",'
            ' "initial_compositions": [[0, 0], [1, 1], [2, 2], [3, 3]]}}',
            "flywheel.initial_compositions[0]",
        ),
        (
            "expand",
            '{"stages": [[["a", ["0", "1", "2"]], ["c", ["0"]]], [["b", ["0", "1"]]]],'
            ' "flywheel": {"tau": 0.05, "evaluation_mode": "exact",'
            ' "initial_compositions": [[2, 0]]}}',
            "flywheel.initial_compositions",
        ),
        ("expand", '{"stages": ["pnp_action", "oc_action"]}', "stages"),
        ("run", '{"oracle": {"blacklist": [[[-1, 0], [1, 0]]]}}', "oracle.blacklist"),
        ("run", '{"oracle": {"blacklist": [[[0, 1.5], [1, 0]]]}}', "oracle.blacklist[0][0][1]"),
        ("run", '{"flywheel": {"k": true}}', "flywheel.k"),
        ("compare", '{"budgets": [true]}', "budgets[0]"),
        ("compare", '{"budgets": [100000000000000000000000000000]}', "budgets[0]"),
        (
            "check-comp",
            '{"check": {"train": [[0, 0]], "demos_per_composition": 100000000000000000000000}}',
            "check.demos_per_composition",
        ),
        (
            "check-comp",
            '{"check": {"train": [[0, 0], [1, 1]], "demos_per_composition": 9223372036854775807}}',
            "check.demos_per_composition",
        ),
        ("check-comp", '{"check": {"train": [[0, 0], [9, 0]]}}', "check.train[1]"),
        ("check-comp", '{"check": {"train": [[0, 0], [1, 1], [0, 0, 0]]}}', "check.train[2]"),
        (
            "run",
            '{"flywheel": {"initial_compositions": [[0.7, 0]]}}',
            "flywheel.initial_compositions[0][0]",
        ),
        ("run", '{"seed": 1' + "0" * 5000 + "}", "config"),
        ("run", '{"flywheel": {"unit_size": 4611686018427387904}}', "flywheel.unit_size"),
        ("expand", '{"flywheel": {"unit_size": 4611686018427387904}}', "flywheel.unit_size"),
        ("compare", '{"flywheel": {"unit_size": 4611686018427387904}}', "flywheel.unit_size"),
        (
            "run",
            '{"flywheel": {"unit_size": 4611686018427387904,'
            ' "initial_compositions": [[0, 0], [0, 0], [1, 1], [1, 1]]}}',
            "flywheel.unit_size",
        ),
        ("run", '{"space": [["side", "lr"], [7, [null, 1.5]]]}', "space"),
        ("run", '{"space": []}', "space"),
        ("run", '{"space": [["", ["a"]]]}', "space"),
        ("run", '{"oracle": {"blacklist": [[[0, 0, 1], [1, 1]]]}}', "oracle.blacklist[0]"),
        ("expand", '{"stages": ["pnp_object", [["side", ["l", 2]]]]}', "stages[1]"),
        # Rollout draws past any address space, so allocation fails at once.
        ("run", '{"space": "pnp_object", "flywheel": {"k": 10000000000000000}}', "flywheel.k"),
        # Draws numpy cannot even size: it raises ValueError, not MemoryError.
        ("run", '{"space": "pnp_object", "flywheel": {"k": 1000000000000000000}}', "flywheel.k"),
    ],
)
def test_bad_config_values_exit_two_naming_the_field(
    tmp_path, monkeypatch, capsys, command, text, field
):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err


def inline_dims(first: int, count: int, levels: int) -> list:
    return [[f"d{i}", [str(v) for v in range(levels)]] for i in range(first, first + count)]


# 5 axes of 10**4 levels is 10**20 cells: numpy refuses the int64 count grid
# before allocating anything, and so does a 65-axis grid.
@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("run", {"space": inline_dims(0, 5, 10**4)}, "space"),
        ("compare", {"space": inline_dims(0, 5, 10**4)}, "space"),
        ("run", {"space": inline_dims(0, 65, 1)}, "space"),
        ("expand", {"stages": [inline_dims(0, 5, 10**4)]}, "stages[0]"),
    ],
    ids=["run", "compare", "run-65-axes", "expand"],
)
def test_grid_numpy_cannot_size_exits_two_naming_the_field(
    tmp_path, monkeypatch, capsys, command, doc, field
):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


# Run under a 1 GiB address-space limit, so that the grid can never be allocated.
LIMITED_MAIN = """
import resource, sys
from facil.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
sys.exit(main(sys.argv[1:]))
"""


# 6 axes of 100 levels: numpy sizes the 8 TB count grid but cannot allocate it.
@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("run", {"space": inline_dims(0, 6, 100)}, "space"),
        ("compare", {"space": inline_dims(0, 6, 100)}, "space"),
        ("expand", {"stages": ["pnp_object", inline_dims(0, 6, 100)]}, "stages[1]"),
    ],
    ids=["run", "compare", "expand"],
)
def test_grid_the_host_cannot_allocate_exits_two_naming_the_field(tmp_path, command, doc, field):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "FACIL_OUT": str(tmp_path / "out"),
    }
    argv = [sys.executable, "-c", LIMITED_MAIN, command, "--config", write_config(tmp_path, doc)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {field}: the demo count grid does not fit in memory")
    assert "Traceback" not in proc.stderr


def test_undecodable_config_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--config", str(bad)]) == 2
    assert "error: config: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("env", [False, True])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_out_dir_that_cannot_be_created_exits_two(tmp_path, monkeypatch, capsys, env, target):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = str(tmp_path / target)
    doc = {"seed": 7}
    if env:
        monkeypatch.setenv("FACIL_OUT", out)
    else:
        doc["out"] = out
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    field = "FACIL_OUT" if env else "out"
    assert f"error: {field}: cannot create directory" in capsys.readouterr().err


@pytest.mark.parametrize("env", [False, True])
@pytest.mark.parametrize(
    "command, blocked",
    [
        ("run", "summary.json"),
        ("expand", "summary.json"),
        ("check-comp", "check.json"),
        ("budget", "budget.json"),
    ],
)
def test_output_file_that_cannot_be_written_exits_two(tmp_path, monkeypatch, capsys, env, command, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the command writes a file
    doc = {"check": {"train": [[0, 0], [1, 1]]}}
    if env:
        monkeypatch.setenv("FACIL_OUT", str(out))
    else:
        doc["out"] = str(out)
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command == "budget":
        argv += ["--grid", "24", "--base", "16", "--slots", "7", "--k", "5"]
    assert main(argv) == 2
    field = "FACIL_OUT" if env else "out"
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}: cannot write {str(out / blocked)!r} (")
    assert captured.out == ""


def test_run_command_writes_artifacts(tmp_path):
    cfg = write_config(
        tmp_path, {"space": "pnp_object", "seed": 7, "out": str(tmp_path / "out")}
    )
    assert main(["run", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("history.json", "iterations.csv", "dataset.csv", "summary.json",
                 "rates_iter_001.csv"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["overall_rate"] >= 0.8


def test_run_exit_one_when_not_converged(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "space": "pnp_object",
            "seed": 7,
            "oracle": {"kappa0": 1e9, "beta": 0.0},
            "flywheel": {"max_iterations": 1},
            "out": str(tmp_path / "out"),
        },
    )
    assert main(["run", "--config", cfg]) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["converged"] is False


def not_converged_line(history: RunHistory) -> str:
    """The stderr line expected for a history that stopped short of tau."""
    last = history.records[-1]
    below = sum(rate < history.config.tau for rate in last.report.rates.reshape(-1).tolist())
    return (
        f"not converged: stage {history.stage}: {history.iterations} of max_iterations "
        f"{history.config.max_iterations} used, overall rate {last.overall_rate!r} < tau "
        f"{history.config.tau!r}, {below} of {last.report.rates.size} cells below tau\n"
    )


@pytest.mark.parametrize(
    "command, doc, stage",
    [
        ("run", {"space": "pnp_object"}, "O"),
        ("expand", {"stages": ["pnp_object", "pnp_action"]}, "O"),
        # stage O converges, so the line names the second stage
        (
            "expand",
            {
                "stages": [inline_dims(0, 2, 4), inline_dims(2, 2, 3)],
                "seed": 2**64 - 1,
                "oracle": {"beta": 10.0},
                "flywheel": {"tau": 0.9, "evaluation_mode": "exact"},
            },
            "OA",
        ),
        # the default tau 0.8 is 4 of the default k 5 rollouts: 4 of 16 cells sit exactly
        # at tau, and the line counts only the 9 strictly below it
        (
            "run",
            {
                "space": "pnp_object",
                "oracle": {"beta": 0.0, "kappa0": 20.0},
                "flywheel": {"max_iterations": 2},
            },
            "O",
        ),
    ],
)
def test_not_converged_prints_one_stderr_line(tmp_path, capsys, command, doc, stage):
    out = tmp_path / "out"
    base = {"seed": 7, "oracle": {"beta": 0.0}, "flywheel": {"tau": 0.95, "max_iterations": 2}}
    cfg = write_config(tmp_path, {**base, **doc, "out": str(out)})
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    name = "history.json" if command == "run" else f"history_{stage}.json"
    history = RunHistory.from_json((out / name).read_text())
    assert history.stage == stage and not history.converged
    assert captured.err == not_converged_line(history)
    if history.config.tau == 0.8:  # the boundary case: a cell at tau is not below it
        rates = history.records[-1].report.rates.reshape(-1).tolist()
        assert rates.count(0.8) == 4 and "9 of 16 cells below tau" in captured.err


def test_converged_run_prints_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": "pnp_object", "seed": 7, "out": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("oracle", [{"kappa0": 1e-320}, {"beta": 1e308}])
def test_oracle_constants_past_float_range_run_without_a_numpy_warning(tmp_path, capsys, oracle):
    doc = {"space": "pnp_object", "oracle": oracle, "out": str(tmp_path / "out")}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr() == ("", "")


def test_facil_out_env_wins_over_config(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("FACIL_OUT", str(env_dir))
    cfg = write_config(
        tmp_path, {"space": "pnp_object", "seed": 7, "out": str(tmp_path / "cfg_out")}
    )
    assert main(["run", "--config", cfg]) == 0
    assert (env_dir / "history.json").is_file()
    assert not (tmp_path / "cfg_out").exists()


def test_seed_flag_overrides_config_seed(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_seed8 = write_config(
        tmp_path, {"space": "pnp_object", "seed": 8, "out": str(out_a)}, "c8.json"
    )
    cfg_seed7 = write_config(
        tmp_path, {"space": "pnp_object", "seed": 7, "out": str(out_b)}, "c7.json"
    )
    main(["run", "--config", cfg_seed8, "--seed", "7"])
    main(["run", "--config", cfg_seed7])
    assert read_tree(out_a) == read_tree(out_b)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_flag_out_of_range_exits_two(tmp_path, capsys, seed):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"space": "pnp_object", "out": str(out)})
    assert main(["run", "--config", cfg, "--seed", seed]) == 2
    assert "error: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_thread_count_does_not_change_outputs(tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        cfg = write_config(
            tmp_path,
            {"space": "pnp_object", "seed": 7, "out": str(out)},
            f"cfg{threads}.json",
        )
        assert main(["run", "--config", cfg, "--threads", threads]) == 0
        outs.append(read_tree(out))
    assert outs[0] == outs[1]


def test_expand_command(tmp_path):
    cfg = write_config(
        tmp_path,
        {"stages": ["pnp_object", "oc_action"], "seed": 7, "out": str(tmp_path / "out")},
    )
    assert main(["expand", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("history_O.json", "history_OA.json", "iterations_O.csv",
                 "iterations_OA.csv", "dataset_O.csv", "dataset_OA.csv", "summary.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_converged"] is True
    assert [s["stage"] for s in summary["stages"]] == ["O", "OA"]


def test_compare_command_respects_strategy_filter(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "space": "pnp_object",
            "seed": 7,
            "strategies": ["facil_ratio", "gaussian"],
            "budgets": [100, 300],
            "flywheel": {"k": 2, "max_iterations": 2},
            "out": str(tmp_path / "out"),
        },
    )
    assert main(["compare", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "strategy,benchmark,budget,success"
    strategies = {line.split(",")[0] for line in lines[1:]}
    assert strategies == {"facil_ratio", "gaussian"}
    assert len(lines) == 1 + 2 * 2


def test_compare_runs_only_the_configured_strategies(tmp_path, monkeypatch):
    doc = {
        "space": "pnp_object",
        "seed": 7,
        "budgets": [100, 300],
        "flywheel": {"k": 2, "max_iterations": 2},
    }
    full = write_config(tmp_path, {**doc, "out": str(tmp_path / "full")}, "full.json")
    assert main(["compare", "--config", full]) == 0
    runs = mock.Mock(wraps=facil.analysis.run_flywheel)
    monkeypatch.setattr(facil.analysis, "run_flywheel", runs)
    only = {**doc, "strategies": ["gaussian"], "out": str(tmp_path / "gaussian")}
    assert main(["compare", "--config", write_config(tmp_path, only, "gaussian.json")]) == 0
    assert runs.call_count == 0
    lines = (tmp_path / "full" / "comparison.csv").read_text().splitlines()
    kept = [lines[0]] + [line for line in lines[1:] if line.startswith("gaussian,")]
    assert len(kept) == 1 + 2
    assert (tmp_path / "gaussian" / "comparison.csv").read_text().splitlines() == kept


def test_history_files_label_each_grid_and_dataset_once(tmp_path, monkeypatch):
    # the run_weak benchmark: a 10**4 grid whose run evaluates three times
    space = [[f"d{m}", [f"l{j}" for j in range(10)]] for m in range(4)]
    doc = {"space": space, "seed": 7, "oracle": {"beta": 1.0}, "flywheel": {"tau": 0.925}}
    config = write_config(tmp_path, {**doc, "out": str(tmp_path / "out")})
    columns = mock.Mock(wraps=facil.oracle.label_column)
    supports = mock.Mock(wraps=facil.dataset.composition_labels)
    monkeypatch.setattr(facil.oracle, "label_column", columns)
    monkeypatch.setattr(facil.dataset, "composition_labels", supports)
    assert main(["run", "--config", config]) == 0
    rates = sorted((tmp_path / "out").glob("rates_iter_*.csv"))
    assert len(rates) == 3
    assert all(p.read_text().count("\n") == 1 + 10**4 for p in rates)
    assert columns.call_count == 1  # the three rates CSVs share one label column
    # three distinct datasets (the converged pass adds none); the final one is
    # in history.json three times and in dataset.csv
    assert supports.call_count == 3


def test_unit_size_float_ratios_cannot_split_exits_two(tmp_path, capsys):
    # stage OA's slot ratios are 3/7, 2/7 and 2/7; their float quotas of
    # 2**58 floor 91 demos short of the batch
    doc = {
        "stages": ["pnp_object", "environment"],
        "flywheel": {
            "evaluation_mode": "ratio_guided",
            "unit_size": 2**58,
            "tau": 0.3,
            "initial_compositions": [[0, 0]] * 3 + [[1, 1]] * 2 + [[2, 2]] * 2,
        },
        "out": str(tmp_path / "out"),
    }
    assert main(["expand", "--config", write_config(tmp_path, doc)]) == 2
    assert "error: flywheel.unit_size: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_gaussian_sigma_whose_square_underflows_exits_two(tmp_path, capsys):
    def compare(sigma: float) -> int:
        doc = {
            "space": "pnp_object",
            "budgets": [100],
            "flywheel": {"k": 2, "max_iterations": 2},
            "gaussian": {"sigma": sigma},
            "out": str(tmp_path / str(sigma)),
        }
        return main(["compare", "--config", write_config(tmp_path, doc)])

    assert compare(1e-200) == 2
    assert "error: gaussian.sigma: " in capsys.readouterr().err
    assert not (tmp_path / "1e-200" / "comparison.csv").exists()
    assert compare(1e-160) == 0
    assert (tmp_path / "1e-160" / "comparison.csv").exists()


def test_check_comp_command(tmp_path, capsys):
    doc = {
        "space": [["object_side", ["left", "right"]],
                  ["light_direction", ["toward_left", "toward_right"]]],
        "seed": 0,
        "oracle": {"blacklist": [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]},
        "check": {"train": [[1, 0], [0, 1]], "demos_per_composition": 2400},
        "out": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, doc)
    assert main(["check-comp", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "violations.csv").read_text().splitlines() == [
        "composition_indices,predicted_p_or_rate",
        "0/0,0.0",
        "1/1,0.0",
    ]
    check = json.loads((out / "check.json").read_text())
    assert check["predicted_size"] == 4
    assert check["empirical_size"] == 2
    assert check["violations"] == [[0, 0], [1, 1]]
    assert check["pair_violation_counts"] == {"0:1": 2}

    doc.pop("check")
    cfg2 = write_config(tmp_path, doc, "no_train.json")
    assert main(["check-comp", "--config", cfg2]) == 2
    assert "check.train" in capsys.readouterr().err


def test_check_comp_checks_its_training_set_in_bulk(tmp_path, monkeypatch):
    # the training set is checked in bulk, so the FactorSpace.cells calls do not grow with it
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    real_cells = FactorSpace.cells
    calls = []

    def counting_cells(self, comps):
        calls.append(1)
        return real_cells(self, comps)

    monkeypatch.setattr(FactorSpace, "cells", counting_cells)
    space = [[name, [str(v) for v in range(10)]] for name in ("a", "b")]
    counts = []
    for n in (10, 50):
        train = [[i % 10, i // 10] for i in range(n)]
        cfg = write_config(tmp_path, {"space": space, "check": {"train": train}}, f"train_{n}.json")
        calls.clear()
        assert main(["check-comp", "--config", cfg]) == 0
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["run"], cli._cmd_run),
        (["expand"], cli._cmd_expand),
        (["compare"], cli._cmd_compare),
        (["fit", "--input", "rates.csv"], cli._cmd_fit),
        (["check-comp"], cli._cmd_check_comp),
        (["budget", "--grid", "1", "--base", "1", "--slots", "1", "--k", "1"], cli._cmd_budget),
    ],
)
def test_each_command_is_bound_to_its_handler(argv, handler):
    assert cli._parser().parse_args(argv).handler is handler


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    argv = ["budget", "--grid", "24", "--base", "16", "--slots", "7", "--k", "5"]
    assert main(argv) == 0
    first = len(built)
    assert first > 0
    assert main(argv) == 0
    assert len(built) == first
    assert capsys.readouterr().out.count("speedup") == 2


def _planted_fault(*args, **kwargs):
    raise RuntimeError("planted fault")


@pytest.mark.parametrize("layer", ["parse_config", "_resolve_out_dir", "handler", "_write"])
@pytest.mark.parametrize("command", ["run", "expand", "compare", "fit", "check-comp", "budget"])
def test_any_other_failure_exits_three_never_one(tmp_path, monkeypatch, capsys, layer, command):
    monkeypatch.setenv("FACIL_OUT", str(tmp_path / "out"))
    argv = [command, "--config", write_config(tmp_path, {"check": {"train": [[0, 0], [1, 1]]}})]
    if command == "fit":
        argv += ["--input", str(Path(cli.__file__).parent / "data" / "openclose_success_rates.csv")]
    if command == "budget":
        argv += ["--grid", "24", "--base", "16", "--slots", "7", "--k", "5"]
    if layer == "handler":
        parser = cli._parser()

        class ParserWithFaultyHandler:
            def parse_args(self, argv):
                return argparse.Namespace(**dict(vars(parser.parse_args(argv)), handler=_planted_fault))

        monkeypatch.setattr(cli, "_parser", ParserWithFaultyHandler)
    else:
        monkeypatch.setattr(cli, layer, _planted_fault)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: planted fault\n")
