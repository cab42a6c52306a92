"""Command-line interface: config validation, commands, and output files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from facil.cli import ConfigError, build_config, main, parse_config
from facil.flywheel import FlywheelConfig
from facil.oracle import DEFAULT_BETA, DEFAULT_BLACKLIST, DEFAULT_KAPPA0, DEFAULT_P_MAX


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
    assert config.space_selector == "pnp_object"
    assert config.stage_selectors == ("pnp_object", "pnp_action", "environment")
    assert config.seed == 0
    assert (config.kappa0, config.beta, config.p_max) == (
        DEFAULT_KAPPA0,
        DEFAULT_BETA,
        DEFAULT_P_MAX,
    )
    assert config.blacklist == DEFAULT_BLACKLIST
    assert config.flywheel == FlywheelConfig()
    assert config.budgets == (500, 2000, 8000, 32000, 128000)
    assert config.gaussian_mode is None
    assert config.train is None
    assert config.out_dir == "facil_out"
    assert config.space().shape == (4, 4)


def test_minimal_config_document():
    config = build_config({"space": "pnp_object", "seed": 7})
    assert config.seed == 7
    assert config.space().shape == (4, 4)


def test_inline_space_selector():
    config = build_config(
        {"space": [["side", ["left", "right"]], ["light", ["l0", "l1", "l2"]]]}
    )
    assert config.space().shape == (2, 3)
    assert [d.name for d in config.space().dims] == ["side", "light"]


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
    assert build_config(config.to_doc()) == config
    assert build_config(config.to_doc()).to_doc() == config.to_doc()


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
        (
            "run",
            '{"flywheel": {"initial_compositions": [[0.7, 0]]}}',
            "flywheel.initial_compositions[0][0]",
        ),
        ("run", '{"seed": 1' + "0" * 5000 + "}", "config"),
        ("run", '{"flywheel": {"unit_size": 4611686018427387904}}', "flywheel.unit_size"),
        (
            "run",
            '{"flywheel": {"unit_size": 4611686018427387904,'
            ' "initial_compositions": [[0, 0], [0, 0], [1, 1], [1, 1]]}}',
            "flywheel.unit_size",
        ),
        ("run", '{"space": [["side", "lr"], [7, [null, 1.5]]]}', "space"),
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


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])
