"""Command-line front end.

Subcommands: run (single-space flywheel), expand (staged expansion),
compare (strategy comparison), fit (power-law fits from a rate CSV),
check-comp (factor-design checker), budget (rollout arithmetic).  All
outputs are deterministic functions of (config, flags), so reruns produce
byte-identical files.  Exit codes: 0 success, 1 ran but did not converge,
2 configuration or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .analysis import (
    STRATEGY_NAMES,
    comparison_csv,
    compare_strategies,
    compositionality_check,
    fit_power_law,
    load_rate_table,
    scaling_csv,
    violations_csv,
)
from .dataset import Dataset, dataset_to_csv
from .flywheel import (
    FlywheelConfig,
    RunHistory,
    rollout_budget,
    run_flywheel,
    sequential_expansion,
)
from .oracle import (
    DEFAULT_BETA,
    DEFAULT_BLACKLIST,
    DEFAULT_KAPPA0,
    DEFAULT_P_MAX,
    OracleFamily,
    success_tensor,
)
from .spaces import (
    Composition,
    FactorSpace,
    PRESET_NAMES,
    build_space,
    preset_space,
)

DEFAULT_OUT_DIR = "facil_out"
DEFAULT_STAGES = ["pnp_object", "pnp_action", "environment"]
DEFAULT_BUDGETS = [500, 2000, 8000, 32000, 128000]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field path."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown configuration key")


def _finite(value, path: str) -> float:
    """A config number as a finite float; anything else is a ConfigError."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    _fail(path, f"must be a finite number, got {value!r}")
    raise AssertionError("unreachable")


def _check_in_space(space: FactorSpace, comp: Composition, path: str) -> None:
    try:
        space.validate(comp)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _space_selector(value, path: str) -> FactorSpace:
    if isinstance(value, str):
        if value not in PRESET_NAMES:
            _fail(path, f"unknown preset {value!r}; choose from {sorted(PRESET_NAMES)}")
        return preset_space(value)
    if isinstance(value, list):
        try:
            return build_space([(str(name), [str(x) for x in levels]) for name, levels in value])
        except (TypeError, ValueError) as exc:
            _fail(path, f"invalid inline dimension specs ({exc})")
    _fail(path, "must be a preset name or a list of [name, [levels...]] pairs")
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with every default filled in."""

    space_selector: object
    stage_selectors: tuple
    seed: int
    kappa0: float
    beta: float
    p_max: float
    blacklist: tuple
    flywheel: FlywheelConfig
    strategies: tuple[str, ...]
    budgets: tuple[int, ...]
    gaussian_mode: Composition | None
    gaussian_sigma: float
    train: tuple[Composition, ...] | None
    demos_per_composition: int
    out_dir: str

    def space(self) -> FactorSpace:
        return _space_selector(self.space_selector, "space")

    def stage_spaces(self) -> list[FactorSpace]:
        return [
            _space_selector(sel, f"stages[{i}]") for i, sel in enumerate(self.stage_selectors)
        ]

    def family(self) -> OracleFamily:
        return OracleFamily(
            kappa0=self.kappa0,
            beta=self.beta,
            p_max=self.p_max,
            blacklist=self.blacklist,
            seed=self.seed,
        )

    def to_doc(self) -> dict:
        return {
            "space": self.space_selector,
            "stages": list(self.stage_selectors),
            "seed": self.seed,
            "oracle": {
                "kappa0": self.kappa0,
                "beta": self.beta,
                "p_max": self.p_max,
                "blacklist": [[list(a), list(b)] for a, b in self.blacklist],
            },
            "flywheel": self.flywheel.to_doc(),
            "strategies": list(self.strategies),
            "budgets": list(self.budgets),
            "gaussian": {
                "mode": None if self.gaussian_mode is None else list(self.gaussian_mode),
                "sigma": self.gaussian_sigma,
            },
            "check": {
                "train": None if self.train is None else [list(c) for c in self.train],
                "demos_per_composition": self.demos_per_composition,
            },
            "out": self.out_dir,
        }


def build_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document and fill defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    _check_keys(
        doc,
        {
            "space",
            "stages",
            "seed",
            "oracle",
            "flywheel",
            "strategies",
            "budgets",
            "gaussian",
            "check",
            "out",
        },
        "",
    )

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        _fail("seed", f"must be an unsigned 64-bit integer, got {seed!r}")

    space_sel = doc.get("space", "pnp_object")
    _space_selector(space_sel, "space")
    stage_sels = doc.get("stages", DEFAULT_STAGES)
    if not isinstance(stage_sels, list) or not stage_sels:
        _fail("stages", "must be a non-empty list of space selectors")
    for i, sel in enumerate(stage_sels):
        _space_selector(sel, f"stages[{i}]")

    oracle_doc = doc.get("oracle", {})
    if not isinstance(oracle_doc, dict):
        _fail("oracle", "must be an object")
    _check_keys(oracle_doc, {"kappa0", "beta", "p_max", "blacklist"}, "oracle")
    kappa0 = _finite(oracle_doc.get("kappa0", DEFAULT_KAPPA0), "oracle.kappa0")
    if not kappa0 > 0:
        _fail("oracle.kappa0", f"must be > 0, got {kappa0!r}")
    beta = _finite(oracle_doc.get("beta", DEFAULT_BETA), "oracle.beta")
    if beta < 0:
        _fail("oracle.beta", f"must be >= 0, got {beta!r}")
    p_max = _finite(oracle_doc.get("p_max", DEFAULT_P_MAX), "oracle.p_max")
    if not 0 < p_max <= 1:
        _fail("oracle.p_max", f"must be in (0, 1], got {p_max!r}")
    raw_blacklist = oracle_doc.get("blacklist", [list(map(list, p)) for p in DEFAULT_BLACKLIST])
    blacklist = []
    try:
        for pair in raw_blacklist:
            (da, la), (db, lb) = pair
            blacklist.append(((int(da), int(la)), (int(db), int(lb))))
    except (TypeError, ValueError):
        _fail("oracle.blacklist", "must be a list of [[dim, level], [dim, level]] pairs")
    for (da, _), (db, _) in blacklist:
        if da == db:
            _fail("oracle.blacklist", f"pair on dimension {da} twice")

    fw_doc = doc.get("flywheel", {})
    if not isinstance(fw_doc, dict):
        _fail("flywheel", "must be an object")
    _check_keys(
        fw_doc,
        {"tau", "unit_size", "k", "max_iterations", "evaluation_mode", "initial_compositions"},
        "flywheel",
    )
    tau = _finite(fw_doc.get("tau", 0.8), "flywheel.tau")
    if not 0 < tau < 1:
        _fail("flywheel.tau", f"must be in (0, 1), got {tau!r}")
    unit_size = fw_doc.get("unit_size", 50)
    if not isinstance(unit_size, int) or unit_size < 1:
        _fail("flywheel.unit_size", f"must be an integer >= 1, got {unit_size!r}")
    k = fw_doc.get("k", 5)
    if not isinstance(k, int) or k < 1:
        _fail("flywheel.k", f"must be an integer >= 1, got {k!r}")
    max_iterations = fw_doc.get("max_iterations", 20)
    if not isinstance(max_iterations, int) or max_iterations < 1:
        _fail("flywheel.max_iterations", f"must be an integer >= 1, got {max_iterations!r}")
    evaluation_mode = fw_doc.get("evaluation_mode", "ratio_guided")
    if evaluation_mode not in ("exact", "ratio_guided"):
        _fail(
            "flywheel.evaluation_mode",
            f"must be 'exact' or 'ratio_guided', got {evaluation_mode!r}",
        )
    initial = fw_doc.get("initial_compositions")
    if initial is not None:
        try:
            initial = tuple(tuple(int(v) for v in c) for c in initial)
        except (TypeError, ValueError):
            _fail("flywheel.initial_compositions", "must be a list of index tuples")
    flywheel = FlywheelConfig(
        tau=tau,
        unit_size=unit_size,
        k=k,
        max_iterations=max_iterations,
        evaluation_mode=evaluation_mode,
        initial_compositions=initial,
    )

    strategies = doc.get("strategies", list(STRATEGY_NAMES))
    if not isinstance(strategies, list) or not strategies:
        _fail("strategies", "must be a non-empty list")
    for i, s in enumerate(strategies):
        if s not in STRATEGY_NAMES:
            _fail(f"strategies[{i}]", f"unknown strategy {s!r}; choose from {STRATEGY_NAMES}")

    budgets = doc.get("budgets", DEFAULT_BUDGETS)
    if (
        not isinstance(budgets, list)
        or not budgets
        or any(not isinstance(b, int) or b < 0 for b in budgets)
    ):
        _fail("budgets", "must be a non-empty list of integers >= 0")
    if budgets != sorted(budgets):
        _fail("budgets", "must be sorted ascending")

    gaussian_doc = doc.get("gaussian", {})
    if not isinstance(gaussian_doc, dict):
        _fail("gaussian", "must be an object")
    _check_keys(gaussian_doc, {"mode", "sigma"}, "gaussian")
    mode = gaussian_doc.get("mode")
    if mode is not None:
        try:
            mode = tuple(int(v) for v in mode)
        except (TypeError, ValueError):
            _fail("gaussian.mode", "must be a list of level indices")
    sigma = _finite(gaussian_doc.get("sigma", 1.0), "gaussian.sigma")
    if not sigma > 0:
        _fail("gaussian.sigma", f"must be > 0, got {sigma!r}")

    check_doc = doc.get("check", {})
    if not isinstance(check_doc, dict):
        _fail("check", "must be an object")
    _check_keys(check_doc, {"train", "demos_per_composition"}, "check")
    train = check_doc.get("train")
    if train is not None:
        try:
            train = tuple(tuple(int(v) for v in c) for c in train)
        except (TypeError, ValueError):
            _fail("check.train", "must be a list of index tuples")
        if not train:
            _fail("check.train", "must be non-empty when given")
    demos_per_composition = check_doc.get("demos_per_composition", 2400)
    if not isinstance(demos_per_composition, int) or demos_per_composition < 1:
        _fail("check.demos_per_composition", "must be an integer >= 1")

    out_dir = doc.get("out", DEFAULT_OUT_DIR)
    if not isinstance(out_dir, str) or not out_dir:
        _fail("out", "must be a non-empty path string")

    return RunConfig(
        space_selector=space_sel,
        stage_selectors=tuple(stage_sels),
        seed=seed,
        kappa0=kappa0,
        beta=beta,
        p_max=p_max,
        blacklist=tuple(blacklist),
        flywheel=flywheel,
        strategies=tuple(strategies),
        budgets=tuple(budgets),
        gaussian_mode=mode,
        gaussian_sigma=sigma,
        train=train,
        demos_per_composition=demos_per_composition,
        out_dir=out_dir,
    )


def parse_config(path: str | None) -> RunConfig:
    """Load and validate a JSON config file; None means all defaults."""
    if path is None:
        return build_config({})
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config: no such file {path!r}")
    try:
        doc = json.loads(file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return build_config(doc)


def _resolve_out_dir(config: RunConfig) -> Path:
    out = os.environ.get("FACIL_OUT") or config.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_history_files(out: Path, history: RunHistory, suffix: str = "") -> None:
    tag = f"_{suffix}" if suffix else ""
    _write(out / f"history{tag}.json", history.to_json() + "\n")
    _write(out / f"iterations{tag}.csv", history.iterations_csv())
    _write(out / f"dataset{tag}.csv", dataset_to_csv(history.dataset))
    for rec in history.records:
        _write(out / f"rates{tag}_iter_{rec.iteration:03d}.csv", rec.report.to_csv())


def _check_initial(config: RunConfig, space: FactorSpace) -> None:
    for i, comp in enumerate(config.flywheel.initial_compositions or ()):
        _check_in_space(space, comp, f"flywheel.initial_compositions[{i}]")


def _cmd_run(config: RunConfig) -> int:
    space = config.space()
    _check_initial(config, space)
    params = config.family().params_for(space)
    history = run_flywheel(space, params, config.flywheel)
    out = _resolve_out_dir(config)
    _write_history_files(out, history)
    _write(out / "summary.json", json.dumps(history.summary(), indent=2) + "\n")
    return 0 if history.converged else 1


def _cmd_expand(config: RunConfig) -> int:
    stages = config.stage_spaces()
    _check_initial(config, stages[0])
    histories = sequential_expansion(stages, config.family(), config.flywheel)
    out = _resolve_out_dir(config)
    for history in histories:
        _write_history_files(out, history, suffix=history.stage)
    summary = {
        "stages": [h.summary() for h in histories],
        "all_converged": all(h.converged for h in histories) and len(histories) == len(stages),
    }
    _write(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return 0 if summary["all_converged"] else 1


def _cmd_compare(config: RunConfig) -> int:
    space = config.space()
    _check_initial(config, space)
    if config.gaussian_mode is not None:
        _check_in_space(space, config.gaussian_mode, "gaussian.mode")
    params = config.family().params_for(space)
    outcomes = compare_strategies(
        space,
        params,
        list(config.budgets),
        config.flywheel,
        config.seed,
        gaussian_mode=config.gaussian_mode,
        gaussian_sigma=config.gaussian_sigma,
    )
    outcomes = [o for o in outcomes if o.strategy in config.strategies]
    out = _resolve_out_dir(config)
    _write(out / "comparison.csv", comparison_csv(outcomes))
    return 0


def _cmd_fit(config: RunConfig, input_path: str) -> int:
    file = Path(input_path)
    if not file.is_file():
        raise ConfigError(f"fit.input: no such file {input_path!r}")
    try:
        table = load_rate_table(file.read_text(encoding="utf-8"))
        fits = {benchmark: fit_power_law(points) for benchmark, points in table.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fit.input: {exc}") from exc
    out = _resolve_out_dir(config)
    _write(out / "scaling.csv", scaling_csv(fits))
    return 0


def _cmd_check_comp(config: RunConfig) -> int:
    space = config.space()
    params = config.family().params_for(space)
    train = config.train
    if train is None:
        raise ConfigError("check.train: required for check-comp")
    for i, comp in enumerate(train):
        _check_in_space(space, comp, f"check.train[{i}]")
    dataset = Dataset(space, {comp: config.demos_per_composition for comp in train})
    probs = success_tensor(params, dataset)
    report = compositionality_check(set(train), probs, config.flywheel.tau)
    out = _resolve_out_dir(config)
    _write(out / "violations.csv", violations_csv(report, probs))
    check_summary = {
        "predicted_size": report.predicted_size,
        "empirical_size": report.empirical_size,
        "violations": [list(c) for c in report.violations],
        "pair_violation_counts": {
            f"{m}:{n}": count for (m, n), count in sorted(report.pair_counts.items())
        },
    }
    _write(out / "check.json", json.dumps(check_summary, indent=2) + "\n")
    return 0


def _cmd_budget(config: RunConfig, grid: int, base: int, slots: int, k: int) -> int:
    try:
        report = rollout_budget(grid, base, slots, k)
    except ValueError as exc:
        raise ConfigError(f"budget: {exc}") from exc
    out = _resolve_out_dir(config)
    text = report.to_json() + "\n"
    _write(out / "budget.json", text)
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facil",
        description="Factored-space curation: flywheel runs, comparisons, fits, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")

    common(sub.add_parser("run", help="single-space flywheel"))
    common(sub.add_parser("expand", help="staged expansion across factor spaces"))
    common(sub.add_parser("compare", help="strategy comparison at fixed budgets"))

    fit = sub.add_parser("fit", help="power-law fits from a rate CSV")
    common(fit)
    fit.add_argument("--input", required=True, help="CSV with n_demos and success_rate columns")

    common(sub.add_parser("check-comp", help="factor-design compositionality check"))

    budget = sub.add_parser("budget", help="rollout budget arithmetic")
    common(budget)
    budget.add_argument("--grid", type=int, required=True, help="new-factor grid cells")
    budget.add_argument("--base", type=int, required=True, help="base space cardinality")
    budget.add_argument("--slots", type=int, required=True, help="inherited slot count")
    budget.add_argument("--k", type=int, required=True, help="rollouts per composition")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError(f"seed: must be an unsigned 64-bit integer, got {args.seed}")
            doc = config.to_doc()
            doc["seed"] = args.seed
            config = build_config(doc)
        if args.command == "run":
            return _cmd_run(config)
        if args.command == "expand":
            return _cmd_expand(config)
        if args.command == "compare":
            return _cmd_compare(config)
        if args.command == "fit":
            return _cmd_fit(config, args.input)
        if args.command == "check-comp":
            return _cmd_check_comp(config)
        if args.command == "budget":
            return _cmd_budget(config, args.grid, args.base, args.slots, args.k)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
