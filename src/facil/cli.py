"""Command-line front end.

Subcommands: run (single-space flywheel), expand (staged expansion),
compare (strategy comparison), fit (power-law fits from a rate CSV),
check-comp (factor-design checker), budget (rollout arithmetic).  The
table ``_COMMANDS`` holds each command's name, handler and help line;
``_parser`` builds argparse from it once per process, on first use.  All
outputs are deterministic functions of (config, flags), so reruns produce
byte-identical files, written in UTF-8 slices.  Exit codes: 0 success, 1 ran
but did not converge, 2 configuration, input or output-file error, 3 any
other failure (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from functools import cache, reduce
from itertools import chain
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

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
from .dataset import Dataset, DemoBatches, InputMemoryError, add_many, dataset_to_csv
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
    BlacklistPair,
    OracleParams,
    success_tensor,
)
from .spaces import (
    Composition,
    FactorSpace,
    PRESET_NAMES,
    build_space,
    json_text,
    preset_space,
    product_space,
)


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field path."""


def _fail(path: str, message: str) -> NoReturn:
    raise ConfigError(f"{path}: {message}")


# Type readers: each takes (raw JSON value, field path) and returns the typed
# value or raises ConfigError.  Range checks belong to the dataclasses that
# own a field; a reader checks a range only for fields no dataclass owns.


def _number(value, path: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    _fail(path, f"must be a finite number, got {value!r}")


def _integer(value, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value < 2**63:
        return value
    _fail(path, f"must be an integer below 2**63, got {value!r}")


def _seed(value, path: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**64:
        return value
    _fail(path, f"must be an unsigned 64-bit integer, got {value!r}")


def _positive(read):
    def read_positive(value, path: str):
        out = read(value, path)
        if not out > 0:
            _fail(path, f"must be > 0, got {out!r}")
        return out

    return read_positive


def _list_of(read, nonempty: bool = False):
    def read_list(value, path: str) -> tuple:
        if not isinstance(value, list) or (nonempty and not value):
            _fail(path, "must be a non-empty list" if nonempty else "must be a list")
        return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read_list


def _optional(read):
    return lambda value, path: None if value is None else read(value, path)


def _plain_indices(values: list) -> bool:
    """Every value a plain int (no bool) in [0, 2**63): one type scan, no field paths."""
    plain = set(map(type, values)) <= {int}
    return plain and 0 <= min(values, default=0) and max(values, default=0) < 2**63


def _indices(value, path: str) -> Composition:
    if type(value) is list and _plain_indices(value):
        return tuple(value)
    comp = _list_of(_integer)(value, path)  # names the first misfit
    if any(v < 0 for v in comp):
        _fail(path, f"level indices must be >= 0, got {list(comp)}")
    return comp


def _compositions(nonempty: bool = False):
    """A list of index lists: one type scan, and item by item only to name a misfit."""
    read_each = _list_of(_indices, nonempty)

    def read_compositions(value, path: str) -> tuple:
        if type(value) is list and (value or not nonempty) and set(map(type, value)) <= {list}:
            if _plain_indices(list(chain.from_iterable(value))):
                return tuple(map(tuple, value))
        return read_each(value, path)

    return read_compositions


def _choice(options: Sequence[str]):
    def read_choice(value, path: str) -> str:
        if value not in options:
            _fail(path, f"must be one of {tuple(options)}, got {value!r}")
        return value

    return read_choice


def _pair(value, path: str) -> BlacklistPair:
    pair = _list_of(_list_of(_integer))(value, path)
    if [len(end) for end in pair] != [2, 2]:
        _fail(path, "must be a [[dim, level], [dim, level]] pair")
    return pair


def _is_dim_spec(item) -> bool:
    return (
        isinstance(item, list)
        and len(item) == 2
        and isinstance(item[0], str)
        and isinstance(item[1], list)
        and all(isinstance(level, str) for level in item[1])
    )


def _space(value, path: str) -> FactorSpace:
    if isinstance(value, str):
        if value not in PRESET_NAMES:
            _fail(path, f"unknown preset {value!r}; choose from {sorted(PRESET_NAMES)}")
        return preset_space(value)
    if isinstance(value, list) and all(map(_is_dim_spec, value)):
        try:
            return build_space(value)
        except ValueError as exc:
            _fail(path, f"invalid inline dimension specs ({exc})")
    _fail(path, "must be a preset name or a list of [name, [levels...]] string pairs")


def _sigma(value, path: str) -> float:
    sigma = _positive(_number)(value, path)
    if 2.0 * sigma * sigma == 0:  # the gaussian sampler divides by it
        _fail(path, f"2 * sigma * sigma must be > 0, got {sigma!r}")
    return sigma


def _out_dir(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "must be a non-empty path string")
    return value


def _budgets(value, path: str) -> tuple[int, ...]:
    budgets = _list_of(_integer, nonempty=True)(value, path)
    if budgets[0] < 0 or list(budgets) != sorted(budgets):
        _fail(path, f"must ascend from a value >= 0, got {list(budgets)}")
    return budgets


# The config document: each key maps to (default, reader), or to a section.
_SCHEMA: dict = {
    "space": ("pnp_object", _space),
    "stages": (["pnp_object", "pnp_action", "environment"], _list_of(_space, nonempty=True)),
    "seed": (0, _seed),
    "oracle": {
        "kappa0": (DEFAULT_KAPPA0, _number),
        "beta": (DEFAULT_BETA, _number),
        "p_max": (DEFAULT_P_MAX, _number),
        "blacklist": ([[list(a), list(b)] for a, b in DEFAULT_BLACKLIST], _list_of(_pair)),
    },
    "flywheel": {
        "tau": (FlywheelConfig.tau, _number),
        "unit_size": (FlywheelConfig.unit_size, _integer),
        "k": (FlywheelConfig.k, _integer),
        "max_iterations": (FlywheelConfig.max_iterations, _integer),
        "evaluation_mode": (FlywheelConfig.evaluation_mode, lambda value, path: value),
        "initial_compositions": (FlywheelConfig.initial_compositions, _optional(_compositions())),
    },
    "strategies": (list(STRATEGY_NAMES), _list_of(_choice(STRATEGY_NAMES), nonempty=True)),
    "budgets": ([500, 2000, 8000, 32000, 128000], _budgets),
    "gaussian": {
        "mode": (None, _optional(_indices)),
        "sigma": (1.0, _sigma),
    },
    "check": {
        "train": (None, _optional(_compositions(nonempty=True))),
        "demos_per_composition": (2400, _positive(_integer)),
    },
    "out": ("facil_out", _out_dir),
}


def _read_section(schema: dict, doc, path: str = "") -> dict:
    """Read one object of the document against its schema, filling defaults."""
    if not isinstance(doc, dict):
        _fail(path or "config", "must be a JSON object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in schema:
            _fail(f"{prefix}{key}", "unknown configuration key")
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, dict):
            out[key] = _read_section(entry, doc.get(key, {}), f"{prefix}{key}")
        else:
            default, read = entry
            out[key] = read(doc.get(key, default), f"{prefix}{key}")
    return out


def _construct(section: str, cls, **fields):
    """Build a dataclass whose ValueError messages start with the field name."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _check_in_space(space: FactorSpace, comp: Composition, path: str, where: str = "") -> None:
    try:
        space.cells([comp])
    except ValueError as exc:
        raise ConfigError(f"{path}: {where}{exc}") from exc


def _check_all_in_space(
    space: FactorSpace, comps: Sequence[Composition], path: str, where: str = ""
) -> np.ndarray:
    """Their flat cells, from one check; only after it fails, a loop names the first misfit."""
    try:
        return space.cells(comps)
    except ValueError:
        for i, comp in enumerate(comps):
            _check_in_space(space, comp, f"{path}[{i}]", where)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with every default filled in.

    ``oracle`` carries the whole blacklist; each command narrows it to its
    space with ``params_for``.
    """

    space: FactorSpace
    stages: tuple[FactorSpace, ...]
    oracle: OracleParams
    flywheel: FlywheelConfig
    strategies: tuple[str, ...]
    budgets: tuple[int, ...]
    gaussian_mode: Composition | None
    gaussian_sigma: float
    train: tuple[Composition, ...] | None
    demos_per_composition: int
    out_dir: str


def build_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document and fill defaults."""
    fields = _read_section(_SCHEMA, doc)
    gaussian, check = fields["gaussian"], fields["check"]
    return RunConfig(
        space=fields["space"],
        stages=fields["stages"],
        oracle=_construct("oracle", OracleParams, seed=fields["seed"], **fields["oracle"]),
        flywheel=_construct("flywheel", FlywheelConfig, **fields["flywheel"]),
        strategies=fields["strategies"],
        budgets=fields["budgets"],
        gaussian_mode=gaussian["mode"],
        gaussian_sigma=gaussian["sigma"],
        train=check["train"],
        demos_per_composition=check["demos_per_composition"],
        out_dir=fields["out"],
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
    except ValueError as exc:  # also bad UTF-8 and integer literals too long to convert
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    return build_config(doc)


def _out_field() -> str:
    """The field that chose the output directory, for error messages."""
    return "FACIL_OUT" if os.environ.get("FACIL_OUT") else "out"


def _resolve_out_dir(config: RunConfig) -> Path:
    path = Path(os.environ.get("FACIL_OUT") or config.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        _fail(_out_field(), f"cannot create directory {str(path)!r} ({exc})")
    return path


def _write(path: Path, *texts: str) -> None:
    """Write the texts in turn as UTF-8, 2**16 characters (64 KiB of ASCII) encoded at a time."""
    try:
        with path.open("wb") as file:  # so no bytes copy of a whole file exists
            for text in texts:
                file.writelines(text[i : i + 2**16].encode("utf-8") for i in range(0, len(text), 2**16))
    except OSError as exc:  # a directory in the file's place, a full disk
        _fail(_out_field(), f"cannot write {str(path)!r} ({exc})")


def _write_history_files(out: Path, history: RunHistory, suffix: str = "") -> None:
    tag = f"_{suffix}" if suffix else ""
    _write(out / f"history{tag}.json", history.to_json(), "\n")
    _write(out / f"iterations{tag}.csv", history.iterations_csv())
    _write(out / f"dataset{tag}.csv", dataset_to_csv(history.dataset))
    labels: dict = {}  # the reports of one history share their grid's label column
    for rec in history.records:
        _write(out / f"rates{tag}_iter_{rec.iteration:03d}.csv", rec.report.to_csv(labels))


def _check_initial(
    config: RunConfig, space: FactorSpace, where: str = "", slot: bool = False
) -> None:
    """Initial compositions must fit the grid a run curates on.

    A later exact-mode stage curates on (slot, grid).  Its slot count is the
    previous stage's support size, known only at run time, so with ``slot``
    the leading slot index is left unchecked.
    """
    comps = [comp[1:] if slot else comp for comp in config.flywheel.initial_compositions or ()]
    _check_all_in_space(space, comps, "flywheel.initial_compositions", where)


def _not_converged(history: RunHistory) -> int:
    """Exit code 1, with one stderr line on where the run stopped short of tau."""
    cfg = history.config
    last = history.records[-1]
    below = int((last.report.rates < cfg.tau).sum())
    print(
        f"not converged: stage {history.stage}: {history.iterations} of "
        f"max_iterations {cfg.max_iterations} used, overall rate {last.overall_rate!r} "
        f"< tau {cfg.tau!r}, {below} of {last.report.space.cardinality} cells below tau",
        file=sys.stderr,
    )
    return 1


def _cmd_run(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    space = config.space
    _check_initial(config, space)
    history = run_flywheel(space, config.oracle.params_for(space), config.flywheel)
    _write_history_files(out, history)
    _write(out / "summary.json", json_text(history.summary()), "\n")
    return 0 if history.converged else _not_converged(history)


def _cmd_expand(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    stages = config.stages
    try:
        reduce(product_space, stages)
    except ValueError as exc:
        raise ConfigError(f"stages: {exc}") from exc
    exact = config.flywheel.evaluation_mode == "exact"
    for j, stage in enumerate(stages):
        slot = exact and j > 0
        where = f"stages[{j}] after the slot index: " if slot else f"stages[{j}]: "
        _check_initial(config, stage, where, slot)
    try:
        histories = sequential_expansion(stages, config.oracle, config.flywheel)
    except ValueError as exc:
        if not (exact and config.flywheel.initial_compositions):
            raise
        # the one input check left to run time: a slot index past a stage's support
        raise ConfigError(f"flywheel.initial_compositions: {exc}") from exc
    for history in histories:
        _write_history_files(out, history, suffix=history.stage)
    summary = {
        "stages": [h.summary() for h in histories],
        "all_converged": all(h.converged for h in histories) and len(histories) == len(stages),
    }
    _write(out / "summary.json", json_text(summary), "\n")
    # a stage that does not converge ends the chain, so it is the last one run
    return 0 if summary["all_converged"] else _not_converged(histories[-1])


def _cmd_compare(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    space = config.space
    _check_initial(config, space)
    if config.gaussian_mode is not None:
        _check_in_space(space, config.gaussian_mode, "gaussian.mode")
    outcomes = compare_strategies(
        space,
        config.oracle.params_for(space),
        list(config.budgets),
        config.flywheel,
        gaussian_mode=config.gaussian_mode,
        gaussian_sigma=config.gaussian_sigma,
        strategies=config.strategies,
    )
    _write(out / "comparison.csv", comparison_csv(outcomes))
    return 0


def _cmd_fit(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    file = Path(args.input)
    if not file.is_file():
        raise ConfigError(f"fit.input: no such file {args.input!r}")
    try:
        table = load_rate_table(file.read_text(encoding="utf-8"))
        fits = {benchmark: fit_power_law(points) for benchmark, points in table.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fit.input: {exc}") from exc
    _write(out / "scaling.csv", scaling_csv(fits))
    return 0


def _cmd_check_comp(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    space, train, per_cell = config.space, config.train, config.demos_per_composition
    if train is None:
        raise ConfigError("check.train: required for check-comp")
    cells = np.unique(_check_all_in_space(space, train, "check.train"))  # the one array of them
    if per_cell * len(cells) >= 2**63:
        _fail("check.demos_per_composition", "times the training compositions must be below 2**63")
    dataset = add_many(Dataset(space), DemoBatches(cells, np.full(len(cells), per_cell)))
    probs = success_tensor(config.oracle.params_for(space), dataset)
    report = compositionality_check(cells, probs, config.flywheel.tau)
    _write(out / "violations.csv", violations_csv(report, probs))
    check_summary = {
        "predicted_size": report.predicted_size,
        "empirical_size": report.empirical_size,
        "violations": [list(c) for c in report.violations],
        "pair_violation_counts": {
            f"{m}:{n}": count for (m, n), count in sorted(report.pair_counts.items())
        },
    }
    _write(out / "check.json", json_text(check_summary), "\n")
    return 0


def _cmd_budget(config: RunConfig, out: Path, args: argparse.Namespace) -> int:
    try:
        report = rollout_budget(args.grid, args.base, args.slots, args.k)
    except ValueError as exc:
        raise ConfigError(f"budget: {exc}") from exc
    text = json_text(asdict(report)) + "\n"
    _write(out / "budget.json", text)
    sys.stdout.write(text)
    return 0


# The command table: (name, handler, help) in --help order.  Each handler takes
# (config, out, args) and finds library functions through this module's globals
# at call time, so a wrapper set on facil.cli sees every call.
_COMMANDS = (
    ("run", _cmd_run, "single-space flywheel"),
    ("expand", _cmd_expand, "staged expansion across factor spaces"),
    ("compare", _cmd_compare, "strategy comparison at fixed budgets"),
    ("fit", _cmd_fit, "power-law fits from a rate CSV"),
    ("check-comp", _cmd_check_comp, "factor-design compositionality check"),
    ("budget", _cmd_budget, "rollout budget arithmetic"),
)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    # --threads is a no-op kept so existing scripts and bench/run.py still parse
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect")

    parser = argparse.ArgumentParser(
        prog="facil",
        description="Factored-space curation: flywheel runs, comparisons, fits, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, handler, help_text in _COMMANDS:
        commands[name] = sub.add_parser(name, help=help_text, parents=[common])
        commands[name].set_defaults(handler=handler)
    commands["fit"].add_argument("--input", required=True, help="CSV with n_demos and success_rate columns")
    budget = commands["budget"]
    budget.add_argument("--grid", type=int, required=True, help="new-factor grid cells")
    budget.add_argument("--base", type=int, required=True, help="base space cardinality")
    budget.add_argument("--slots", type=int, required=True, help="inherited slot count")
    budget.add_argument("--k", type=int, required=True, help="rollouts per composition")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config = replace(config, oracle=replace(config.oracle, seed=_seed(args.seed, "seed")))
        out = _resolve_out_dir(config)
        try:
            return args.handler(config, out, args)
        except OverflowError as exc:  # a Dataset total of run, expand or compare would reach 2**63
            _fail("flywheel.unit_size", str(exc))
    except (ConfigError, InputMemoryError) as exc:  # both messages start with the field
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # any other failure is a fault of facil, never "did not converge"
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
