"""Fuzz the config schema: bad documents end in ConfigError / exit 2, never a traceback."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from facil.analysis import STRATEGY_NAMES  # noqa: E402
from facil.cli import (  # noqa: E402
    _SCHEMA,
    ConfigError,
    RunConfig,
    _compositions,
    _indices,
    _integer,
    _list_of,
    build_config,
    main,
)
from facil.flywheel import EVALUATION_MODES  # noqa: E402
from facil.spaces import PRESET_NAMES  # noqa: E402


def _defaults(schema: dict) -> dict:
    return {
        key: _defaults(entry) if isinstance(entry, dict) else entry[0]
        for key, entry in schema.items()
    }


DEFAULT_DOC = _defaults(_SCHEMA)
SECTIONS = [key for key, value in DEFAULT_DOC.items() if isinstance(value, dict)]
FIELDS = [(key,) for key in DEFAULT_DOC] + [
    (key, sub) for key in SECTIONS for sub in DEFAULT_DOC[key]
]
# Work sizes stay small in the main() property so each example runs in milliseconds.
WORK_FIELDS = {
    ("space",),
    ("stages",),
    ("flywheel",),
    ("flywheel", "k"),
    ("flywheel", "unit_size"),
    ("flywheel", "max_iterations"),
    ("budgets",),
    ("out",),
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63) - 1, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.0, 1e400, -1e400, math.nan]),
    st.sampled_from(PRESET_NAMES + STRATEGY_NAMES + EVALUATION_MODES + ("",)),
    st.text(max_size=4),
)
leaves = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=12,
)


def _replace_fields(base: st.SearchStrategy, fields: list) -> st.SearchStrategy:
    """Documents from ``base`` with up to three fields set to adversarial leaves or dropped."""

    @st.composite
    def replaced(draw):
        doc = copy.deepcopy(draw(base))
        for path in draw(st.lists(st.sampled_from(fields), max_size=3)):
            parent = doc
            if len(path) == 2:
                if not isinstance(doc.get(path[0]), dict):
                    continue
                parent = doc[path[0]]
            if draw(st.booleans()):
                parent[path[-1]] = draw(leaves)
            else:
                parent.pop(path[-1], None)
        return doc

    return replaced()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=st.one_of(_replace_fields(st.just(DEFAULT_DOC), FIELDS), leaves))
def test_build_config_returns_a_config_or_raises_config_error(doc):
    try:
        config = build_config(doc)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


presets = st.sampled_from(PRESET_NAMES)
# Mostly cells that fit every two-dimensional preset, sometimes anything small.
cells = st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=2) | st.lists(
    st.integers(min_value=-1, max_value=4), max_size=4
)
pins = st.lists(st.integers(min_value=-1, max_value=3), min_size=2, max_size=2)
levels = st.integers(min_value=0, max_value=1)
blacklist_pairs = st.builds(lambda a, b: [[0, a], [1, b]], levels, levels) | st.lists(
    pins, min_size=2, max_size=2
)
runnable = st.fixed_dictionaries(
    {
        "space": presets,
        "stages": st.lists(presets, min_size=1, max_size=3),
        "seed": st.integers(min_value=0, max_value=2**64 - 1),
        "oracle": st.fixed_dictionaries(
            {
                "kappa0": st.floats(min_value=1e-3, max_value=1e4),
                "beta": st.floats(min_value=0, max_value=1e4),
                "p_max": st.floats(min_value=0.05, max_value=1),
                "blacklist": st.lists(blacklist_pairs, max_size=3),
            }
        ),
        "flywheel": st.fixed_dictionaries(
            {
                "tau": st.floats(min_value=0.05, max_value=0.95),
                "unit_size": st.integers(min_value=1, max_value=60),
                "k": st.integers(min_value=1, max_value=3),
                "max_iterations": st.integers(min_value=1, max_value=3),
                "evaluation_mode": st.sampled_from(EVALUATION_MODES),
                "initial_compositions": st.none() | st.lists(cells, max_size=4),
            }
        ),
        "strategies": st.lists(st.sampled_from(STRATEGY_NAMES), min_size=1, max_size=3),
        "budgets": st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=3).map(
            sorted
        ),
        "gaussian": st.fixed_dictionaries(
            {"mode": st.none() | cells, "sigma": st.floats(min_value=0.01, max_value=10)}
        ),
        "check": st.fixed_dictionaries(
            {
                "train": st.none() | st.lists(cells, min_size=1, max_size=4),
                "demos_per_composition": st.integers(min_value=1, max_value=2**63 - 1),
            }
        ),
        "out": st.just("unused, FACIL_OUT wins"),
    }
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["run", "expand", "compare", "check-comp"]),
    doc=_replace_fields(runnable, [f for f in FIELDS if f not in WORK_FIELDS]),
)
def test_main_exits_zero_one_or_two_and_raises_nothing(monkeypatch, command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.setenv("FACIL_OUT", str(Path(tmp) / "out"))
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--config", str(cfg)]) in (0, 1, 2)


def _per_item_indices(value, path: str) -> tuple:
    """Reference for one composition: each value read and checked in turn."""
    comp = _list_of(_integer)(value, path)
    if any(v < 0 for v in comp):
        raise ConfigError(f"{path}: level indices must be >= 0, got {list(comp)}")
    return comp


def _per_item_compositions(value, path: str, nonempty: bool) -> tuple:
    """Reference for a list of compositions: item by item, the first misfit named."""
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{path}: must be a non-empty list" if nonempty else f"{path}: must be a list")
    return tuple(_per_item_indices(item, f"{path}[{i}]") for i, item in enumerate(value))


def _outcome(read, *args):
    try:
        return read(*args)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


index = st.integers(min_value=0, max_value=9) | st.sampled_from(
    [-1, 2**63 - 1, 2**63, True, 1.0, "1"]
)
index_lists = st.lists(st.lists(index, max_size=4), max_size=5)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(value=st.one_of(index_lists, st.lists(index, max_size=4), leaves), nonempty=st.booleans())
def test_bulk_index_readers_equal_the_per_item_readers(value, nonempty):
    """The one-scan readers give the per-item readers' tuple or their exact error message."""
    expected = _outcome(_per_item_compositions, value, "check.train", nonempty)
    assert _outcome(_compositions(nonempty), value, "check.train") == expected
    assert _outcome(_indices, value, "gaussian.mode") == _outcome(_per_item_indices, value, "gaussian.mode")
