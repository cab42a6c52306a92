"""The array-native writers against the row-at-a-time writers they replace.

Each reference below builds its rows one composition at a time with
``"/".join`` labels and writes them through ``csv.writer``, or dumps with
``json.dumps(doc, indent=2)``: the way these files were written before the
label column, the rate suffix table and the ``indent=2`` emitter.  The
properties are derandomized, so a failure reproduces on every run.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from facil.analysis import compositionality_check, violations_csv  # noqa: E402
from facil.curation import CurationTrace  # noqa: E402
from facil.dataset import Dataset, dataset_to_csv, dataset_to_doc  # noqa: E402
from facil.flywheel import (  # noqa: E402
    EVALUATION_MODES,
    FlywheelConfig,
    RunHistory,
    sequential_expansion,
)
from facil.oracle import EvaluationReport, OracleParams  # noqa: E402
from facil.spaces import FactorSpace, build_space, json_text, label_column  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def label(c) -> str:
    return "/".join(str(v) for v in c)


def check_same(actual: str, expected: str) -> None:
    """Equality that reports the first differing line, not a diff of two whole files."""
    if actual != expected:
        pairs = itertools.zip_longest(actual.splitlines(True), expected.splitlines(True))
        line, (got, want) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise AssertionError(f"line {line}: got {got!r}, expected {want!r}")


def reference_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-07, 1e16, 5e-324, 1.7976931348623157e308, 0.1]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é", " ", '"\\/', "😀", "\ud800"]),
)
int_lists = st.lists(st.integers() | st.booleans(), max_size=8)
json_docs = st.recursive(
    json_leaves | int_lists,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40,
)


@SETTINGS
@given(doc=json_docs)
def test_json_text_equals_json_dumps_indent_2(doc):
    check_same(json_text(doc), json.dumps(doc, indent=2))


def test_json_text_on_nested_empty_containers_and_int_lists():
    doc = {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}], "e": [1, True, 2], "f": [3, -4]}
    check_same(json_text(doc), json.dumps(doc, indent=2))
    assert json_text([]) == "[]" and json_text({}) == "{}"


@st.composite
def shapes(draw, max_cells: int = 3000) -> tuple[int, ...]:
    """1 to 6 axes of 1 to 12 levels, at most max_cells cells in all."""
    shape: list[int] = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        room = max_cells // math.prod(shape)
        shape.append(draw(st.integers(min_value=1, max_value=min(12, room))))
    return tuple(shape)


def space_of(shape) -> FactorSpace:
    return build_space([(f"d{m}", [f"l{j}" for j in range(n)]) for m, n in enumerate(shape)])


def cells(shape):
    return itertools.product(*map(range, shape))


@SETTINGS
@given(shape=shapes(), k=st.sampled_from([1, 2, 3, 5, 7, 1000]), seed=st.integers(0, 2**32 - 1))
def test_rates_csv_equals_row_writer(shape, k, seed):
    successes = np.random.default_rng(seed).integers(0, k + 1, size=math.prod(shape))
    report = EvaluationReport(space_of(shape), successes, k)
    rates = (successes / k).tolist()
    rows = (
        (label(c), n, k, repr(r)) for c, n, r in zip(cells(shape), successes.tolist(), rates)
    )
    expected = reference_csv(["composition_indices", "successes", "k", "rate"], rows)
    check_same(report.to_csv(), expected)


@SETTINGS
@given(
    shape=shapes(), density=st.sampled_from([0.0, 0.05, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1)
)
def test_dataset_writers_equal_row_writers(shape, density, seed):
    rng = np.random.default_rng(seed)
    grid = np.where(rng.random(shape) < density, rng.integers(1, 10**6, size=shape), 0)
    dataset = Dataset.from_grid(space_of(shape), grid)
    support = [(label(c), int(grid[c])) for c in cells(shape) if grid[c]]
    check_same(dataset_to_csv(dataset), reference_csv(["composition_indices", "count"], support))
    assert dataset_to_doc(dataset)["counts"] == dict(support)
    assert list(dataset_to_doc(dataset)["counts"]) == [key for key, _ in support]


def test_dataset_writers_on_an_empty_support():
    dataset = Dataset(space_of((3, 4)))
    assert dataset_to_csv(dataset) == "composition_indices,count\n"
    assert dataset_to_doc(dataset)["counts"] == {}


@SETTINGS
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 12))
def test_trace_rows_and_violations_csv_equal_row_writers(shape, seed, steps):
    rng = np.random.default_rng(seed)
    comps = [tuple(int(v) for v in rng.integers(0, shape)) for _ in range(steps)]
    space = space_of(shape)
    scores = [float(rng.normal()) for _ in comps]
    trace = CurationTrace(shape, space.cells(comps), scores, range(steps), 50)
    # the trace rows of history.json, from the arrays
    assert trace.rows() == [(i, list(c), s, i, 50) for i, (c, s) in enumerate(zip(comps, scores))]

    probs = rng.random(space.shape)
    if comps:
        report = compositionality_check(space.cells(comps), probs, 0.5)
        expected = reference_csv(
            ["composition_indices", "predicted_p_or_rate"],
            ((label(c), repr(float(probs[c]))) for c in report.violations),
        )
        check_same(violations_csv(report, probs), expected)


@SETTINGS
@given(shape=shapes())
def test_label_column_is_row_major(shape):
    assert label_column(shape).tolist() == [label(c) for c in cells(shape)]


def reference_doc(history: RunHistory) -> dict:
    """The nested plain-dict document that ``history.json`` was once dumped from."""
    return {
        "stage": history.stage,
        "converged": history.converged,
        "config": history.config.to_doc(),
        "space": history.space.to_doc(),
        "world_space": history.world_space.to_doc(),
        "final_dataset": dataset_to_doc(history.dataset),
        "initial_dataset": dataset_to_doc(history.initial_dataset),
        "iterations": [
            {
                "iteration": rec.iteration,
                "total_before": rec.total_before,
                "support_before": rec.support_before,
                "overall_rate": rec.overall_rate,
                "report": rec.report.to_doc(),
                "batches": [
                    [[int(v) for v in np.unravel_index(cell, rec.trace.shape)], rec.trace.batch_size]
                    for cell in rec.trace.cells.tolist()
                ],
                "trace": [
                    [s.step, list(s.selected), s.s_value, s.newly_marked, s.batch_size]
                    for s in rec.trace.steps
                ],
                "total_after": rec.total_after,
                "support_after": rec.support_after,
                "rollouts_spent": rec.rollouts_spent,
                "dataset_after": dataset_to_doc(rec.dataset_after),
            }
            for rec in history.records
        ],
    }


@st.composite
def expansion_cases(draw):
    """A one- or two-stage expansion: stage shapes, flywheel knobs and oracle constants."""
    stages = [draw(shapes(max_cells=40))]
    if draw(st.booleans()):
        stages.append(draw(shapes(max_cells=24)))
    flywheel = {
        "tau": draw(st.sampled_from([0.05, 0.5, 0.8, 0.95])),
        "unit_size": draw(st.sampled_from([1, 2, 7, 50])),
        "k": draw(st.sampled_from([1, 2, 5, 1000])),
        "max_iterations": draw(st.integers(1, 4)),
        "evaluation_mode": draw(st.sampled_from(EVALUATION_MODES)),
    }
    oracle = {
        "kappa0": draw(st.sampled_from([5.0, 40.0, 400.0])),
        "beta": draw(st.sampled_from([0.0, 1.0, 10.0])),
        "p_max": draw(st.sampled_from([0.9, 1.0])),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    return stages, flywheel, oracle


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=expansion_cases())
# a 1-D stage then multi-digit labels on two axes of 10 or more levels, both modes
@example(case=([(12,), (10, 11)], {"tau": 0.8, "evaluation_mode": "exact"}, {"beta": 1.0}))
@example(case=([(12,), (10, 11)], {"tau": 0.8, "evaluation_mode": "ratio_guided"}, {}))
# k = 1000 on a grid larger than k, and a run that converges with an empty trace
@example(case=([(11, 10, 10)], {"k": 1000, "max_iterations": 2}, {"beta": 1.0}))
@example(case=([(3, 4), (2, 3)], {"tau": 0.05}, {}))
def test_history_json_equals_json_dumps_of_the_reference_doc(case):
    stages, flywheel, oracle = case
    defaults = {"kappa0": 40.0, "beta": 1.0, "p_max": 1.0, "seed": 7}
    params = OracleParams(**{**defaults, **oracle}, blacklist=())
    cfg = FlywheelConfig(**{"max_iterations": 3, **flywheel})
    spaces = [
        build_space([(f"s{i}d{m}", [f"l{j}" for j in range(n)]) for m, n in enumerate(shape)])
        for i, shape in enumerate(stages)
    ]
    for history in sequential_expansion(spaces, params, cfg):
        check_same(history.to_json(), json.dumps(reference_doc(history), indent=2))
