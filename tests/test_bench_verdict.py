"""The CI verdict on a benchmark log: pass only on ``correct`` true and ``failed`` 0."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "bench_verdict.py"
spec = importlib.util.spec_from_file_location("bench_verdict", SCRIPT)
bench_verdict = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_verdict)


@pytest.mark.parametrize(
    "last, messages",
    [
        ('{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}', []),
        ('{"correct": false, "failed": 0}', ["correct: expected true, got false"]),
        ('{"correct": true, "failed": 2}', ["failed: expected 0, got 2"]),
        ('{"correct": 1, "failed": 0}', ["correct: expected true, got 1"]),
        (
            '{"attempted": 3}',
            ["correct: expected true, got no value", "failed: expected 0, got no value"],
        ),
    ],
)
def test_verdict_names_each_failing_field(tmp_path, capsys, last, messages):
    log = tmp_path / "bench.log"
    log.write_text(f'output check: 3/3 calls\n{{"correct": false}}\n{last}\n', encoding="utf-8")
    assert bench_verdict.main(["bench_verdict.py", str(log)]) == (1 if messages else 0)
    assert capsys.readouterr().err.splitlines() == [f"bench verdict: {m}" for m in messages]


TRACED = '"metrics": {"trace.wall_s": {"value": 0.03, "unit": "s"}%s}'
CALLS = ', "oracle.success_tensor.calls": {"value": %d, "unit": "count"}'


@pytest.mark.parametrize(
    "metrics, messages",
    [
        (TRACED % (CALLS % 3), []),
        (
            TRACED % (CALLS % 0),
            ['oracle.success_tensor.calls: expected a count above 0, got {"value": 0, "unit": "count"}'],
        ),
        (TRACED % "", ["oracle.success_tensor.calls: expected a count above 0, got no value"]),
        # an untraced log has no layer counts to check
        ('"metrics": {"wall_s": {"value": 0.03, "unit": "s"}}', []),
    ],
)
def test_a_traced_log_fails_when_success_tensor_reads_no_calls(tmp_path, capsys, metrics, messages):
    log = tmp_path / "trace.log"
    last = f'{{"correct": true, "failed": 0, {metrics}}}'
    log.write_text(f"counts match the pinned counts\n{last}\n", encoding="utf-8")
    assert bench_verdict.main(["bench_verdict.py", str(log)]) == (1 if messages else 0)
    assert capsys.readouterr().err.splitlines() == [f"bench verdict: {m}" for m in messages]


def test_an_empty_log_fails(tmp_path, capsys):
    log = tmp_path / "bench.log"
    log.write_text("", encoding="utf-8")
    assert bench_verdict.main(["bench_verdict.py", str(log)]) == 1
    assert capsys.readouterr().err == "bench verdict: the log is empty\n"
