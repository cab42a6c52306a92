"""Read the verdict of a ``bench/run.py`` log and exit 0 only if it passed.

``bench/run.py`` exits 0 even when an output sha256 differs from its pin in
``bench/spec.json``; its verdict is the log's last line, one JSON object.
The run passed when ``correct`` is true and ``failed`` is 0, and, in a traced
log (``--trace 1``, whose metrics hold ``trace.wall_s``), when
``oracle.success_tensor.calls`` is above 0.  Every workload evaluates a whole
grid at least once, so 0 means a call bypassed that layer's lookup site and its
numbers vanished; no exit code, sha256 or pinned count shows that.  Otherwise
each failing field is printed with what it should be and what it is, and the
exit code is 1.

Usage: python3 .github/scripts/bench_verdict.py LOG
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CHECKS = (("correct", lambda v: v is True, "true"), ("failed", lambda v: v == 0, "0"))
TRACED_CHECKS = (("oracle.success_tensor.calls", lambda v: v["value"] > 0, "a count above 0"),)


def failures(line: str) -> list[str]:
    """One message per field of the verdict line that does not pass."""
    result = json.loads(line)
    checks = [(result, CHECKS)]
    metrics = result.get("metrics", {})
    if "trace.wall_s" in metrics:
        checks.append((metrics, TRACED_CHECKS))
    return [
        f"{name}: expected {want}, got {json.dumps(fields[name]) if name in fields else 'no value'}"
        for fields, group in checks
        for name, passes, want in group
        if name not in fields or not passes(fields[name])
    ]


def main(argv: list[str]) -> int:
    lines = Path(argv[1]).read_text(encoding="utf-8").splitlines()
    wrong = failures(lines[-1]) if lines else ["the log is empty"]
    for message in wrong:
        print(f"bench verdict: {message}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
