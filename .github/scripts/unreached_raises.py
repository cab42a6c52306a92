"""Fail when a ``raise`` statement in ``src/facil`` never runs under tier-1.

Runs the tier-1 suite in this process with ``sys.settrace``, recording line
events only in frames whose code lives in ``src/facil``, then names every
``raise`` statement (an ``ast.Raise``) none of whose lines ran.  A raise
that the suite reaches only in a subprocess cannot be seen here; such a
raise, and only such a one, goes in ``ALLOWED``, keyed by file name and
statement text (whitespace collapsed) with the reason.  An allowed entry
that matches no raise, or more than one, fails too, so the list cannot go
stale.  The exit code is 1 on any finding, pytest's own code if the suite
fails, else 0.

Usage: python .github/scripts/unreached_raises.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "facil"

ALLOWED = {
    ("dataset.py", 'raise InputMemoryError("space", detail) from exc'): (
        "a grid numpy cannot allocate; tests reach it only in a subprocess under RLIMIT_AS"
    ),
    ("flywheel.py", 'raise InputMemoryError(f"stages[{index - 1}]", exc.detail) from exc'): (
        "a stage that grows the world past memory; reached only in a subprocess under RLIMIT_AS"
    ),
    ("flywheel.py", "raise"): (
        "re-raises an InputMemoryError of another field; reached only under RLIMIT_AS"
    ),
    ("cli.py", "raise"): (
        "re-raises a fault in sequential_expansion that no valid config can produce"
    ),
}


def raise_statements(source: str) -> list[tuple[range, str]]:
    """(line range, statement text with whitespace collapsed) of each raise, in line order."""
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return [
        (range(node.lineno, node.end_lineno + 1), " ".join(ast.get_source_segment(source, node).split()))
        for node in sorted(nodes, key=lambda node: node.lineno)
    ]


def unreached(sources: dict[str, str], ran: dict[str, set[int]]) -> list[str]:
    """One message per raise of ``sources`` (file name: text) not run and not allowed."""
    messages = []
    matched = dict.fromkeys(ALLOWED, 0)
    for name, source in sorted(sources.items()):
        for lines, text in raise_statements(source):
            if (name, text) in ALLOWED:
                matched[(name, text)] += 1
            elif not ran.get(name, set()).intersection(lines):
                messages.append(f"{name}:{lines.start}: never ran: {text}")
    messages += [
        f"{name}: allowed entry matches {n} raise statements, not 1: {text}"
        for (name, text), n in matched.items()
        if n != 1 and name in sources
    ]
    return messages


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC.parent))
    ran: defaultdict[str, set[int]] = defaultdict(set)
    names: dict[object, str | None] = {}  # code object: its file name if it is in src/facil

    def local(frame, event, arg):
        if event == "line":
            ran[names[frame.f_code]].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if code not in names:
            path = Path(code.co_filename)
            names[code] = path.name if path.parent == SRC else None
        return local if names[code] else None

    sys.settrace(calls)
    try:
        args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv]
        code = pytest.main([str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    messages = unreached(sources, ran)
    total = sum(len(raise_statements(source)) for source in sources.values())
    print("\n".join(messages) or f"all {total} raise statements of src/facil ran or are allowed")
    if code != 0:
        return int(code)
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
