"""The CI gate that runs tier-1 on each recorded mutant of ``src/facil``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
Mutant = mutants.Mutant

SNIPPET = "\n".join(
    [
        "def f(x, tau):",
        "    if x > tau:",
        "        return x > tau",
        "    return -x",
        "",
    ]
)


def test_an_entry_must_match_exactly_one_site_and_change_it():
    sources = {"m.py": SNIPPET}
    table = (
        Mutant("m.py", "return x > tau", "return x >= tau", "once"),
        Mutant("m.py", "x > tau", "x >= tau", "twice"),
        Mutant("m.py", "return x < tau", "return x <= tau", "nowhere"),
        Mutant("gone.py", "return -x", "return x", "no such file"),
        Mutant("m.py", "return -x", "return -x", "no change"),
    )
    assert mutants.stale(sources, table) == [
        "m.py: entry matches 2 sites, not 1: 'x > tau'",
        "m.py: entry matches 0 sites, not 1: 'return x < tau'",
        "gone.py: entry matches 0 sites, not 1: 'return -x'",
        "m.py: entry replaces its text with itself: 'return -x'",
    ]
    # an entry may span lines, and an equivalent one is checked all the same
    spanning = Mutant("m.py", "tau\n    return -x", "tau\n    return x", "spans", equivalent=True)
    assert mutants.stale(sources, (table[0], spanning)) == []


def test_every_recorded_mutant_matches_one_site_of_src_facil():
    sources = {path.name: path.read_text(encoding="utf-8") for path in mutants.SRC.glob("*.py")}
    assert mutants.stale(sources, mutants.MUTANTS) == []
    assert all(m.reason for m in mutants.MUTANTS)


def test_the_first_failing_test_is_read_from_pytest_summary_lines():
    output = "\n".join(
        [
            "..F",
            "=========================== short test summary info ============================",
            "FAILED tests/test_cli.py::test_x[run-4-axes] - AssertionError: assert 3 == 2",
            "!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!",
            "1 failed, 2 passed in 0.52s",
        ]
    )
    assert mutants.first_failure(output) == "tests/test_cli.py::test_x[run-4-axes]"
    collection = "ERROR tests/test_oracle.py - ImportError: cannot import name 'x'\n"
    assert mutants.first_failure(collection) == "tests/test_oracle.py"
    assert mutants.first_failure("3 passed in 0.10s\n") is None
