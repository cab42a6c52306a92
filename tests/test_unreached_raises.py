"""The CI gate that names every ``raise`` in ``src/facil`` that tier-1 never runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "unreached_raises.py"
spec = importlib.util.spec_from_file_location("unreached_raises", SCRIPT)
unreached_raises = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached_raises)

SNIPPET = "\n".join(
    [
        "def f(x):",  # 1
        "    if x < 0:",
        '        raise ValueError("negative")',  # 3
        "    try:",
        "        g(x)",
        "    except KeyError as exc:",
        "        raise ConfigError(",  # 7
        '            f"bad {x}"',
        "        ) from exc",
        "    except OSError:",
        "        raise",  # 11
        "    return x  # raise in a comment is no statement",
        "",
        "class C:",
        "    def m(self):",
        "        raise NotImplementedError",  # 16
    ]
)


def test_finder_gives_each_raise_with_its_lines_and_collapsed_text():
    assert unreached_raises.raise_statements(SNIPPET) == [
        (range(3, 4), 'raise ValueError("negative")'),
        (range(7, 10), 'raise ConfigError( f"bad {x}" ) from exc'),
        (range(11, 12), "raise"),
        (range(16, 17), "raise NotImplementedError"),
    ]


def test_a_raise_counts_as_run_when_any_of_its_lines_ran(monkeypatch):
    monkeypatch.setattr(unreached_raises, "ALLOWED", {})
    # line 8 holds only the f-string of the raise that starts at line 7
    messages = unreached_raises.unreached({"m.py": SNIPPET}, {"m.py": {1, 2, 3, 8}})
    assert messages == ["m.py:11: never ran: raise", "m.py:16: never ran: raise NotImplementedError"]
    # a module no traced frame entered has run nothing
    assert len(unreached_raises.unreached({"m.py": SNIPPET}, {})) == 4


def test_allowed_entries_skip_one_raise_each_and_never_go_stale(monkeypatch):
    allowed = {("m.py", "raise"): "re-raise", ("m.py", "raise NotImplementedError"): "abstract"}
    monkeypatch.setattr(unreached_raises, "ALLOWED", allowed)
    assert unreached_raises.unreached({"m.py": SNIPPET}, {"m.py": {3, 9}}) == []
    # an entry that matches no statement, or several, fails
    twice = SNIPPET + "\n\ndef h():\n    raise\n"
    assert unreached_raises.unreached({"m.py": twice}, {"m.py": {3, 9}}) == [
        "m.py: allowed entry matches 2 raise statements, not 1: raise"
    ]
    gone = SNIPPET.replace("raise NotImplementedError", "return None")
    assert unreached_raises.unreached({"m.py": gone}, {"m.py": {3, 9}}) == [
        "m.py: allowed entry matches 0 raise statements, not 1: raise NotImplementedError"
    ]

