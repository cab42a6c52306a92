"""The package's public surface: every name has a user outside the tests.

A public name is a module-level def or class of ``src/facil`` whose name has
no leading underscore, or an entry of ``facil.__all__``.  Each one must be
named (as a whole word) outside ``tests/``: in a ``src/facil`` module other
than its own definition and the ``__init__`` export, in ``bench/*.py``, in
``README.md`` or under ``.github/``.  A name that only the tests use is
test-only API and belongs in the tests.  No linter runs on this repository,
so the unused-import check is here too.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import facil

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "facil"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def words(text: str) -> Counter:
    return Counter(WORD.findall(text))


def outside_tests() -> Counter:
    """Word counts of every src module but ``__init__``, bench/*.py, README.md and .github/."""
    paths = [*MODULES, *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    paths += [p for p in (ROOT / ".github").rglob("*") if p.is_file() and p.suffix != ".pyc"]
    return sum((words(p.read_text(encoding="utf-8")) for p in paths), Counter())


def public_definitions() -> list[tuple[str, str]]:
    """(name, source text of its definition) of each public module-level def and class."""
    found = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((node.name, ast.get_source_segment(source, node, padded=True)))
    return found


def test_every_public_name_is_named_outside_the_tests():
    counts = outside_tests()
    unused = [name for name, text in public_definitions() if counts[name] == words(text)[name]]
    # an __all__ entry that is no def or class (a type alias, say) needs one use beyond it
    defined = {name for name, _ in public_definitions()}
    unused += [name for name in facil.__all__ if name not in defined and counts[name] < 2]
    assert not unused, f"public names with no user outside tests/: {sorted(unused)}"


def test_all_entries_resolve_and_none_repeats():
    repeated = [name for name, n in Counter(facil.__all__).items() if n > 1]
    assert not repeated, f"repeated __all__ entries: {repeated}"
    missing = [name for name in facil.__all__ if not hasattr(facil, name)]
    assert not missing, f"__all__ entries facil does not define: {missing}"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; lines marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports its imports by name in __all__
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {item.value for item in node.value.elts}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not unused, f"imported but never read: {unused}"
