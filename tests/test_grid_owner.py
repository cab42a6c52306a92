"""Only ``dataset.py`` derives facts from a count grid.

A dataset keeps its total, support and level marginals; every other module
reads those instead of scanning a ``.grid`` again.  So no ``src/facil``
module but ``dataset.py`` passes an expression holding a ``.grid`` to
``np.count_nonzero``, ``np.argwhere``, ``np.flatnonzero`` or ``np.nonzero``,
or calls ``.sum`` on a ``.grid``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "facil"
SCANS = {"count_nonzero", "argwhere", "flatnonzero", "nonzero"}


def holds_grid(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "grid" for n in ast.walk(node))


def grid_scans(source: str) -> list[int]:
    """Line numbers of the grid scans in one module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        scan = isinstance(func.value, ast.Name) and func.value.id == "np" and func.attr in SCANS
        if scan and any(holds_grid(arg) for arg in [*node.args, *(k.value for k in node.keywords)]):
            lines.append(node.lineno)
        elif func.attr == "sum" and isinstance(func.value, ast.Attribute) and func.value.attr == "grid":
            lines.append(node.lineno)
    return lines


def test_guard_finds_each_form_of_grid_scan():
    source = "\n".join(
        [
            "np.count_nonzero(d.grid)",
            "np.argwhere(x.grid > 0)",
            "np.flatnonzero(a=d.grid)",
            "np.nonzero(d.grid.reshape(-1))",
            "d.grid.sum()",
            "d.grid.sum(axis=(0, 1))",
            "np.count_nonzero(marked)",  # not a grid
            "grid.sum()",  # a local array, not an attribute
            "d.grid.take(place).sum(axis=1)",  # a gather of the grid, summed
        ]
    )
    assert grid_scans(source) == [1, 2, 3, 4, 5, 6]


def test_only_dataset_scans_a_count_grid():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "dataset.py" and (lines := grid_scans(path.read_text(encoding="utf-8")))
    }
    assert not found, f"grid scans outside dataset.py (module: lines): {found}"
