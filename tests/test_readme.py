"""README's Python examples run as written and give the results their comments state."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_blocks_give_their_commented_results():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}

    # the first block prints; each print's comment starts with the printed value
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(blocks[0], namespace)
    prints = [line for line in blocks[0].splitlines() if "print(" in line]
    stated = [line.split("#", 1)[1].split()[0] for line in prints]
    assert stated == ["True", "0.8125", "4"]
    assert stdout.getvalue().split() == stated

    # the second block runs in the first one's namespace and states its result as an expression
    exec(blocks[1], namespace)
    claims = [line.lstrip("# ") for line in blocks[1].splitlines() if line.startswith("# ")]
    assert claims == ["[h.converged for h in histories] == [True, True, True]"]
    assert eval(claims[0], namespace) is True
