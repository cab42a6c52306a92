"""``json_text`` against ``json.dumps(indent=2)`` on tables and shared blocks.

A list whose items are rows of one length is written column by column, and
a ``Block`` is rendered once and re-indented at every later use.  Each case
below is written both ways and must come out byte for byte the same, also
where a table has a cell that sends it back to the value-by-value path: a
bool, a NaN or infinity, a numpy float, an empty or a ragged row.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from facil.spaces import Block, json_text  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ints = st.integers() | st.integers(min_value=-(2**70), max_value=2**70)
finite = st.floats(allow_nan=False, allow_infinity=False)
pairs = st.lists(ints, min_size=2, max_size=2)
# Cell kinds of a table column: scalars, rows of ints, and rows of rows (a 3-level table).
CELLS = {
    "int": ints,
    "float": finite,
    "str": st.text(max_size=3),
    "pair": pairs,
    "pair_tuple": st.tuples(ints, ints),
    "pairs": st.lists(pairs, min_size=2, max_size=2),
}
FLAWS = {
    "bool": st.booleans(),
    "non-finite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    "numpy float": finite.map(np.float64),
    "ragged pair": st.lists(ints, min_size=1, max_size=1),
}


@st.composite
def tables(draw):
    """Rows of one length, each column of one cell kind, maybe with one flaw."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), max_size=4))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)).map(list), min_size=1, max_size=6))
    flaw = draw(st.sampled_from([None, "empty row", "short row", *sorted(FLAWS)]))
    i = draw(st.integers(0, len(rows) - 1))
    if flaw == "empty row":
        rows.insert(i, [])
    elif flaw == "short row" and kinds:
        rows[i].pop()
    elif flaw in FLAWS and kinds:
        rows[i][draw(st.integers(0, len(kinds) - 1))] = draw(FLAWS[flaw])
    return rows


leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(ints | st.booleans(), max_size=6),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
    tables(),
)
docs = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@SETTINGS
@given(doc=docs)
def test_json_text_equals_json_dumps_on_tables(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def nest(node, path):
    """node at the end of a path of "list" and "dict" steps, outermost first."""
    for step in reversed(path):
        node = [node] if step == "list" else {"k": node}
    return node


@SETTINGS
@given(
    body=docs,
    paths=st.lists(st.lists(st.sampled_from(["list", "dict"]), max_size=4), min_size=1, max_size=4),
    others=st.lists(docs, max_size=2),
)
def test_a_shared_block_renders_as_its_document_at_every_depth(body, paths, others):
    # one block used at depths 0 to 4 (depth 0: the block is the whole document),
    # first at any of them, beside documents that do not use it
    def build(leaf):
        uses = [nest(leaf, path) for path in paths]
        return uses[0] if len(uses) == 1 and not others else [*uses, *others]

    block = Block(body)
    assert json_text(build(block)) == json.dumps(build(body), indent=2)
    assert block.text is not None


def test_block_keeps_one_text_per_document():
    block = Block({"counts": [1, 2]})
    doc = {"a": block, "b": [block], "c": block}
    assert json_text(doc) == json.dumps({"a": block.doc, "b": [block.doc], "c": block.doc}, indent=2)
    first = block.text
    assert json_text([block]) == json.dumps([block.doc], indent=2)
    assert block.text is first  # rendered once; later uses only re-indent it
