"""Discrete factor grids: dimensions, compositions, presets.

A factor space is an ordered Cartesian product of named dimensions, each with
a fixed list of level labels.  A composition is one cell of that product,
written as a tuple of level indices.  Per-cell values are numpy arrays of
the space's shape, row-major over the declared dimension order.
``FactorSpace.cells`` is the one check and conversion of compositions to
those flat cells, a whole list in one call; ``np.unravel_index`` turns
cells back into compositions.
A reduced space parses its slot labels once, into ``FactorSpace.slot_bases``
(a plain space has none and raises there), which ``slot_cells``, the one map
of slot cells to world cells, reads.
``json_text`` is the one writer of the ``indent=2`` JSON layout: it writes a
table (rows of one length) column by column, and a ``Block`` once however
often it appears, appending every piece to one list that it joins once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence

import numpy as np

Composition = tuple[int, ...]

# Separator used inside slot labels of a reduced product space.  Each slot
# label encodes the base composition it stands for, e.g. "1/2/0".
SLOT_SEP = "/"


def integer(value, field: str) -> int:
    """An integer (Python, numpy or bool) as a Python int.

    Anything else, 2.5 and 2.0 alike, raises ValueError starting with ``field``
    instead of being truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field}: must be an integer, got {value!r}") from None


def _integers(values, field: str) -> np.ndarray:
    """An int array, or an object array of Python ints; a non-integer raises like ``integer``."""
    out = np.asarray(values)
    if out.dtype.kind not in "biu" and out.size:
        # value by value: a list mixing numpy integer types can promote to float64
        items = np.asarray(values, dtype=object)
        out = np.array([integer(v, field) for v in items.ravel()], dtype=object)
        out = out.reshape(items.shape)
    return out


def integer_array(values, field: str) -> np.ndarray:
    """Integers (a number, a sequence or an array) as int64, checked like ``integer``."""
    out = _integers(values, field)
    if out.dtype.kind in "uO" and out.size:  # a cast would wrap uint64 or overflow on Python ints
        low, high = int(out.min()), int(out.max())
        if high >= 2**63:
            raise ValueError(f"{field}: must be below 2**63, got {high}")
        if low < -(2**63):
            raise ValueError(f"{field}: must be at least -2**63, got {low}")
    return out.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FactorDimension:
    """One named axis with ordered, unique level labels."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.name:
            raise ValueError("dimension name must be non-empty")
        if len(self.levels) < 1:
            raise ValueError(f"dimension {self.name!r} needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"dimension {self.name!r} has duplicate level labels")

    def __len__(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class FactorSpace:
    """Ordered product of factor dimensions.

    ``slot_ratios`` is only present on reduced product spaces (see
    :func:`reduced_product`); it attaches a frozen sampling weight to each
    level of the first ("slot") dimension.
    """

    dims: tuple[FactorDimension, ...]
    slot_ratios: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("a factor space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")
        if self.slot_ratios is not None:
            ratios = tuple(float(r) for r in self.slot_ratios)
            object.__setattr__(self, "slot_ratios", ratios)
            if len(ratios) != len(self.dims[0]):
                raise ValueError(
                    f"slot_ratios has {len(ratios)} entries for "
                    f"{len(self.dims[0])} slot levels"
                )
            if not all(0.0 < r < math.inf for r in ratios):  # also false for NaN
                raise ValueError(f"slot ratios must be finite and positive, got {ratios}")
            if abs(math.fsum(ratios) - 1.0) > 1e-9:
                raise ValueError(f"slot ratios sum to {math.fsum(ratios)!r}, not 1")
        try:  # numpy sizes a zero-stride int64 view of the grid without allocating it
            np.broadcast_to(np.int64(0), self.shape)
        except ValueError as exc:
            raise ValueError(f"grid of shape {self.shape} is too large for numpy ({exc})") from None

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def slot_bases(self) -> np.ndarray:
        """A reduced space's slot base compositions, one read-only row each, parsed once.

        A label that is not as many '/'-joined level indices as the first raises ValueError.
        """
        if self.slot_ratios is None:
            raise ValueError("space has no slot dimension with ratios")
        slot = self.dims[0]
        width = slot.levels[0].count(SLOT_SEP) + 1
        for label in slot.levels:
            parts = label.split(SLOT_SEP)
            if len(parts) != width or not all(p.isascii() and p.isdigit() for p in parts):
                detail = f"label {label!r} is not {width} level indices joined by {SLOT_SEP!r}"
                raise ValueError(f"slot dimension {slot.name!r}: {detail}")
        bases = np.array([parse_composition(label) for label in slot.levels])
        bases.setflags(write=False)
        return bases

    def cells(self, comps: Sequence[Composition]) -> np.ndarray:
        """Flat row-major cells of compositions; the one check of what a composition is.

        Entries go through ``integer_array`` (1.5, 2.0 and "1" raise).  A wrong
        length or an index out of range, past int64 too, raises ValueError
        naming the first such composition (walking only a list that is not
        (n, ndim) integers); a non-empty array that is not 2-D names its shape.
        """
        if isinstance(comps, np.ndarray) and comps.ndim != 2 and comps.size:
            raise ValueError(f"composition array of shape {comps.shape} is not (n, {self.ndim})")
        try:
            points = _integers(comps, "composition")
            rectangular = points.shape[1:] == (self.ndim,)
        except ValueError:  # a ragged list too
            rectangular = False
        if not rectangular:  # name a wrong length first; else converting raises again
            wrong = next((tuple(c) for c in comps if len(c) != self.ndim), None)
            if wrong is not None:
                raise ValueError(f"composition {wrong} has {len(wrong)} entries, space has {self.ndim} dims")
            points = _integers(comps, "composition")
        points = points.reshape(len(comps), self.ndim)
        outside = (points < 0) | (points >= np.array(self.shape))  # past int64 too
        if outside.any():
            row, m = np.argwhere(outside)[0]
            c, size = tuple(map(operator.index, comps[row])), self.shape[m]
            raise ValueError(f"composition {c}: index {c[m]} out of range for dim {m} (size {size})")
        return np.ravel_multi_index(tuple(points.astype(np.int64, copy=False).T), self.shape)

    def to_doc(self) -> dict:
        doc: dict = {"dims": [{"name": d.name, "levels": list(d.levels)} for d in self.dims]}
        if self.slot_ratios is not None:
            doc["slot_ratios"] = list(self.slot_ratios)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "FactorSpace":
        dims = tuple(FactorDimension(d["name"], tuple(d["levels"])) for d in doc["dims"])
        ratios = doc.get("slot_ratios")
        return cls(dims, tuple(ratios) if ratios is not None else None)


def build_space(dim_specs: Sequence[tuple[str, Sequence[str]]]) -> FactorSpace:
    """Build a factor space from (name, level labels) pairs in order."""
    return FactorSpace(tuple(FactorDimension(name, tuple(levels)) for name, levels in dim_specs))


def diagonal_init(space: FactorSpace) -> list[Composition]:
    """Cyclic main diagonal: c_k[m] = k mod |dim m|, k = 0..max(|dim|)-1.

    Covers every level of every dimension at least once; on a square grid
    this is the ordinary diagonal.
    """
    depth = max(space.shape)
    return [tuple(k % size for size in space.shape) for k in range(depth)]


_PRESETS: dict[str, list[tuple[str, list[str]]]] = {
    # 4x4 object grid for the pick-and-place skill.
    "pnp_object": [
        ("texture", ["transparent", "specular", "diffuse", "absorptive"]),
        ("geometry", ["cylindrical", "dish_like", "rod_like", "irregular"]),
    ],
    # 4x3 object grid for the open-and-close skill.
    "oc_object": [
        ("texture", ["transparent", "specular", "diffuse", "absorptive"]),
        ("size", ["small", "medium", "large"]),
    ],
    # 4x2x3 binned planar pose grid.
    "pnp_action": [
        ("x", ["x_bin_0", "x_bin_1", "x_bin_2", "x_bin_3"]),
        ("y", ["y_bin_0", "y_bin_1"]),
        ("yaw", ["yaw_bin_0", "yaw_bin_1", "yaw_bin_2"]),
    ],
    # 4x2 binned planar position grid.
    "oc_action": [
        ("x", ["x_bin_0", "x_bin_1", "x_bin_2", "x_bin_3"]),
        ("y", ["y_bin_0", "y_bin_1"]),
    ],
    # 3x3 scene grid: shadow direction x color temperature.
    "environment": [
        ("shadow_direction", ["left", "mid", "right"]),
        ("color_temperature", ["warm", "neutral", "cool"]),
    ],
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_space(name: str) -> FactorSpace:
    """One of the bundled benchmark grids; see PRESET_NAMES."""
    try:
        specs = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}") from None
    return build_space(specs)


def reduced_product(
    support: Sequence[tuple[Composition, float]],
    next_space: FactorSpace,
) -> FactorSpace:
    """Product of a categorical "slot" dimension with a new factor grid.

    Each slot level stands for one support composition of some base space and
    carries that composition's dataset ratio.  Slot labels encode the base
    composition indices joined by '/'; ratios are kept as slot metadata so
    ratio-guided evaluation can sample inherited compositions.  The slot
    dimension rejects a repeated composition (duplicate labels) and
    ``FactorSpace`` rejects ratios that are not positive or do not sum to 1.
    """
    if not support:
        raise ValueError("support must be non-empty")
    comps = [tuple(integer(v, "support") for v in c) for c, _ in support]
    if any(len(c) != len(comps[0]) for c in comps):
        raise ValueError("support compositions must share one base space")
    slot_dim = FactorDimension("slot", tuple(map(format_composition, comps)))
    return FactorSpace((slot_dim,) + next_space.dims, slot_ratios=tuple(w for _, w in support))


def slot_cells(reduced: FactorSpace, world: FactorSpace) -> np.ndarray:
    """The world cell of every (slot, new-factor cell) of a reduced space, one row per slot.

    ``world`` is the full-coordinate space behind the reduced one: its leading
    dimensions hold the slot base compositions, its trailing ones are the
    new-factor grid.  So entry (j, c) is ``rows[j] * n + c``, with rows[j]
    slot j's base composition over the leading dimensions and n the number
    of new-factor cells.
    """
    bases = reduced.slot_bases
    prefix = bases.shape[1]
    if world.shape[prefix:] != reduced.shape[1:]:
        raise ValueError(f"new grid {reduced.shape[1:]} does not end world shape {world.shape}")
    n = math.prod(reduced.shape[1:])
    return FactorSpace(world.dims[:prefix]).cells(bases)[:, None] * n + np.arange(n)


def new_factor_subspace(space: FactorSpace) -> FactorSpace:
    """The non-slot sub-grid of a reduced product space."""
    if space.slot_ratios is None:
        raise ValueError("space has no slot dimension with ratios")
    return FactorSpace(space.dims[1:])


def product_space(a: FactorSpace, b: FactorSpace) -> FactorSpace:
    """Plain concatenated product of two factor spaces."""
    return FactorSpace(a.dims + b.dims)


def format_composition(c: Composition) -> str:
    return SLOT_SEP.join(str(v) for v in c)


def parse_composition(text: str) -> Composition:
    return tuple(int(part) for part in text.split(SLOT_SEP))


def _level_labels(axis: int, size: int) -> np.ndarray:
    """Object array of the label pieces of one axis: "0", "1", ... or "/0", "/1", ..."""
    lead = SLOT_SEP if axis else ""
    return np.array([f"{lead}{v}" for v in range(size)], dtype=object)


def label_column(shape: Sequence[int]) -> np.ndarray:
    """Labels of every cell of a grid in row-major order, as an object array.

    Built by one outer string concatenation per axis.  Writers build it per
    history for the rates files, and a dense dataset once for its support
    labels, and drop it: the column of a 32**4 grid holds about 67 MB.
    """
    parts = map(_level_labels, range(len(shape)), shape)
    return reduce(lambda column, part: np.add.outer(column, part).ravel(), parts)


def composition_labels(points) -> list[str]:
    """Labels of the rows of an (n, ndim) index array, one gather per axis."""
    points = np.asarray(points, dtype=np.int64)
    labels = np.full(len(points), "", dtype=object)
    for axis, column in enumerate(points.T):  # an empty list has no columns
        labels = labels + _level_labels(axis, int(column.max(initial=-1)) + 1)[column]
    return labels.tolist()


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text: the header row, then every row, with bare newline line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def int_strings(values: np.ndarray) -> list[str]:
    """Decimal strings of a 1-D int array.

    When the values span fewer integers than the array has entries (success
    counts of 0..k on a grid larger than k, say), each distinct value is
    formatted once and the strings are gathered from that table.
    """
    if not len(values):
        return []
    low, high = int(values.min()), int(values.max())
    if high - low >= len(values):
        return list(map(str, values.tolist()))
    table = np.array([str(v) for v in range(low, high + 1)], dtype=object)
    return table[values - low].tolist()


class IntColumns:
    """A JSON object of int values, held as a key column and an int array.

    ``json_text`` writes it as it writes ``dict(zip(keys, values.tolist()))``.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: Sequence[str], values: np.ndarray) -> None:
        self.keys, self.values = keys, values


class Block:
    """A sub-document that ``json_text`` renders once, at the indent of its first use.

    A use at another indent replaces the first indent's line breaks: exact, as
    JSON text holds no raw newline inside a string.  Make blocks per document
    written, so no kept text outlives it.
    """

    __slots__ = ("doc", "text", "newline")

    def __init__(self, doc) -> None:
        self.doc, self.text, self.newline = doc, None, None


def json_text(doc, newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2)`` of a document with string keys, without its pure-Python walk.

    ``newline`` is a line break plus the indent of the level ``doc`` sits at.
    Every piece is appended to one list (``_write``), joined once at the end,
    so no text is copied once per nesting level.
    """
    out: list[str] = []
    _write(doc, newline, out)
    return "".join(out)


def _write(doc, newline: str, out: list[str]) -> None:
    """Append the pieces of ``doc``'s text at indent ``newline`` to ``out``.

    Plain ints (``type(v) is int``, so no bools) and finite floats are
    written by their own ``repr``, and a list that is a table column (see
    ``_column``) column by column; other scalars go through ``json.dumps``
    itself.  Three leaves hold prepared parts: a 1-D int ndarray is written
    as the list of its values and an ``IntColumns`` as the object it stands
    for, both through ``int_strings``, and a ``Block`` as its document.
    """
    if type(doc) is int:
        out.append(int.__repr__(doc))
    elif type(doc) is float and math.isfinite(doc):
        out.append(float.__repr__(doc))
    elif type(doc) is str:
        out.append(_quote(doc))
    elif isinstance(doc, (list, tuple)) and doc:
        inner = newline + "  "
        items = _column(doc, inner)
        if items is not None:
            _bracketed("[]", items, newline, out)
        else:  # not one column of a table: value by value
            sep = "[" + inner
            for value in doc:
                out.append(sep)
                sep = "," + inner
                _write(value, inner, out)
            out.append(newline + "]")
    elif isinstance(doc, dict) and doc:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in doc.items():
            out.append(sep + _quote(key) + ": ")
            sep = "," + inner
            _write(value, inner, out)
        out.append(newline + "}")
    elif isinstance(doc, np.ndarray) and doc.ndim == 1 and doc.dtype.kind in "iu":
        _bracketed("[]", int_strings(doc), newline, out)
    elif isinstance(doc, IntColumns):
        rows = [f"{_quote(key)}: {n}" for key, n in zip(doc.keys, int_strings(doc.values))]
        _bracketed("{}", rows, newline, out)
    elif isinstance(doc, Block):
        if doc.text is None:
            doc.text, doc.newline = json_text(doc.doc, newline), newline
        out.append(doc.text if newline == doc.newline else doc.text.replace(doc.newline, newline))
    else:  # null, booleans, non-finite floats, subclasses, [] and {}
        out.append(json.dumps(doc))


def _column(values: Sequence, newline: str) -> list[str] | None:
    """The text of each value of a table column at indent ``newline``, or None.

    A column is all plain ints, all finite floats, all strings, or all rows of
    one nonzero length whose own columns are columns (trace rows, an int
    matrix); a row is one ``str.join``.  Anything else (a bool, a NaN, a numpy
    scalar, an empty or ragged row) is None, and goes value by value.
    """
    types = set(map(type, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        return list(map(float.__repr__, values)) if all(map(math.isfinite, values)) else None
    if types == {str}:
        return list(map(_quote, values))
    if not types <= {list, tuple} or len(set(map(len, values))) != 1 or not values[0]:
        return None
    inner = newline + "  "
    columns = [_column(column, inner) for column in zip(*values)]
    if None in columns:
        return None
    start, sep, end = "[" + inner, "," + inner, newline + "]"
    return [start + row + end for row in map(sep.join, zip(*columns))]


def _bracketed(brackets: str, items: list[str], newline: str, out: list[str]) -> None:
    """Append items one per line at the next indent; no items give bare brackets."""
    if not items:
        out.append(brackets)
        return
    inner = newline + "  "
    out += brackets[0] + inner, ("," + inner).join(items), newline + brackets[1]
