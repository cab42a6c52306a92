"""Discrete factor grids: dimensions, compositions, dense tensors, presets.

A factor space is an ordered Cartesian product of named dimensions, each with
a fixed list of level labels.  A composition is one cell of that product,
written as a tuple of level indices.  All dense per-composition arrays are
stored flat in row-major order over the declared dimension order.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

Composition = tuple[int, ...]

# Separator used inside slot labels of a reduced product space.  Each slot
# label encodes the base composition it stands for, e.g. "1/2/0".
SLOT_SEP = "/"


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
            if any(r <= 0.0 for r in ratios):
                raise ValueError("slot ratios must be positive")
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

    def validate(self, c: Composition) -> Composition:
        c = tuple(int(v) for v in c)
        if len(c) != self.ndim:
            raise ValueError(f"composition {c} has {len(c)} entries, space has {self.ndim} dims")
        for m, (v, size) in enumerate(zip(c, self.shape)):
            if not 0 <= v < size:
                raise ValueError(f"composition {c}: index {v} out of range for dim {m} (size {size})")
        return c

    def grid_index(self, comps: Sequence[Composition]) -> tuple[np.ndarray, ...]:
        """Validated fancy index of many compositions into an array shaped like the space."""
        try:
            arr = np.array(comps, dtype=np.int64).reshape(len(comps), self.ndim)
            fits = bool(np.all((arr >= 0) & (arr < self.shape)))
        except (OverflowError, TypeError, ValueError):
            fits = False
        if not fits:
            for c in comps:
                self.validate(c)  # raises, naming the first composition that does not fit
            raise ValueError(f"compositions {comps!r} do not fit shape {self.shape}")
        return tuple(arr.T)

    def encode(self, c: Composition) -> int:
        """Row-major linear index of a composition."""
        return int(np.ravel_multi_index(self.validate(c), self.shape))

    def decode(self, idx: int) -> Composition:
        """Composition at a row-major linear index."""
        idx = int(idx)
        if not 0 <= idx < self.cardinality:
            raise ValueError(f"linear index {idx} out of range for cardinality {self.cardinality}")
        out = []
        for size in reversed(self.shape):
            idx, v = divmod(idx, size)
            out.append(v)
        return tuple(reversed(out))

    def compositions(self) -> Iterator[Composition]:
        """All compositions in ascending linear-index order."""
        return itertools.product(*map(range, self.shape))

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


@dataclass(frozen=True)
class Tensor:
    """Dense real array over a space's compositions, flat row-major."""

    space: FactorSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).reshape(-1).copy()
        if vals.size != self.space.cardinality:
            raise ValueError(
                f"tensor has {vals.size} values for cardinality {self.space.cardinality}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.space.shape)

    def __getitem__(self, c: Composition) -> float:
        return float(self.values[self.space.encode(c)])

    def is_rates(self) -> bool:
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))


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
    slot_dim_name: str = "slot",
) -> FactorSpace:
    """Product of a categorical slot dimension with a new factor grid.

    Each slot level stands for one support composition of some base space and
    carries that composition's dataset ratio.  Slot labels encode the base
    composition indices joined by '/'; ratios are kept as slot metadata so
    ratio-guided evaluation can sample inherited compositions.
    """
    if not support:
        raise ValueError("support must be non-empty")
    comps = [tuple(int(v) for v in c) for c, _ in support]
    weights = [float(w) for _, w in support]
    width = len(comps[0])
    if any(len(c) != width for c in comps):
        raise ValueError("support compositions must share one base space")
    if len(set(comps)) != len(comps):
        raise ValueError("support compositions must be unique")
    if any(w <= 0.0 for w in weights):
        raise ValueError("support weights must be positive")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"support weights sum to {total!r}, expected 1 within 1e-9")
    labels = tuple(SLOT_SEP.join(str(v) for v in c) for c in comps)
    slot_dim = FactorDimension(slot_dim_name, labels)
    return FactorSpace((slot_dim,) + next_space.dims, slot_ratios=tuple(weights))


def slot_base_compositions(space: FactorSpace) -> list[Composition]:
    """Decode the base compositions stored in a reduced space's slot labels."""
    if space.slot_ratios is None:
        raise ValueError("space has no slot dimension with ratios")
    out = []
    for label in space.dims[0].levels:
        out.append(tuple(int(part) for part in label.split(SLOT_SEP)))
    return out


def gather_slots(values: np.ndarray, reduced: FactorSpace, world: FactorSpace) -> np.ndarray:
    """A flat world array read at every (slot, new-factor cell) of a reduced space.

    ``world`` is the full-coordinate space behind the reduced one: its leading
    dimensions hold the slot base compositions, its trailing ones are the
    new-factor grid.  Row j of the (slots, new-factor cells) result holds the
    world cells whose prefix is slot j's base composition.
    """
    bases = np.array(slot_base_compositions(reduced), dtype=np.int64)
    prefix, suffix = world.shape[: bases.shape[1]], world.shape[bases.shape[1] :]
    if suffix != reduced.shape[1:]:
        raise ValueError(f"new grid {reduced.shape[1:]} does not end world shape {world.shape}")
    rows = np.ravel_multi_index(tuple(bases.T), prefix)  # raises if a base lies outside
    return np.asarray(values).reshape(-1, math.prod(suffix))[rows]


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


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text: the header row, then every row, with bare newline line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
