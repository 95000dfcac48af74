"""Flat parameter vectors carved into named, role-tagged blocks.

A model's parameters live in one float64 vector. A BlockLayout names contiguous
regions of that vector and tags each with a role (representation or head), so
aggregation can act on any subset of blocks. All aggregation arithmetic in the
package funnels through the operations here, which fix the reduction order:
results are reproducible bit for bit on reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-12


class Role(str, Enum):
    REPRESENTATION = "representation"
    HEAD = "head"


@dataclass(frozen=True)
class Block:
    name: str
    offset: int
    length: int
    role: Role

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"block {self.name!r} has negative offset.")
        if self.length < 1:
            raise ValueError(f"block {self.name!r} must have length >= 1.")

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.length)


@dataclass(frozen=True)
class BlockLayout:
    """Ordered, contiguous, non-overlapping blocks covering a parameter vector."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("layout needs at least one block.")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("block names must be unique.")
        expected = 0
        for b in self.blocks:
            if b.offset != expected:
                raise ValueError(
                    f"block {b.name!r} starts at {b.offset}, expected {expected}: "
                    "blocks must be contiguous and in offset order."
                )
            expected = b.offset + b.length

    @property
    def total_params(self) -> int:
        last = self.blocks[-1]
        return last.offset + last.length

    def role_slices(self, role: Role | None) -> tuple[slice, ...]:
        """Slices of the blocks with the given role; all blocks when role is None."""
        if role is None:
            return tuple(b.slice for b in self.blocks)
        return tuple(b.slice for b in self.blocks if b.role == role)

    def role_size(self, role: Role) -> int:
        return sum(b.length for b in self.blocks if b.role == role)


def layout_from_sizes(sizes: Sequence[tuple[str, int, Role]]) -> BlockLayout:
    """Build a layout from (name, length, role) triples laid out consecutively."""
    blocks = []
    offset = 0
    for name, length, role in sizes:
        blocks.append(Block(name, offset, length, role))
        offset += length
    return BlockLayout(tuple(blocks))


@dataclass(eq=False)
class ParamVector:
    """A float64 parameter vector plus its layout.

    Entries must be finite; construction and every public operation enforce
    that, so a NaN or Inf surfaces as a hard error where it first appears.
    Treat instances as immutable unless you own them (the engine mutates the
    vectors of the client states it owns; everything else takes copies).
    """

    values: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.layout.total_params:
            raise ValueError(
                f"values have shape {v.shape}, layout expects ({self.layout.total_params},)."
            )
        self.values = v
        _require_finite(v, "parameter vector")

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries.")


def _check_common_layout(params: Sequence[ParamVector]) -> BlockLayout:
    if not params:
        raise ValueError("need at least one parameter vector.")
    layout = params[0].layout
    for p in params[1:]:
        if p.layout != layout:
            raise ValueError("parameter vectors do not share a layout.")
    return layout


def weighted_average(
    params: Sequence[ParamVector],
    weights: Sequence[float],
    role_filter: Role | None = None,
) -> ParamVector:
    """Convex combination of parameter vectors on the selected blocks.

    Weights must be non-negative and sum to 1 within 1e-12; they are used as
    given, never renormalized. Accumulation is anchored at the first input,
    result = v0 + sum_k w_k * (v_k - v0), evaluated left to right, which makes
    the average of K identical vectors return that vector bit for bit. Blocks
    outside the role filter are copied unchanged from the first input.
    """
    layout = _check_common_layout(params)
    w = [float(x) for x in weights]
    if len(w) != len(params):
        raise ValueError(f"{len(params)} vectors but {len(w)} weights.")
    total = 0.0
    for x in w:
        if not np.isfinite(x) or x < 0.0:
            raise ValueError("weights must be finite and non-negative.")
        total += x
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}.")

    base = params[0].values
    out = base.copy()
    for sl in layout.role_slices(role_filter):
        seg = out[sl]
        for p, wk in zip(params[1:], w[1:]):
            seg += wk * (p.values[sl] - base[sl])
    _require_finite(out, "weighted average")
    return ParamVector(out, layout)


def weighted_sum(
    params: Sequence[ParamVector],
    weights: Sequence[float],
    role_filter: Role | None = None,
) -> ParamVector:
    """Plain linear combination sum_k w_k * v_k on the selected blocks.

    No constraint on the weight total (partial-participation estimators use
    weights that only sum to 1 in expectation). Blocks outside the filter are
    copied from the first input. Left-to-right accumulation in input order.
    """
    layout = _check_common_layout(params)
    w = [float(x) for x in weights]
    if len(w) != len(params):
        raise ValueError(f"{len(params)} vectors but {len(w)} weights.")
    for x in w:
        if not np.isfinite(x):
            raise ValueError("weights must be finite.")

    out = params[0].values.copy()
    for sl in layout.role_slices(role_filter):
        seg = out[sl]
        seg[:] = w[0] * params[0].values[sl]
        for p, wk in zip(params[1:], w[1:]):
            seg += wk * p.values[sl]
    _require_finite(out, "weighted sum")
    return ParamVector(out, layout)
