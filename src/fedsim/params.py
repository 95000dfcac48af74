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

    def role_slices(self, role: Role) -> tuple[slice, ...]:
        """Slices of the blocks with the given role."""
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
    Treat instances as immutable unless you own them (local_sgd_step
    updates one client's vector in place; everything else takes copies).
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


def client_weights(weights: Sequence[float] | None, n: int, per: str = "client") -> np.ndarray:
    """The client weights w_k as an (n,) float64 array; uniform 1/n when weights is None.

    Given weights must be one per client, finite, non-negative, and sum to 1
    within WEIGHT_SUM_TOL, summed left to right. per names what each weight
    belongs to in the length error.
    """
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray([float(x) for x in weights], dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"one weight per {per} required ({n} entries).")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative.")
    total, to_one = weight_total(w.tolist())
    if not to_one:
        raise ValueError(f"weights sum to {total!r}; they must sum to 1 within {WEIGHT_SUM_TOL}.")
    return w


def weight_total(weights: Sequence[float]) -> tuple[float, bool]:
    """The weights' total, summed left to right, and whether it is 1 within WEIGHT_SUM_TOL."""
    total = 0.0
    for x in weights:
        total += float(x)
    return total, abs(total - 1.0) <= WEIGHT_SUM_TOL


def _rows_and_weights(rows, weights) -> tuple[np.ndarray, list[float]]:
    rows = np.asarray(rows, dtype=np.float64)
    w = [float(x) for x in weights]
    if rows.ndim == 0 or rows.shape[0] == 0:
        raise ValueError("need at least one row.")
    if len(w) != rows.shape[0]:
        raise ValueError(f"{rows.shape[0]} rows but {len(w)} weights.")
    return rows, w


def weighted_average(rows: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Convex combination of a stack of rows, over axis 0.

    The weights must pass client_weights; they are used as given, never
    renormalized. Accumulation is anchored at the first row,
    result = r0 + sum_k w_k * (r_k - r0), evaluated left to right, which makes
    the average of K identical rows return that row bit for bit. Callers pick
    blocks by slicing columns before the call.
    """
    rows, w = _rows_and_weights(rows, weights)
    w = client_weights(w, len(w)).tolist()
    base = rows[0]
    out = base.copy()
    for row, wk in zip(rows[1:], w[1:]):
        out += wk * (row - base)
    _require_finite(out, "weighted average")
    return out


def weighted_sum(rows: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Plain linear combination sum_k w_k * r_k of a stack of rows, over axis 0.

    No constraint on the weight total (partial-participation estimators use
    weights that only sum to 1 in expectation). Left-to-right accumulation in
    row order.
    """
    rows, w = _rows_and_weights(rows, weights)
    for x in w:
        if not np.isfinite(x):
            raise ValueError("weights must be finite.")

    out = w[0] * rows[0]
    for row, wk in zip(rows[1:], w[1:]):
        out += wk * row
    _require_finite(out, "weighted sum")
    return out
