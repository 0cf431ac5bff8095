"""Multi-index bookkeeping for N-dimensional tensor-product grids.

Grids are uniform boxes [0, b_1] x ... x [0, b_N] with M_i intervals per
direction, so M_i + 1 points including both edges.  Solution vectors are
stored flat; the maps below translate between multi-indices and flat
indices, classify nodes into active ("inner") and frozen ("outer") sets,
and count the solve lines used by the directional tridiagonal solver.

Node indexing (lower bound 0 per direction) is zero-based flat, and
direction 1 is always the fastest-varying coordinate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FlatIndexMap:
    """Bijection between boxed multi-indices and a contiguous flat range.

    Maps j = (j_1, ..., j_N) with m_i <= j_i <= M_i to

        J = j_1 + sum_{l>=2} (j_l - m_l) * prod_{r<l} (M_r - m_r + 1),

    whose range is {m_1, ..., size + m_1 - 1}, the Fortran-order ravel of
    the box.  The inverse runs the mod-and-divide recurrence, O(N) per call.
    """

    lowers: tuple[int, ...]
    uppers: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lowers) != len(self.uppers) or not self.lowers:
            raise ValueError("lowers/uppers must be equal-length, nonempty")
        for m, M in zip(self.lowers, self.uppers):
            if m > M:
                raise ValueError(f"empty index range [{m}, {M}]")

    @property
    def ndim(self) -> int:
        return len(self.lowers)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(M - m + 1 for m, M in zip(self.lowers, self.uppers))

    @cached_property
    def size(self) -> int:
        return math.prod(self.sizes)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        acc, out = 1, []
        for s in self.sizes:
            out.append(acc)
            acc *= s
        return tuple(out)

    @property
    def start(self) -> int:
        return self.lowers[0]

    @property
    def stop(self) -> int:
        return self.lowers[0] + self.size

    def encode(self, j: Sequence[int]) -> int:
        if len(j) != self.ndim:
            raise ValueError(f"expected {self.ndim} components, got {len(j)}")
        flat = self.lowers[0]
        for comp, m, M, stride in zip(j, self.lowers, self.uppers, self.strides):
            if not m <= comp <= M:
                raise IndexError(f"component {comp} outside [{m}, {M}]")
            flat += (comp - m) * stride
        return flat

    def decode(self, flat: int) -> tuple[int, ...]:
        if not self.start <= flat < self.stop:
            raise IndexError(f"flat index {flat} outside [{self.start}, {self.stop})")
        c = flat - self.lowers[0]
        out = []
        for m, size in zip(self.lowers, self.sizes):
            q = c % size
            c = (c - q) // size
            out.append(m + q)
        return tuple(out)

    def encode_array(self, j: np.ndarray) -> np.ndarray:
        """Vectorized ``encode``; ``j`` has shape (..., ndim)."""
        j = np.asarray(j)
        got = j.shape[-1] if j.ndim else 0
        if got != self.ndim:
            raise ValueError(f"expected {self.ndim} components, got {got}")
        lo = np.array(self.lowers)
        hi = np.array(self.uppers)
        if np.any(j < lo) or np.any(j > hi):
            raise IndexError("multi-index component out of bounds")
        return self.lowers[0] + (j - lo) @ np.array(self.strides)

    def decode_array(self, flat: np.ndarray) -> np.ndarray:
        """Vectorized ``decode`` by a Fortran-order unravel; returns shape (..., ndim)."""
        flat = np.asarray(flat)
        if np.any(flat < self.start) or np.any(flat >= self.stop):
            raise IndexError("flat index out of bounds")
        offset = np.unravel_index(flat - self.start, self.sizes, order="F")
        return np.stack(offset, axis=-1) + self.lowers


@dataclass(frozen=True)
class GridShape:
    """Geometry of one uniform tensor grid.

    ``interior_counts`` holds the interval counts M_1..M_N; direction i
    then has M_i + 1 equally spaced points j*h_i with h_i = bound_i / M_i.
    Degenerate directions (M_i = 1) are legal: their single active node
    sits on the upper edge and is handled by the mirrored stencil.
    """

    interior_counts: tuple[int, ...]
    bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.interior_counts) != len(self.bounds):
            raise ValueError("interior_counts and bounds must align")
        try:
            counts = tuple(operator.index(m) for m in self.interior_counts)
        except TypeError:
            raise ValueError(f"interval counts must be integers, got {self.interior_counts}") from None
        if any(m < 1 for m in counts):
            raise ValueError("each direction needs at least one interval")
        if not all(0.0 < b < math.inf for b in self.bounds):
            raise ValueError(f"bounds must be finite and strictly positive, got {self.bounds}")
        object.__setattr__(self, "interior_counts", counts)
        object.__setattr__(self, "bounds", tuple(float(b) for b in self.bounds))

    @property
    def ndim(self) -> int:
        return len(self.interior_counts)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(b / m for b, m in zip(self.bounds, self.interior_counts))

    @cached_property
    def points_per_direction(self) -> tuple[int, ...]:
        return self.node_map.sizes

    @cached_property
    def total_points(self) -> int:
        return self.node_map.size

    @cached_property
    def interior_points(self) -> int:
        return math.prod(self.interior_counts)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Flat-index shift E_i of the +e_i neighbour: E_1 = 1, E_i = prod_{r<i}(M_r+1)."""
        return self.node_map.strides

    @cached_property
    def node_map(self) -> FlatIndexMap:
        """Zero-based map over all nodes, flat range {0, ..., total_points-1}."""
        return FlatIndexMap((0,) * self.ndim, self.interior_counts)

    def line_count(self, direction: int) -> int:
        self._check_direction(direction)
        return math.prod(m for r, m in enumerate(self.interior_counts, start=1) if r != direction)

    def axis_coordinates(self, direction: int) -> np.ndarray:
        self._check_direction(direction)
        m = self.interior_counts[direction - 1]
        return np.linspace(0.0, self.bounds[direction - 1], m + 1)

    def coordinate(self, j: Sequence[int]) -> tuple[float, ...]:
        return tuple(comp * h for comp, h in zip(j, self.spacings))

    @cached_property
    def reversed_points(self) -> tuple[int, ...]:
        """Shape of the C-ordered ndarray view: direction 1 is the last axis."""
        return tuple(reversed(self.points_per_direction))

    def axis_of(self, direction: int) -> int:
        """ndarray axis of a direction within the ``reversed_points`` view."""
        self._check_direction(direction)
        return self.ndim - direction

    def _check_direction(self, direction: int) -> None:
        if not 1 <= direction <= self.ndim:
            raise ValueError(f"direction {direction} outside 1..{self.ndim}")
