"""Spatial meshes, time grids, and nodal space-time fields.

The solver works on a tensor product of a uniform 1-D spatial mesh and a
possibly non-uniform time grid.  Time grids support bisection refinement,
which is how the adaptive loop inserts nodes.  Everything here is immutable:
refinement returns a new grid instead of mutating the old one, so grids can
be shared freely between threads and history records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "SpatialMesh",
    "TimeGrid",
    "SpaceTimeField",
    "build_spatial_mesh",
    "build_uniform_time_grid",
    "build_time_grid",
    "bisect_intervals",
    "format_time_grid",
]


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    if out.ndim != len(shape_hint.split("x")):
        raise ValueError(f"expected a {shape_hint} array, got shape {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh on [x_left, x_right] with d cells and d+1 nodes."""

    x_left: float
    x_right: float
    d: int
    nodes: np.ndarray
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _frozen_array(self.nodes, "n"))
        if self.d < 1:
            raise ValueError(f"need at least one cell, got d={self.d}")
        if not self.x_left < self.x_right:
            raise ValueError(f"empty domain [{self.x_left}, {self.x_right}]")
        if self.nodes.shape != (self.d + 1,):
            raise ValueError(f"expected {self.d + 1} nodes, got {self.nodes.shape}")
        span = self.x_right - self.x_left
        if self.nodes[0] != self.x_left or self.nodes[-1] != self.x_right:
            raise ValueError("mesh nodes do not span the stated domain")
        steps = np.diff(self.nodes)
        if np.any(steps <= 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        if np.max(np.abs(steps - self.h)) > 1e-14 * span:
            raise ValueError("mesh is not uniform to within 1e-14 of the span")

    @property
    def interior(self) -> np.ndarray:
        """Indices of the interior nodes (everything but the two endpoints)."""
        return np.arange(1, self.d)


def build_spatial_mesh(x_left: float, x_right: float, d: int) -> SpatialMesh:
    """Build the uniform mesh with d cells on [x_left, x_right]."""
    x_left = float(x_left)
    x_right = float(x_right)
    d = int(d)
    if d < 1:
        raise ValueError(f"need at least one cell, got d={d}")
    if not x_left < x_right:
        raise ValueError(f"empty domain [{x_left}, {x_right}]")
    nodes = np.linspace(x_left, x_right, d + 1)
    return SpatialMesh(x_left, x_right, d, nodes, (x_right - x_left) / d)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes 0 = tau_0 < ... < tau_N = T."""

    T: float
    taus: np.ndarray
    deltas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "taus", _frozen_array(self.taus, "n"))
        object.__setattr__(self, "deltas", _frozen_array(self.deltas, "n"))
        if self.T <= 0.0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if self.taus.size < 2:
            raise ValueError("a time grid needs at least one interval")
        if self.taus[0] != 0.0:
            raise ValueError(f"time grids start at 0, got tau_0={self.taus[0]}")
        if self.taus[-1] != self.T:
            raise ValueError(f"last node {self.taus[-1]} != horizon {self.T}")
        if np.any(self.deltas <= 0.0):
            raise ValueError("time nodes must be strictly increasing")
        if self.deltas.shape != (self.taus.size - 1,):
            raise ValueError("deltas length does not match the node count")
        if np.max(np.abs(self.deltas - np.diff(self.taus))) > 1e-12 * self.T:
            raise ValueError("deltas are inconsistent with the node positions")
        if abs(float(np.sum(self.deltas)) - self.T) > 1e-12 * self.T:
            raise ValueError("interval lengths do not sum to the horizon")

    @property
    def N(self) -> int:
        """Number of time intervals."""
        return self.taus.size - 1


def build_time_grid(taus) -> TimeGrid:
    """Build a TimeGrid from an ascending node array starting at 0."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size < 2:
        raise ValueError("need a 1-D array with at least two time nodes")
    return TimeGrid(float(taus[-1]), taus, np.diff(taus))


def build_uniform_time_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with N intervals on [0, T]."""
    T = float(T)
    N = int(N)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    if N < 1:
        raise ValueError(f"need at least one interval, got N={N}")
    return build_time_grid(np.linspace(0.0, T, N + 1))


def bisect_intervals(grid: TimeGrid, marks: Iterable[int]) -> TimeGrid:
    """Split every marked interval at its midpoint.

    Unmarked intervals are untouched, so the input node set is a subset of
    the output node set.  An empty mark set returns an identical copy.
    """
    mark_set = {int(i) for i in marks}
    for i in mark_set:
        if not 0 <= i < grid.N:
            raise ValueError(f"interval index {i} out of range 0..{grid.N - 1}")
    nodes: list[float] = []
    for i in range(grid.N):
        nodes.append(grid.taus[i])
        if i in mark_set:
            nodes.append(0.5 * (grid.taus[i] + grid.taus[i + 1]))
    nodes.append(grid.taus[-1])
    return build_time_grid(np.array(nodes))


@dataclass(frozen=True)
class SpaceTimeField:
    """Nodal values of a scalar field on tgrid x smesh, time-major."""

    tgrid: TimeGrid
    smesh: SpatialMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "nxm"))
        expected = (self.tgrid.N + 1, self.smesh.d + 1)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grids {expected}"
            )


def format_time_grid(grid: TimeGrid) -> str:
    """Render a grid as text, one node per line."""
    lines = [f"{t:.17g}" for t in grid.taus]
    return "\n".join(lines) + "\n"
