"""Spatial meshes, time grids, and nodal space-time fields.

The solver works on a tensor product of a uniform 1-D spatial mesh and a
possibly non-uniform time grid.  Each grid holds only the values that define
it and derives the rest once, when it is built: a SpatialMesh(x_left,
x_right, d) its nodes and width h, a TimeGrid(taus) its horizon T, its
interval lengths deltas = np.diff(taus) and its interval keys (t0, t1).  So
a grid whose values disagree cannot be built.  Time grids support bisection
refinement, which is how the adaptive loop inserts nodes.  Everything here is
immutable: refinement returns a new grid instead of mutating the old one, so
grids can be shared freely between threads and history records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
]


def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh on [x_left, x_right] with d cells and d+1 nodes."""

    x_left: float
    x_right: float
    d: int
    nodes: np.ndarray = field(init=False)
    h: float = field(init=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"need at least one cell, got d={self.d}")
        if not self.x_left < self.x_right:
            raise ValueError(f"empty domain [{self.x_left}, {self.x_right}]")
        nodes = np.linspace(self.x_left, self.x_right, self.d + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h", (self.x_right - self.x_left) / self.d)

    @property
    def interior(self) -> np.ndarray:
        """Indices of the interior nodes (everything but the two endpoints)."""
        return np.arange(1, self.d)


def build_spatial_mesh(x_left: float, x_right: float, d: int) -> SpatialMesh:
    """Build the uniform mesh with d cells on [x_left, x_right]."""
    return SpatialMesh(float(x_left), float(x_right), int(d))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes 0 = tau_0 < ... < tau_N = T."""

    taus: np.ndarray
    T: float = field(init=False)
    deltas: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        taus = _frozen_array(self.taus)
        if taus.ndim != 1 or taus.size < 2:
            raise ValueError("need a 1-D array with at least two time nodes")
        if taus[0] != 0.0:
            raise ValueError(f"time grids start at 0, got tau_0={taus[0]}")
        deltas = np.diff(taus)
        # Written so that a NaN node fails too.
        if not np.all(deltas > 0.0):
            raise ValueError("time nodes must be strictly increasing")
        deltas.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "T", float(taus[-1]))
        object.__setattr__(self, "deltas", deltas)

    @property
    def N(self) -> int:
        """Number of time intervals."""
        return self.taus.size - 1

    @cached_property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        """Each interval as its key (t0, t1), in order."""
        return tuple(zip(self.taus[:-1].tolist(), self.taus[1:].tolist()))


def build_time_grid(taus) -> TimeGrid:
    """Build a TimeGrid from an ascending node array starting at 0."""
    return TimeGrid(taus)


def build_uniform_time_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with N intervals on [0, T]."""
    T = float(T)
    N = int(N)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got T={T}")
    if N < 1:
        raise ValueError(f"need at least one interval, got N={N}")
    return TimeGrid(np.linspace(0.0, T, N + 1))


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
    return TimeGrid(nodes)


@dataclass(frozen=True)
class SpaceTimeField:
    """Nodal values of a scalar field on tgrid x smesh, time-major."""

    tgrid: TimeGrid
    smesh: SpatialMesh
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values))
        expected = (self.tgrid.N + 1, self.smesh.d + 1)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grids {expected}"
            )

