"""Time-stepping solvers for the state equation and its adjoint, plus a
dense least-squares oracle.

These are deliberately conventional: a one-parameter theta scheme marching
the heat-type state equation forward and the adjoint equation backward.
They provide the assimilated trajectory, optimality cross-checks, and an
independent brute-force minimizer on tiny grids that the space-time solver
can be tested against.

Adjoint source convention: stepping from time node j+1 down to j uses
theta * g(j+1) + (1 - theta) * g(j).  With theta = 1 the backward march is
then the exact transpose of the forward implicit Euler map in the mass
inner product, provided the time quadrature puts weight delta_{j-1} on node
j and none on node 0; the duality property test relies on this.  At
theta = 0.5 the convention coincides with the usual trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem1d
from .mesh import SpaceTimeField, SpatialMesh, TimeGrid

if TYPE_CHECKING:
    from .assimilation import ProblemSpec

__all__ = [
    "ThetaSchemeConfig",
    "solve_state",
    "solve_adjoint_classic",
    "kkt_oracle",
    "optimality_residual",
    "trapezoid_time_weights",
]

ORACLE_SIZE_CAP = 2000


@dataclass(frozen=True)
class ThetaSchemeConfig:
    """Scheme parameter and the grid to march on (0.5 trapezoid, 1 implicit)."""

    theta: float
    tgrid: TimeGrid

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


class _InteriorOperator:
    """Interior-node mass/stiffness with cached per-step factorizations."""

    def __init__(self, problem: "ProblemSpec", smesh: SpatialMesh, quad_order: int):
        mats = fem1d.assemble_spatial_matrices(
            smesh, problem.a, problem.a0, quad_order=quad_order
        )
        self.M_full = mats.M
        self.M = mats.M[1:-1, :][:, 1:-1].tocsr()
        self.K = mats.K[1:-1, :][:, 1:-1].tocsr()
        self._solvers: dict[float, Callable] = {}

    def stepper(self, coef: float) -> Callable:
        """Factorized solve for (M + coef K); cached per distinct coefficient."""
        solver = self._solvers.get(coef)
        if solver is None:
            solver = spla.factorized((self.M + coef * self.K).tocsc())
            self._solvers[coef] = solver
        return solver

    def load(self, nodal: np.ndarray) -> np.ndarray:
        # Consistent load: full mass times full nodal values, interior rows.
        return (self.M_full @ nodal)[1:-1]


def solve_state(
    problem: "ProblemSpec",
    u0,
    cfg: ThetaSchemeConfig,
    smesh: SpatialMesh,
    *,
    quad_order: int = 3,
) -> SpaceTimeField:
    """March the state equation forward from the initial state u0.

    Each step solves (M + theta dt K) y(j+1) = (M - (1-theta) dt K) y(j)
    plus the mass-weighted source, with homogeneous Dirichlet values pinned
    at the boundary nodes.  u0 must already vanish there.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (smesh.d + 1,):
        raise ValueError(f"u0 has shape {u0.shape}, expected {(smesh.d + 1,)}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 must be finite")
    if not np.all(np.abs(u0[[0, -1]]) <= 1e-12):
        raise ValueError("u0 must vanish at the boundary nodes")

    op = _InteriorOperator(problem, smesh, quad_order)
    tgrid = cfg.tgrid
    theta = cfg.theta
    f_nodal = fem1d.sample(problem.f, tgrid.taus, smesh.nodes)

    values = np.zeros((tgrid.N + 1, smesh.d + 1))
    values[0] = u0
    y = u0[1:-1].copy()
    for j in range(tgrid.N):
        dt = tgrid.deltas[j]
        rhs = op.M @ y - (1.0 - theta) * dt * (op.K @ y)
        rhs += dt * op.load(theta * f_nodal[j + 1] + (1.0 - theta) * f_nodal[j])
        y = op.stepper(theta * dt)(rhs)
        values[j + 1, 1:-1] = y
    return SpaceTimeField(tgrid, smesh, values)


def solve_adjoint_classic(
    problem: "ProblemSpec",
    y: SpaceTimeField,
    cfg: ThetaSchemeConfig,
    *,
    quad_order: int = 3,
) -> SpaceTimeField:
    """March the adjoint equation backward from p(T) = 0.

    The source is the misfit y - y_d; see the module docstring for how it
    is weighted across each step.
    """
    if y.tgrid is not cfg.tgrid and not np.array_equal(y.tgrid.taus, cfg.tgrid.taus):
        raise ValueError("trajectory and scheme config live on different grids")
    smesh = y.smesh
    op = _InteriorOperator(problem, smesh, quad_order)
    tgrid = cfg.tgrid
    theta = cfg.theta
    misfit = y.values - fem1d.sample(problem.y_d, tgrid.taus, smesh.nodes)

    values = np.zeros((tgrid.N + 1, smesh.d + 1))
    p = np.zeros(smesh.d - 1)
    for j in range(tgrid.N - 1, -1, -1):
        dt = tgrid.deltas[j]
        rhs = op.M @ p - (1.0 - theta) * dt * (op.K @ p)
        rhs += dt * op.load(theta * misfit[j + 1] + (1.0 - theta) * misfit[j])
        p = op.stepper(theta * dt)(rhs)
        values[j, 1:-1] = p
    return SpaceTimeField(tgrid, smesh, values)


def trapezoid_time_weights(tgrid: TimeGrid) -> np.ndarray:
    """Trapezoid quadrature weights over the time nodes."""
    w = np.zeros(tgrid.N + 1)
    w[:-1] += 0.5 * tgrid.deltas
    w[1:] += 0.5 * tgrid.deltas
    return w


def _zero_data(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def kkt_oracle(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    *,
    quad_order: int = 3,
) -> np.ndarray:
    """Brute-force discrete minimizer of the assimilation objective.

    Builds the control-to-trajectory map column by column with trapezoid
    time stepping, then solves the dense normal equations

        (S' W S + alpha M) u = S' W (y_d - c) + alpha M y_b

    where W is trapezoid-in-time tensor spatial mass and c the trajectory
    from a zero initial state.  Intended as a test oracle only; grids above
    the size cap are refused.
    """
    n_free = (tgrid.N + 1) * (smesh.d - 1)
    if n_free > ORACLE_SIZE_CAP:
        raise ValueError(
            f"oracle grid too large: {n_free} trajectory dofs exceed the "
            f"cap of {ORACLE_SIZE_CAP}"
        )

    cfg = ThetaSchemeConfig(theta=0.5, tgrid=tgrid)
    homogeneous = replace(problem, f=_zero_data)

    n_x = smesh.d + 1
    n_traj = (tgrid.N + 1) * n_x
    basis = np.zeros(n_x)
    S = np.empty((n_traj, smesh.d - 1))
    for k in range(1, smesh.d):
        basis[:] = 0.0
        basis[k] = 1.0
        S[:, k - 1] = solve_state(
            homogeneous, basis, cfg, smesh, quad_order=quad_order
        ).values.ravel()
    offset = solve_state(
        problem, np.zeros(n_x), cfg, smesh, quad_order=quad_order
    ).values.ravel()

    mats = fem1d.assemble_spatial_matrices(
        smesh, problem.a, problem.a0, quad_order=quad_order
    )
    M = mats.M
    w_t = trapezoid_time_weights(tgrid)

    def apply_weight(flat: np.ndarray) -> np.ndarray:
        slices = flat.reshape(tgrid.N + 1, n_x)
        return (w_t[:, None] * (slices @ M.T)).ravel()

    y_d_flat = fem1d.sample(problem.y_d, tgrid.taus, smesh.nodes).ravel()
    y_b_nodal = fem1d._coefficient_at(problem.y_b, smesh.nodes)

    WS = np.column_stack([apply_weight(S[:, k]) for k in range(S.shape[1])])
    M_dense = M.toarray()
    G = S.T @ WS + problem.alpha * M_dense[1:-1, 1:-1]
    rhs = S.T @ apply_weight(y_d_flat - offset)
    rhs += problem.alpha * (M_dense @ y_b_nodal)[1:-1]

    u = np.zeros(n_x)
    u[1:-1] = np.linalg.solve(G, rhs)
    return u


def optimality_residual(
    problem: "ProblemSpec",
    u,
    cfg: ThetaSchemeConfig,
    smesh: SpatialMesh,
    *,
    quad_order: int = 3,
) -> float:
    """Mass-norm gap between u and the control its own adjoint implies.

    Replays the state from u, solves the classic adjoint, and measures
    || u - (y_b - p(0)/alpha) || in the spatial L2 norm.  Zero for an
    exact discrete minimizer of the matching scheme.
    """
    u = np.asarray(u, dtype=float)
    y = solve_state(problem, u, cfg, smesh, quad_order=quad_order)
    p = solve_adjoint_classic(problem, y, cfg, quad_order=quad_order)
    y_b_nodal = fem1d._coefficient_at(problem.y_b, smesh.nodes)
    gap = u - (y_b_nodal - p.values[0] / problem.alpha)
    gap[0] = 0.0
    gap[-1] = 0.0
    mats = fem1d.assemble_spatial_matrices(
        smesh, problem.a, problem.a0, quad_order=quad_order
    )
    return float(np.sqrt(gap @ (mats.M @ gap)))
