"""Time-stepping solver for the state equation, plus a dense least-squares
oracle.

These are deliberately conventional: the Crank-Nicolson scheme marching
the heat-type state equation forward.  They provide the assimilated
trajectory and an independent brute-force minimizer on tiny grids that the
space-time solver can be tested against.

The march and the oracle take the run's fem1d.SpatialOperatorMatrices,
built once per run and shared by every solve, replay and oracle on its
mesh, and march in its eigenbasis K_I V = M_I V diag(lam), V^T M_I V = I.
With y = V z on the interior nodes and g the modal consistent mass load of
the source, a step over an interval dt is one division per mode:

    z(j+1) = ((1 - dt lam/2) z(j) + dt (g(j+1) + g(j))/2) / (1 + dt lam/2).

Each eigenvalue is exact only to about eps * max(lam), an error the slow
modes would compound step after step, so the march re-marches its nodal
residual once: one step of iterative refinement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import fem1d
from .mesh import SpaceTimeField, TimeGrid

if TYPE_CHECKING:
    from .assimilation import ProblemSpec

__all__ = [
    "solve_state",
    "kkt_oracle",
    "trapezoid_time_weights",
]

ORACLE_SIZE_CAP = 2000


def _modal_march(space: fem1d.SpatialOperatorMatrices, tgrid: TimeGrid, source, start) -> np.ndarray:
    """Interior values, one row per time node, of the Crank-Nicolson march.

    source holds the nodal source values, one row per time node; start holds
    the interior values at t = 0.
    """
    lam, V = space.modes
    mass, stiffness = space.inner_bands
    load = fem1d.tridiag_dot(*space.m_band, source.T).T[:, 1:-1]
    dt = tgrid.deltas[:, None]
    push = dt * (0.5 * load[1:] + 0.5 * load[:-1])
    keep, gain = 1.0 - 0.5 * dt * lam, 1.0 + 0.5 * dt * lam

    def march(push: np.ndarray, y0: np.ndarray) -> np.ndarray:
        z = [V.T @ fem1d.tridiag_dot(*mass, y0)]
        for keep_j, push_j, gain_j in zip(keep, push @ V, gain):
            z.append((keep_j * z[-1] + push_j) / gain_j)
        y = np.array(z) @ V.T
        y[0] = y0
        return y

    y = march(push, start)
    y_mid = 0.5 * y[1:] + 0.5 * y[:-1]
    residual = push - fem1d.tridiag_dot(*mass, (y[1:] - y[:-1]).T).T
    residual -= dt * fem1d.tridiag_dot(*stiffness, y_mid.T).T
    y += march(residual, np.zeros_like(start))
    return y


def solve_state(
    problem: "ProblemSpec",
    u0,
    tgrid: TimeGrid,
    space: fem1d.SpatialOperatorMatrices,
) -> SpaceTimeField:
    """March the state equation forward from the initial state u0 over tgrid.

    space is the spatial operator of problem on the mesh to march on; see
    the module docstring for the scheme.  Homogeneous Dirichlet values are
    pinned at the boundary nodes, so u0 must already vanish there.
    """
    smesh = space.smesh
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (smesh.d + 1,):
        raise ValueError(f"u0 has shape {u0.shape}, expected {(smesh.d + 1,)}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("u0 must be finite")
    if not np.all(np.abs(u0[[0, -1]]) <= 1e-12):
        raise ValueError("u0 must vanish at the boundary nodes")

    f_nodal = fem1d.sample(problem.f, tgrid.taus, smesh.nodes)
    values = np.zeros((tgrid.N + 1, smesh.d + 1))
    values[:, 1:-1] = _modal_march(space, tgrid, f_nodal, u0[1:-1])
    values[0] = u0
    return SpaceTimeField(tgrid, smesh, values)


def trapezoid_time_weights(tgrid: TimeGrid) -> np.ndarray:
    """Trapezoid quadrature weights over the time nodes."""
    w = np.zeros(tgrid.N + 1)
    w[:-1] += 0.5 * tgrid.deltas
    w[1:] += 0.5 * tgrid.deltas
    return w


def kkt_oracle(
    problem: "ProblemSpec",
    space: fem1d.SpatialOperatorMatrices,
    tgrid: TimeGrid,
) -> np.ndarray:
    """Brute-force discrete minimizer of the assimilation objective.

    Builds the control-to-trajectory map S with trapezoid time stepping,
    one source-free march per interior hat as initial state, then solves
    the dense normal equations

        (S' W S + alpha M) u = S' W (y_d - c) + alpha M y_b

    where W is trapezoid-in-time tensor spatial mass and c the trajectory
    from a zero initial state, all on the mesh of space.  Intended as a test
    oracle only; grids above the size cap are refused.
    """
    smesh = space.smesh
    n_free = (tgrid.N + 1) * (smesh.d - 1)
    if n_free > ORACLE_SIZE_CAP:
        raise ValueError(
            f"oracle grid too large: {n_free} trajectory dofs exceed the "
            f"cap of {ORACLE_SIZE_CAP}"
        )

    m_band, m_inner = space.m_band, fem1d.tridiag_dense(*space.inner_bands[0])
    n_x = smesh.d + 1

    # S[t, k] is the interior state at time node t from the k-th interior hat.
    no_source = np.zeros((tgrid.N + 1, n_x))
    S = np.stack([_modal_march(space, tgrid, no_source, e) for e in np.eye(smesh.d - 1)], 1)
    offset = solve_state(problem, np.zeros(n_x), tgrid, space).values
    misfit = fem1d.sample(problem.y_d, tgrid.taus, smesh.nodes) - offset
    w_t = trapezoid_time_weights(tgrid)

    G = np.einsum("t,tki,tli->kl", w_t, S, S @ m_inner) + problem.alpha * m_inner
    rhs = np.einsum("t,tki,ti->k", w_t, S, fem1d.tridiag_dot(*m_band, misfit.T).T[:, 1:-1])
    rhs += problem.alpha * fem1d.tridiag_dot(*m_band, fem1d._coefficient_at(problem.y_b, smesh.nodes))[1:-1]

    u = np.zeros(n_x)
    u[1:-1] = np.linalg.solve(G, rhs)
    return u

