"""Time-stepping solver for the state equation, plus the discrete minimizer
in closed form.

These are deliberately conventional: the Crank-Nicolson scheme marching
the heat-type state equation forward, and the normal equations of its
least-squares objective.  They provide the assimilated trajectory and an
independent minimizer that the space-time solver can be tested against.

The march and the oracle take the run's fem1d.SpatialOperatorMatrices,
built once per run and shared by every solve, replay and oracle on its
mesh, and work in its eigenbasis K_I V = M_I V diag(lam), V^T M_I V = I.
With y = V z on the interior nodes and g the modal consistent mass load of
the source, a step over an interval dt is one division per mode:

    z(j+1) = ((1 - dt lam/2) z(j) + dt (g(j+1) + g(j))/2) / (1 + dt lam/2).

On variable coefficients, where fem1d.eigenbasis takes its Cholesky-eigh
reduction, each eigenvalue is exact only to about eps * max(lam), an error
the slow modes would compound step after step, so the march re-marches its
nodal residual once: one step of iterative refinement.  The closed-form
sine modes of a constant-coefficient space are exact to a few ulps, and
the step changes little there.

In that basis the source-free march is diagonal, and so are the oracle's
normal equations (Lynch, Rice & Thomas, Numer. Math. 6, 1964, applied to
the 4D-Var normal equations of Le Dimet & Talagrand, Tellus 38A, 1986).
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

    lam, V = space.modes
    mass, stiffness = space.inner_bands
    f_nodal = fem1d.sample(problem.f, tgrid.taus, smesh.nodes)
    load = fem1d.tridiag_dot(*space.m_band, f_nodal.T).T[:, 1:-1]
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

    y = march(push, u0[1:-1])
    y_mid = 0.5 * y[1:] + 0.5 * y[:-1]
    residual = push - fem1d.tridiag_dot(*mass, (y[1:] - y[:-1]).T).T
    residual -= dt * fem1d.tridiag_dot(*stiffness, y_mid.T).T
    y += march(residual, np.zeros(smesh.d - 1))

    values = np.zeros((tgrid.N + 1, smesh.d + 1))
    values[:, 1:-1] = y
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
    """Discrete minimizer of the assimilation objective, in closed form.

    It solves the normal equations (sum_t w_t S_t' M_I S_t + alpha M_I) u_I =
    sum_t w_t S_t' b_t + alpha (M y_b)_I, with w the trapezoid time weights,
    S_t the source-free march from u_I to time node t, and b_t the interior
    rows of M (y_d - c)(t), c the march from zero.  S_t = V diag(r_t) V' M_I,
    where r_t multiplies (1 - dt lam/2) / (1 + dt lam/2) over the steps up
    to node t and r_0 = 1, so

        u_I = V [(sum_t w_t r_t * V' b_t + alpha V' (M y_b)_I) / (sum_t w_t r_t^2 + alpha)].
    """
    smesh, alpha = space.smesh, problem.alpha
    lam, V = space.modes
    dt = tgrid.deltas[:, None]
    step = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
    r = np.cumprod(np.vstack([np.ones_like(lam), step]), axis=0)
    w = trapezoid_time_weights(tgrid)[:, None]

    offset = solve_state(problem, np.zeros(smesh.d + 1), tgrid, space).values
    misfit = fem1d.sample(problem.y_d, tgrid.taus, smesh.nodes) - offset
    b = fem1d.tridiag_dot(*space.m_band, misfit.T).T[:, 1:-1]
    m_yb = fem1d.tridiag_dot(*space.m_band, fem1d._coefficient_at(problem.y_b, smesh.nodes))[1:-1]

    u = np.zeros(smesh.d + 1)
    u[1:-1] = V @ (((w * r * (b @ V)).sum(0) + alpha * (m_yb @ V)) / ((w * r**2).sum(0) + alpha))
    return u
