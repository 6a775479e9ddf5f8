"""Test-side references for forward.py, built without its eigenbasis.

sparse_lu_march steps Crank-Nicolson in nodal form with scipy's sparse LU,
and dense_kkt_oracle builds the control-to-trajectory map column by column
from it and solves the dense normal equations.  They cost N d^3 time and
d^2 memory, so tests keep them to small grids.
"""

import numpy as np
import scipy.sparse.linalg as spla
from conftest import nodal

from varda import forward


def sparse_lu_march(space, tgrid, source, start):
    """Interior values of Crank-Nicolson stepped by sparse LU in nodal form.

    The solver the modal march replaced, kept as its reference: every step
    solves (M_I + dt/2 K_I) y = (M_I - dt/2 K_I) y_prev + dt (load_prev + load)/2
    with one factorization per distinct step coefficient.  start holds the
    interior values at t = 0, or one column of them per march.
    """
    M, K = space.m_inner.tocsc(), space.k_inner.tocsc()
    load = (space.M @ source.T).T[:, 1:-1]
    load = load.reshape(load.shape + (1,) * (np.ndim(start) - 1))
    solvers = {}
    values = np.zeros((tgrid.N + 1,) + np.shape(start))
    y = values[0] = start
    for j in range(tgrid.N):
        dt = tgrid.deltas[j]
        coef = 0.5 * dt
        if coef not in solvers:
            solvers[coef] = spla.factorized(M + coef * K)
        rhs = M @ y - coef * (K @ y)
        rhs += dt * (0.5 * load[j + 1] + 0.5 * load[j])
        y = solvers[coef](rhs)
        values[j + 1] = y
    return values


def dense_kkt_oracle(problem, space, tgrid):
    """Brute-force discrete minimizer of the assimilation objective.

    Builds S[t] (interior state at time node t from each interior hat as
    initial state) with one source-free march of the identity, then solves

        (sum_t w_t S[t]' M_I S[t] + alpha M_I) u_I = sum_t w_t S[t]' b_t + alpha (M y_b)_I

    with w the trapezoid time weights and b_t the interior rows of
    M (y_d - c)(t), c the march from a zero initial state.
    """
    nodes, n = space.smesh.nodes, space.smesh.d - 1
    S = sparse_lu_march(space, tgrid, np.zeros((tgrid.N + 1, nodes.size)), np.eye(n))
    offset = np.zeros((tgrid.N + 1, nodes.size))
    offset[:, 1:-1] = sparse_lu_march(space, tgrid, nodal(problem.f, tgrid.taus, nodes), np.zeros(n))
    b = (space.M @ (nodal(problem.y_d, tgrid.taus, nodes) - offset).T).T[:, 1:-1]
    w = forward.trapezoid_time_weights(tgrid)
    m_inner = space.m_inner.toarray()
    y_b = np.broadcast_to(np.asarray(problem.y_b(nodes), dtype=float), nodes.shape)

    G = np.einsum("t,tik,til->kl", w, S, m_inner @ S, optimize=True) + problem.alpha * m_inner
    rhs = np.einsum("t,tik,ti->k", w, S, b, optimize=True) + problem.alpha * (space.M @ y_b)[1:-1]
    u = np.zeros(nodes.size)
    u[1:-1] = np.linalg.solve(G, rhs)
    return u
