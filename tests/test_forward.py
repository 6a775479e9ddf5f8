from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import variable_coefficient_problem

from varda import fem1d, forward, mesh

RATE = np.pi * np.pi * 0.1


def _space(spec, smesh):
    return fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0)


def test_state_solver_tracks_the_decaying_mode(ex1i, smesh40, tgrid40):
    u0 = np.sin(np.pi * smesh40.nodes)
    u0[0] = u0[-1] = 0.0
    y = forward.solve_state(ex1i, u0, tgrid40, _space(ex1i, smesh40))
    exact = np.sin(np.pi * smesh40.nodes)[None, :] * np.exp(-RATE * tgrid40.taus)[:, None]
    assert np.abs(y.values - exact).max() <= 5e-4


def test_state_solver_validates_the_initial_state(ex1i, smesh40, tgrid40):
    space = _space(ex1i, smesh40)
    with pytest.raises(ValueError):
        forward.solve_state(ex1i, np.ones(smesh40.d + 1), tgrid40, space)
    with pytest.raises(ValueError):
        forward.solve_state(ex1i, np.zeros(5), tgrid40, space)
    for node in (0, 7):
        u0 = np.zeros(smesh40.d + 1)
        u0[node] = np.nan
        with pytest.raises(ValueError):
            forward.solve_state(ex1i, u0, tgrid40, space)


def test_trapezoid_weights_partition_the_horizon():
    tg = mesh.build_time_grid([0.0, 0.1, 0.4, 0.45, 1.0])
    w = forward.trapezoid_time_weights(tg)
    assert w.sum() == pytest.approx(tg.T, abs=1e-15)
    np.testing.assert_allclose(w[0], 0.05, atol=1e-15)
    np.testing.assert_allclose(w[-1], 0.275, atol=1e-15)
    # Interior weight is the average of the adjacent interval lengths.
    np.testing.assert_allclose(w[1], 0.5 * (0.1 + 0.3), atol=1e-15)


def test_oracle_with_full_trust_returns_the_background(ex1i):
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tg = mesh.build_uniform_time_grid(1.0, 10)
    u = forward.kkt_oracle(replace(ex1i, alpha=1e8), _space(ex1i, sm), tg)
    assert np.abs(u - ex1i.y_b(sm.nodes)).max() <= 1e-6


def test_oracle_perturbation_raises_the_objective(ex1i):
    # Direct check of minimality: J grows in every probed direction.
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    tg = mesh.build_uniform_time_grid(1.0, 8)
    space = _space(ex1i, sm)
    u = forward.kkt_oracle(ex1i, space, tg)
    M = space.M
    w = forward.trapezoid_time_weights(tg)
    data = np.array([ex1i.y_d(t, sm.nodes) for t in tg.taus])
    y_b = ex1i.y_b(sm.nodes)

    def objective(u0):
        y = forward.solve_state(ex1i, u0, tg, space)
        g = y.values - data
        misfit = sum(w[j] * float(g[j] @ (M @ g[j])) for j in range(tg.N + 1))
        du = u0 - y_b
        return 0.5 * misfit + 0.5 * ex1i.alpha * float(du @ (M @ du))

    j_star = objective(u)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(sm.d + 1)
        v[0] = v[-1] = 0.0
        assert objective(u + 1e-3 * v) > j_star


def test_oracle_refuses_oversized_grids(ex1i):
    sm = mesh.build_spatial_mesh(0.0, 1.0, 100)
    tg = mesh.build_uniform_time_grid(1.0, 100)
    with pytest.raises(ValueError, match="cap"):
        forward.kkt_oracle(ex1i, _space(ex1i, sm), tg)


def _sparse_lu_march(space, tgrid, source, start):
    """Interior values of Crank-Nicolson stepped by sparse LU in nodal form.

    The solver the modal march replaced, kept as its reference: every step
    solves (M_I + dt/2 K_I) y = (M_I - dt/2 K_I) y_prev + dt (load_prev + load)/2
    with one factorization per distinct step coefficient.
    """
    M, K = space.m_inner.tocsc(), space.k_inner.tocsc()
    load = (space.M @ source.T).T[:, 1:-1]
    solvers = {}
    values = np.zeros((tgrid.N + 1, M.shape[0]))
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


def _gap_to_sparse_lu(spec, sm, tg):
    """Relative gap of solve_state to the sparse-LU march."""
    space = _space(spec, sm)
    u0 = np.random.default_rng(5).standard_normal(sm.d + 1)
    u0[0] = u0[-1] = 0.0

    y = forward.solve_state(spec, u0, tg, space)
    f_nodal = fem1d.sample(spec.f, tg.taus, sm.nodes)
    y_ref = _sparse_lu_march(space, tg, f_nodal, u0[1:-1])
    assert np.array_equal(y.values[0], u0) and not np.any(y.values[:, [0, -1]])
    return np.linalg.norm(y.values[:, 1:-1] - y_ref) / np.linalg.norm(y_ref)


def test_modal_march_matches_sparse_lu_stepping():
    spec = replace(
        variable_coefficient_problem(),
        f=lambda t, x: np.cos(3.0 * t) * np.sin(2.0 * np.pi * x) + x,
    )
    tg = mesh.build_uniform_time_grid(1.0, 8)
    tg = mesh.bisect_intervals(mesh.bisect_intervals(tg, {0, 3, 4}), {1, 2, 9})
    assert np.ptp(tg.deltas) > 0.0
    assert _gap_to_sparse_lu(spec, mesh.build_spatial_mesh(0.0, 1.0, 24), tg) <= 1e-12


def test_modal_march_refines_the_slow_modes(ex1i):
    # Each eigenvalue carries an absolute error near eps * max(lam); on the
    # slowly decaying modes of a random start an unrefined march compounds
    # it to 2.9e-14 here, while the refined march stays at 2.4e-15 of the
    # sparse-LU steps.
    tg = mesh.bisect_intervals(mesh.build_uniform_time_grid(1.0, 40), {0, 5, 6})
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    assert _gap_to_sparse_lu(ex1i, sm, tg) <= 1e-14

