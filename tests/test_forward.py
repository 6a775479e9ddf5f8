from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import variable_coefficient_problem

from varda import fem1d, forward, mesh, problems

RATE = np.pi * np.pi * 0.1


def _space(spec, smesh):
    return fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0)


def _zero_f(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _smooth_data_problem():
    """example1 coefficients with richer two-mode data for duality checks."""

    def y_d(t, x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * x) * (1.0 + t * t) + 0.3 * np.sin(2 * np.pi * x) * np.cos(3 * t)

    def y_d_t(t, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * t * np.sin(np.pi * x) - 0.9 * np.sin(2 * np.pi * x) * np.sin(3 * t)

    def ay_d(t, x):
        # -(nu y_d')' with nu = 0.1, so each sine mode k picks up k^2 RATE.
        x = np.asarray(x, dtype=float)
        return RATE * (np.sin(np.pi * x) * (1.0 + t * t) + 1.2 * np.sin(2 * np.pi * x) * np.cos(3 * t))

    return replace(problems.example1("i"), y_d=y_d, y_d_t=y_d_t, Ay_d=ay_d)


def _duality_defect(spec, tgrid, theta, rng):
    """Gap between the weighted misfit pairing and the adjoint gradient.

    The adjoint march is the transpose of the forward map exactly when the
    time weights match the scheme: left-shifted rectangle weights for
    theta = 1, trapezoid for theta = 0.5 up to a second-order defect.
    """
    sm = mesh.build_spatial_mesh(0.0, 1.0, 13)
    space = _space(spec, sm)
    M = space.M
    u0 = rng.standard_normal(sm.d + 1)
    v = rng.standard_normal(sm.d + 1)
    u0[0] = u0[-1] = v[0] = v[-1] = 0.0

    cfg = forward.ThetaSchemeConfig(theta=theta, tgrid=tgrid)
    y = forward.solve_state(spec, u0, cfg, space)
    p = forward.solve_adjoint_classic(spec, y, cfg, space)
    misfit = y.values - np.array([spec.y_d(t, sm.nodes) for t in tgrid.taus])
    if theta == 1.0:
        w = np.zeros(tgrid.N + 1)
        w[1:] = tgrid.deltas
    else:
        w = forward.trapezoid_time_weights(tgrid)
    direction = forward.solve_state(replace(spec, f=_zero_f), v, cfg, space)
    lhs = sum(
        w[j] * float(misfit[j] @ (M @ direction.values[j])) for j in range(tgrid.N + 1)
    )
    rhs = float(v @ (M @ p.values[0]))
    return abs(lhs - rhs) / abs(lhs)


def test_implicit_euler_adjoint_is_exact_transpose():
    rng = np.random.default_rng(7)
    taus = np.unique(np.round(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 9)]), 12))
    tg = mesh.build_time_grid(taus)
    defect = _duality_defect(_smooth_data_problem(), tg, 1.0, np.random.default_rng(7))
    assert defect <= 1e-12


def test_trapezoid_adjoint_defect_is_second_order():
    spec = _smooth_data_problem()
    defects = [
        _duality_defect(spec, mesh.build_uniform_time_grid(1.0, n), 0.5, np.random.default_rng(7))
        for n in (16, 32)
    ]
    assert defects[1] < 2e-3
    assert defects[0] / defects[1] > 3.0


def test_state_solver_tracks_the_decaying_mode(ex1i, smesh40, tgrid40):
    u0 = np.sin(np.pi * smesh40.nodes)
    u0[0] = u0[-1] = 0.0
    cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tgrid40)
    y = forward.solve_state(ex1i, u0, cfg, _space(ex1i, smesh40))
    exact = np.sin(np.pi * smesh40.nodes)[None, :] * np.exp(-RATE * tgrid40.taus)[:, None]
    assert np.abs(y.values - exact).max() <= 5e-4


def test_state_solver_validates_the_initial_state(ex1i, smesh40, tgrid40):
    cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tgrid40)
    space = _space(ex1i, smesh40)
    with pytest.raises(ValueError):
        forward.solve_state(ex1i, np.ones(smesh40.d + 1), cfg, space)
    with pytest.raises(ValueError):
        forward.solve_state(ex1i, np.zeros(5), cfg, space)
    for node in (0, 7):
        u0 = np.zeros(smesh40.d + 1)
        u0[node] = np.nan
        with pytest.raises(ValueError):
            forward.solve_state(ex1i, u0, cfg, space)
    with pytest.raises(ValueError):
        forward.ThetaSchemeConfig(theta=1.5, tgrid=tgrid40)


def test_adjoint_matches_closed_form_for_constant_misfit(ex1i, smesh40, tgrid40):
    # Misfit sin(pi x) excites one mode; its backward amplitude is
    # (1 - exp(-rate (T - t))) / rate.
    data = np.array([ex1i.y_d(t, smesh40.nodes) for t in tgrid40.taus])
    y = mesh.SpaceTimeField(tgrid40, smesh40, data + np.sin(np.pi * smesh40.nodes))
    cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tgrid40)
    p = forward.solve_adjoint_classic(ex1i, y, cfg, _space(ex1i, smesh40))
    amp = (1.0 - np.exp(-RATE * (1.0 - tgrid40.taus))) / RATE
    exact = np.sin(np.pi * smesh40.nodes)[None, :] * amp[:, None]
    assert np.abs(p.values - exact).max() <= 5e-4
    assert not np.any(p.values[-1])


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


def test_oracle_satisfies_its_own_optimality_system(ex1i):
    residuals = []
    for n in (10, 20):
        sm = mesh.build_spatial_mesh(0.0, 1.0, n)
        tg = mesh.build_uniform_time_grid(1.0, n)
        space = _space(ex1i, sm)
        u = forward.kkt_oracle(ex1i, space, tg)
        cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tg)
        residuals.append(forward.optimality_residual(ex1i, u, cfg, space))
    # The classic-adjoint gradient is a different discretization of the same
    # functional, so the gap is consistency error, not optimizer error.
    assert residuals[0] <= 3e-3
    assert residuals[1] < residuals[0]


def test_oracle_perturbation_raises_the_objective(ex1i):
    # Direct check of minimality: J grows in every probed direction.
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    tg = mesh.build_uniform_time_grid(1.0, 8)
    space = _space(ex1i, sm)
    u = forward.kkt_oracle(ex1i, space, tg)
    M = space.M
    w = forward.trapezoid_time_weights(tg)
    cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tg)
    data = np.array([ex1i.y_d(t, sm.nodes) for t in tg.taus])
    y_b = ex1i.y_b(sm.nodes)

    def objective(u0):
        y = forward.solve_state(ex1i, u0, cfg, space)
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


def _sparse_lu_march(space, cfg, source, start, backward):
    """Interior values of the theta scheme stepped by sparse LU in nodal form.

    The solver the modal march replaced, kept as its reference: every step
    solves (M_I + theta dt K_I) y = (M_I - (1-theta) dt K_I) y_prev + dt load
    with one factorization per distinct step coefficient.
    """
    M, K = space.m_inner.tocsc(), space.k_inner.tocsc()
    theta, tgrid = cfg.theta, cfg.tgrid
    load = (space.M @ source.T).T[:, 1:-1]
    solvers = {}
    values = np.zeros((tgrid.N + 1, M.shape[0]))
    steps = range(tgrid.N - 1, -1, -1) if backward else range(tgrid.N)
    y = start
    values[tgrid.N if backward else 0] = y
    for j in steps:
        dt = tgrid.deltas[j]
        coef = theta * dt
        if coef not in solvers:
            solvers[coef] = spla.factorized(M + coef * K)
        rhs = M @ y - (1.0 - theta) * dt * (K @ y)
        rhs += dt * (theta * load[j + 1] + (1.0 - theta) * load[j])
        y = solvers[coef](rhs)
        values[j if backward else j + 1] = y
    return values


def _gaps_to_sparse_lu(spec, sm, tg, theta):
    """Relative gaps of solve_state and solve_adjoint_classic to the sparse-LU march."""
    cfg = forward.ThetaSchemeConfig(theta=theta, tgrid=tg)
    space = _space(spec, sm)
    u0 = np.random.default_rng(5).standard_normal(sm.d + 1)
    u0[0] = u0[-1] = 0.0

    y = forward.solve_state(spec, u0, cfg, space)
    f_nodal = fem1d.sample(spec.f, tg.taus, sm.nodes)
    y_ref = _sparse_lu_march(space, cfg, f_nodal, u0[1:-1], backward=False)
    assert np.array_equal(y.values[0], u0) and not np.any(y.values[:, [0, -1]])

    p = forward.solve_adjoint_classic(spec, y, cfg, space)
    misfit = y.values - fem1d.sample(spec.y_d, tg.taus, sm.nodes)
    p_ref = _sparse_lu_march(space, cfg, misfit, np.zeros(sm.d - 1), backward=True)
    assert not np.any(p.values[-1]) and not np.any(p.values[:, [0, -1]])
    return [
        np.linalg.norm(field.values[:, 1:-1] - ref) / np.linalg.norm(ref)
        for field, ref in ((y, y_ref), (p, p_ref))
    ]


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_modal_march_matches_sparse_lu_stepping(theta):
    spec = replace(
        variable_coefficient_problem(),
        f=lambda t, x: np.cos(3.0 * t) * np.sin(2.0 * np.pi * x) + x,
    )
    tg = mesh.build_uniform_time_grid(1.0, 8)
    tg = mesh.bisect_intervals(mesh.bisect_intervals(tg, {0, 3, 4}), {1, 2, 9})
    assert np.ptp(tg.deltas) > 0.0
    gaps = _gaps_to_sparse_lu(spec, mesh.build_spatial_mesh(0.0, 1.0, 24), tg, theta)
    assert max(gaps) <= 1e-12


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_modal_march_refines_the_slow_modes(theta):
    # Each eigenvalue carries an absolute error near eps * max(lam); on slowly
    # decaying data an unrefined march compounds it to about 1.1e-13 here,
    # while the refined march stays near 4e-15 of the sparse-LU steps.
    tg = mesh.bisect_intervals(mesh.build_uniform_time_grid(1.0, 40), {0, 5, 6})
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    assert max(_gaps_to_sparse_lu(_smooth_data_problem(), sm, tg, theta)) <= 3e-14


def test_adjoint_refuses_a_trajectory_from_other_grids(ex1i, smesh40, tgrid40):
    cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=tgrid40)
    y = mesh.SpaceTimeField(tgrid40, smesh40, np.zeros((41, 41)))
    other_mesh = mesh.build_spatial_mesh(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="different grids"):
        forward.solve_adjoint_classic(ex1i, y, cfg, _space(ex1i, other_mesh))
    other_cfg = forward.ThetaSchemeConfig(theta=0.5, tgrid=mesh.build_uniform_time_grid(1.0, 20))
    with pytest.raises(ValueError, match="different grids"):
        forward.solve_adjoint_classic(ex1i, y, other_cfg, _space(ex1i, smesh40))
