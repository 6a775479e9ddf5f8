from dataclasses import replace

import numpy as np
import pytest
from conftest import variable_coefficient_problem
from oracle import dense_kkt_oracle, sparse_lu_march

from varda import fem1d, forward, mesh, problems

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


@pytest.fixture(scope="module")
def unit_spaces(ex1i):
    """The space of a = 0.1, a0 = 0 on (0, 1) with d cells, built once per d.

    Every catalog problem at its default parameters has these coefficients.
    """
    cache = {}

    def space(d):
        if d not in cache:
            cache[d] = _space(ex1i, mesh.build_spatial_mesh(0.0, 1.0, d))
        return cache[d]

    return space


def _oracle_gap(spec, space, tg):
    """Relative gap of the closed-form oracle to the dense brute force."""
    u_ref = dense_kkt_oracle(spec, space, tg)
    return np.linalg.norm(forward.kkt_oracle(spec, space, tg) - u_ref) / np.linalg.norm(u_ref)


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("name", problems.CATALOG)
def test_closed_form_oracle_matches_the_dense_normal_equations(unit_spaces, name, n):
    spec, _ = problems.build(name)
    space = unit_spaces(n)
    nodes = space.smesh.nodes
    for coefficient in ("a", "a0"):
        assert np.array_equal(getattr(spec, coefficient)(nodes), getattr(space, coefficient)(nodes))
    assert _oracle_gap(spec, space, mesh.build_uniform_time_grid(1.0, n)) <= 1e-12


def test_closed_form_oracle_matches_on_a_graded_grid():
    # example3 at eps=0.05 on its first interval bisected 25 times: min dt 6e-9.
    spec, _ = problems.example3(eps=0.05)
    tg = mesh.build_uniform_time_grid(1.0, 5)
    for _ in range(25):
        tg = mesh.bisect_intervals(tg, {0})
    assert tg.N == 30 and tg.deltas.min() < 6e-9
    space = _space(spec, mesh.build_spatial_mesh(0.0, 1.0, 30))
    assert _oracle_gap(spec, space, tg) <= 1e-12


def _gap_to_sparse_lu(spec, sm, tg):
    """Relative gap of solve_state to the sparse-LU march."""
    space = _space(spec, sm)
    u0 = np.random.default_rng(5).standard_normal(sm.d + 1)
    u0[0] = u0[-1] = 0.0

    y = forward.solve_state(spec, u0, tg, space)
    f_nodal = fem1d.sample(spec.f, tg.taus, sm.nodes)
    y_ref = sparse_lu_march(space, tg, f_nodal, u0[1:-1])
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

