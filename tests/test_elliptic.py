from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import nodal

from varda import adaptivity, assimilation, elliptic, fem1d, mesh, problems


def _zero(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_coefficient(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_free_dof_counts(ex1i_system):
    dofmap = ex1i_system.dofmap
    # p is pinned at the final time plane, q only at the spatial boundary.
    assert dofmap.n_p == 40 * 39
    assert dofmap.n_q == 41 * 39
    assert ex1i_system.A.shape == (3159, 3159)
    assert ex1i_system.b.shape == (3159,)


def test_coupling_blocks_are_skew(ex1i_system):
    n_p = ex1i_system.dofmap.n_p
    sym = (ex1i_system.A + ex1i_system.A.T).tocsr()
    off_diag = sym[:n_p, n_p:]
    worst = 0.0 if off_diag.nnz == 0 else float(np.abs(off_diag.data).max())
    assert worst <= 1e-11


def test_quadratic_form_is_coercive(ex1i_system):
    A = ex1i_system.A
    n_p = ex1i_system.dofmap.n_p
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.standard_normal(A.shape[0])
        energy = float(x @ (A @ x))
        assert energy > 0.0
        # The skew coupling cancels in the quadratic form, so the energy is
        # carried by the two diagonal blocks alone.
        xp, xq = x[:n_p], x[n_p:]
        block = float(xp @ (A[:n_p, :n_p] @ xp)) + float(xq @ (A[n_p:, n_p:] @ xq))
        assert energy == pytest.approx(block, rel=1e-10)


def test_zero_data_gives_zero_solution():
    spec = problems.ProblemSpec(
        a=lambda x: 0.01 + np.zeros_like(np.asarray(x, dtype=float)),
        a0=_zero_coefficient,
        alpha=1.0,
        T=1.0,
        domain=(0.0, 1.0),
        f=_zero,
        y_d=_zero,
        y_d_t=_zero,
        Ay_d=_zero,
        y_b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    tg = mesh.build_uniform_time_grid(1.0, 6)
    system = elliptic.assemble(spec, sm, tg)
    assert not np.any(system.b)
    sol = elliptic.solve_sparse(system)
    assert np.abs(sol.p.values).max() <= 1e-14
    assert np.abs(sol.q.values).max() <= 1e-14


def test_consistent_data_has_vanishing_adjoint():
    spec = problems.consistent_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 20)
    tg = mesh.build_uniform_time_grid(1.0, 20)
    # The load cancels exactly, node by node, so the adjoint pair is zero
    # to rounding rather than merely small.
    sol = elliptic.solve_sparse(elliptic.assemble(spec, sm, tg))
    assert np.abs(sol.p.values).max() <= 1e-12
    assert np.abs(sol.q.values).max() <= 1e-12


def test_manufactured_adjoint_error_decreases_with_refinement():
    spec, exact_p = problems.example3()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    exact0 = exact_p(0.0, sm.nodes)
    errors = []
    for n in (5, 10, 20, 40):
        tg = mesh.build_uniform_time_grid(1.0, n)
        sol = elliptic.solve_sparse(elliptic.assemble(spec, sm, tg))
        errors.append(assimilation.mse_initial(sol.p.values[0], exact0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 5e-8


def test_solver_residual_contract(ex1i_system, ex1i_solution):
    assert ex1i_solution.solver_residual <= 1e-10
    A, b = ex1i_system.A, ex1i_system.b
    x = ex1i_system.dofmap.gather(ex1i_solution.p.values, ex1i_solution.q.values)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


_TRACE_RATE = np.pi * np.pi * 0.01


def _nonzero_trace_problem():
    # y_d = cos(pi x) exp(-rate t) is -1 and 1 times exp(-rate t) on the ends.
    def y_d(t, x):
        return np.cos(np.pi * np.asarray(x, dtype=float)) * np.exp(-_TRACE_RATE * t)

    return problems.ProblemSpec(
        a=lambda x: 0.01 + np.zeros_like(np.asarray(x, dtype=float)),
        a0=_zero_coefficient,
        alpha=0.5,
        T=1.0,
        domain=(0.0, 1.0),
        f=_zero,
        y_d=y_d,
        y_d_t=lambda t, x: -_TRACE_RATE * y_d(t, x),
        Ay_d=lambda t, x: _TRACE_RATE * y_d(t, x),
        y_b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_q_boundary_carries_the_data_trace():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tg = mesh.build_uniform_time_grid(1.0, 7)
    sol = elliptic.solve_sparse(elliptic.assemble(_nonzero_trace_problem(), sm, tg))
    decay = np.exp(-_TRACE_RATE * tg.taus)
    np.testing.assert_allclose(sol.q.values[:, 0], -decay, atol=1e-14)
    np.testing.assert_allclose(sol.q.values[:, -1], decay, atol=1e-14)


def test_final_time_plane_of_p_is_pinned(ex1i_solution):
    assert not np.any(ex1i_solution.p.values[-1])


def test_assemble_rejects_degenerate_grids(ex1i):
    with pytest.raises(ValueError):
        elliptic.assemble(ex1i, mesh.build_spatial_mesh(0.0, 1.0, 1),
                          mesh.build_uniform_time_grid(1.0, 4))


def test_non_finite_data_fail_loudly(ex1i, ex1i_system):
    # NaN only inside (0.1, 0.2), away from the points checked at construction.
    def f(t, x):
        return np.where((0.1 < t) & (t < 0.2), np.nan, 0.0) * np.asarray(x, dtype=float)

    spec = replace(ex1i, f=f)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="non-finite"):
        elliptic.assemble(spec, sm, mesh.build_uniform_time_grid(1.0, 5))
    nan_load = replace(ex1i_system, b=np.full_like(ex1i_system.b, np.nan))
    with pytest.raises(elliptic.EllipticSolverError):
        elliptic.solve_sparse(nan_load)


def _superlu_solution(system):
    # The sparse-LU solve with one refinement step, kept as the oracle.
    A, b = system.A, system.b
    lu = spla.splu(A.tocsc())
    x = lu.solve(b)
    x += lu.solve(b - A @ x)
    return x


def _variable_coefficient_problem():
    # y_d = 0 keeps y_d_t and Ay_d consistent for any a, a0.
    return replace(
        problems.example1("i"),
        a=lambda x: 0.05 + 0.1 * np.asarray(x, dtype=float) ** 2,
        a0=lambda x: 2.0 + np.sin(3.0 * np.asarray(x, dtype=float)),
        y_d=_zero,
        y_d_t=_zero,
        Ay_d=_zero,
    )


@pytest.fixture(scope="module")
def solver_grids():
    smesh = mesh.build_spatial_mesh(0.0, 1.0, 40)
    spec, _ = problems.example3(eps=0.5)
    adapted, _ = adaptivity.adapt_loop(
        spec, smesh, adaptivity.AdaptConfig(strategy="MAX", n_initial=5, n_max=30)
    )
    return [
        (smesh, mesh.build_uniform_time_grid(1.0, 40)),
        (mesh.build_spatial_mesh(0.0, 1.0, 12), mesh.build_uniform_time_grid(1.0, 8)),
        (smesh, adapted),
    ]


def _flat_index_assembly(spec, smesh, tgrid, quad_order=3):
    """A and b built on the full node set and cut down by flat index arrays.

    Kronecker blocks over every (time, space) node, free rows and columns
    picked by flat node ids i * (d + 1) + j, and the known q boundary values
    lifted by slicing out their columns.  Returns A, b and the flat arrays.
    """
    N, d = tgrid.N, smesh.d
    inner, ends = np.arange(1, d), np.array([0, d])
    p_free = (np.arange(N)[:, None] * (d + 1) + inner).ravel()
    q_free = (np.arange(N + 1)[:, None] * (d + 1) + inner).ravel()
    q_fixed = (np.arange(N + 1)[:, None] * (d + 1) + ends).ravel()
    q_fixed_values = -nodal(spec.y_d, tgrid.taus, smesh.nodes[ends]).ravel()

    mats = fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0, quad_order=quad_order)
    k_hat = mats.K
    mt, kt = fem1d.assemble_line_matrices(tgrid.taus)
    e00 = sp.coo_array(([1.0], ([0], [0])), shape=(N + 1, N + 1))
    a_pp = (sp.kron(kt, mats.M) + sp.kron(e00, k_hat + mats.M / spec.alpha)).tocsr()
    coupling = sp.kron(mt, k_hat).tocsr()
    a_qq = sp.kron(mt, mats.M).tocsr()
    A = sp.block_array([
        [a_pp[p_free][:, p_free], coupling[p_free][:, q_free]],
        [-coupling[q_free][:, p_free], a_qq[q_free][:, q_free]],
    ]).tocsr()

    load = elliptic._data_load(spec, smesh, tgrid, quad_order).ravel()
    b_p = load[p_free] - coupling[p_free][:, q_fixed] @ q_fixed_values
    b_q = -(a_qq[q_free][:, q_fixed] @ q_fixed_values)
    return A, np.concatenate([b_p, b_q]), (p_free, q_free, q_fixed, q_fixed_values)


@pytest.mark.parametrize("alpha", [1e-2, 1e4])
def test_assembly_matches_the_flat_index_construction(alpha, solver_grids):
    specs = (problems.example2(), _variable_coefficient_problem(), _nonzero_trace_problem())
    rng = np.random.default_rng(11)
    for spec in specs:
        for smesh, tgrid in solver_grids:
            spec_a = replace(spec, alpha=alpha)
            system = elliptic.assemble(spec_a, smesh, tgrid)
            A, b, _ = _flat_index_assembly(spec_a, smesh, tgrid)
            assert system.A.nnz == A.nnz
            assert abs(system.A - A).max() <= 1e-15 * abs(A).max()
            assert np.linalg.norm(system.b - b) <= 1e-14 * np.linalg.norm(b)
            x = rng.standard_normal(b.size)
            assert np.linalg.norm(system.apply(x) - A @ x) <= 1e-14 * np.linalg.norm(A @ x)


def test_dofmap_slices_match_the_flat_node_ids(solver_grids):
    spec = _nonzero_trace_problem()
    rng = np.random.default_rng(3)
    for smesh, tgrid in solver_grids:
        dofmap = elliptic.assemble(spec, smesh, tgrid).dofmap
        _, _, (p_free, q_free, q_fixed, q_fixed_values) = _flat_index_assembly(spec, smesh, tgrid)
        x = rng.standard_normal(dofmap.size)
        p, q = dofmap.scatter(x)
        assert np.array_equal(dofmap.gather(p, q), x)
        assert np.array_equal(p.ravel()[p_free], x[: dofmap.n_p])
        assert np.array_equal(q.ravel()[q_free], x[dofmap.n_p :])
        assert np.count_nonzero(p) == p_free.size
        assert np.array_equal(q[:, [0, -1]], dofmap.q_boundary)
        np.testing.assert_allclose(q.ravel()[q_fixed], q_fixed_values, rtol=1e-15)


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 0.6, 1.0, 1e2, 1e4])
def test_tensor_solve_agrees_with_sparse_lu(alpha, solver_grids):
    for spec in (problems.example2(), _variable_coefficient_problem()):
        for smesh, tgrid in solver_grids:
            system = elliptic.assemble(replace(spec, alpha=alpha), smesh, tgrid)
            sol = elliptic.solve_sparse(system)
            x = system.dofmap.gather(sol.p.values, sol.q.values)
            x_lu = _superlu_solution(system)
            assert np.linalg.norm(x - x_lu) <= 1e-10 * np.linalg.norm(x_lu)
            assert sol.solver_residual <= 1e-12


def test_assimilation_runs_without_splu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("splu or kron called")

    solved, solve_sparse = [], elliptic.solve_sparse

    def record(system):
        solved.append(system)
        return solve_sparse(system)

    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(sp, "kron", refuse)
    monkeypatch.setattr(elliptic, "solve_sparse", record)
    spec = problems.example2()
    result = assimilation.assimilate(
        spec, mesh.build_spatial_mesh(0.0, 1.0, 20), mesh.build_uniform_time_grid(1.0, 20)
    )
    assert np.all(np.isfinite(result.u))
    assert len(solved) == 1
    assert "A" not in vars(solved[0])


def test_singular_mass_block_raises_a_solver_error(ex1i_system):
    singular = replace(ex1i_system, m_inner=0.0 * ex1i_system.m_inner)
    with pytest.raises(elliptic.EllipticSolverError, match="factorization failed"):
        elliptic.solve_sparse(singular)
    N, t_m = ex1i_system.dofmap.tgrid.N, ex1i_system.t_m
    flat_mt = sp.block_diag([t_m[:N, :N], 0.0 * t_m[N:, N:]], format="csr")
    with pytest.raises(elliptic.EllipticSolverError, match="factorization failed"):
        elliptic.solve_sparse(replace(ex1i_system, t_m=flat_mt))
