from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import nodal, variable_coefficient_problem

from varda import adaptivity, assimilation, elliptic, fem1d, forward, mesh, problems


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
    mt, kt = (
        sp.diags_array([off, diag, off], offsets=(-1, 0, 1), format="csr")
        for diag, off in fem1d.assemble_line_matrices(tgrid.taus)
    )
    e00 = sp.coo_array(([1.0], ([0], [0])), shape=(N + 1, N + 1))
    a_pp = (sp.kron(kt, mats.M) + sp.kron(e00, k_hat + mats.M / spec.alpha)).tocsr()
    coupling = sp.kron(mt, k_hat).tocsr()
    a_qq = sp.kron(mt, mats.M).tocsr()
    A = sp.block_array([
        [a_pp[p_free][:, p_free], coupling[p_free][:, q_free]],
        [-coupling[q_free][:, p_free], a_qq[q_free][:, q_free]],
    ]).tocsr()

    load = elliptic._data_loads(spec, mats, [tgrid])[0].ravel()
    b_p = load[p_free] - coupling[p_free][:, q_fixed] @ q_fixed_values
    b_q = -(a_qq[q_free][:, q_fixed] @ q_fixed_values)
    return A, np.concatenate([b_p, b_q]), (p_free, q_free, q_fixed, q_fixed_values)


@pytest.mark.parametrize("alpha", [1e-2, 1e4])
def test_assembly_matches_the_flat_index_construction(alpha, solver_grids):
    specs = (problems.example2(), variable_coefficient_problem(), _nonzero_trace_problem())
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
            batch = elliptic._Batch([system])
            (Ax,) = batch.vector(batch.apply(batch.lanes([x])))
            assert np.linalg.norm(Ax - A @ x) <= 1e-14 * np.linalg.norm(A @ x)


def test_dofmap_slices_match_the_flat_node_ids(solver_grids):
    spec = _nonzero_trace_problem()
    rng = np.random.default_rng(3)
    for smesh, tgrid in solver_grids:
        dofmap = elliptic.assemble(spec, smesh, tgrid).dofmap
        _, _, (p_free, q_free, q_fixed, q_fixed_values) = _flat_index_assembly(spec, smesh, tgrid)
        x = rng.standard_normal(dofmap.size)
        sol = elliptic.EllipticSolution(dofmap, x, 0.0)
        p, q = sol.p.values, sol.q.values
        assert np.array_equal(dofmap.gather(p, q), x)
        assert np.array_equal(p.ravel()[p_free], x[: dofmap.n_p])
        assert np.array_equal(q.ravel()[q_free], x[dofmap.n_p :])
        assert np.count_nonzero(p) == p_free.size
        assert np.array_equal(q[:, [0, -1]], dofmap.q_boundary)
        np.testing.assert_allclose(q.ravel()[q_fixed], q_fixed_values, rtol=1e-15)


@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 0.6, 1.0, 1e2, 1e4])
def test_tensor_solve_agrees_with_sparse_lu(alpha, solver_grids):
    for spec in (problems.example2(), variable_coefficient_problem()):
        for smesh, tgrid in solver_grids:
            system = elliptic.assemble(replace(spec, alpha=alpha), smesh, tgrid)
            sol = elliptic.solve_sparse(system)
            x = system.dofmap.gather(sol.p.values, sol.q.values)
            x_lu = _superlu_solution(system)
            assert np.linalg.norm(x - x_lu) <= 1e-10 * np.linalg.norm(x_lu)
            assert sol.solver_residual <= 1e-12


def test_assimilation_runs_without_splu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("splu, factorized or kron called")

    solved, solve_sparse = [], elliptic.solve_sparse
    calls = {"assemble_spatial_matrices": 0, "eigenbasis": 0}
    assemble_spatial_matrices, eigenbasis = fem1d.assemble_spatial_matrices, fem1d.eigenbasis

    def record(system):
        solved.append(system)
        return solve_sparse(system)

    def count_assembly(*args, **kwargs):
        calls["assemble_spatial_matrices"] += 1
        return assemble_spatial_matrices(*args, **kwargs)

    def count_eigenbasis(*args, **kwargs):
        calls["eigenbasis"] += 1
        return eigenbasis(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(spla, "factorized", refuse)
    monkeypatch.setattr(sp, "kron", refuse)
    monkeypatch.setattr(elliptic, "solve_sparse", record)
    monkeypatch.setattr(fem1d, "assemble_spatial_matrices", count_assembly)
    monkeypatch.setattr(fem1d, "eigenbasis", count_eigenbasis)
    spec = problems.example2()
    smesh, tgrid = mesh.build_spatial_mesh(0.0, 1.0, 20), mesh.build_uniform_time_grid(1.0, 20)
    result = assimilation.assimilate(spec, smesh, tgrid)
    assert np.all(np.isfinite(result.u))
    assert len(solved) == 1
    assert "A" not in vars(solved[0])
    # One spatial build and one eigenbasis serve the solve and the replay.
    assert calls == {"assemble_spatial_matrices": 1, "eigenbasis": 1}

    calls["assemble_spatial_matrices"] = 0
    # Given the run's space, the oracle builds nothing and reuses its eigenbasis.
    forward.kkt_oracle(spec, solved[0].space, tgrid)
    assert calls == {"assemble_spatial_matrices": 0, "eigenbasis": 1}


def test_assemble_refuses_a_space_built_for_something_else(ex1i, smesh40, tgrid40):
    def build(smesh=smesh40, a=ex1i.a, a0=ex1i.a0, quad_order=3):
        return fem1d.assemble_spatial_matrices(smesh, a, a0, quad_order=quad_order)

    def same_values(fun):
        return lambda x: fun(x)

    mismatched = [
        build(smesh=mesh.build_spatial_mesh(0.0, 1.0, 20)),
        build(smesh=mesh.build_spatial_mesh(0.0, 2.0, 40)),
        build(quad_order=2),
        build(a=same_values(ex1i.a)),
        build(a0=same_values(ex1i.a0)),
    ]
    for space in mismatched:
        with pytest.raises(ValueError, match="spatial operator was built"):
            elliptic.assemble(ex1i, smesh40, tgrid40, space=space)

    fresh = elliptic.assemble(ex1i, smesh40, tgrid40)
    shared = elliptic.assemble(ex1i, smesh40, tgrid40, space=build())
    assert np.array_equal(shared.b, fresh.b)
    for shared_band, fresh_band in zip(shared.mt + shared.kt, fresh.mt + fresh.kt):
        assert np.array_equal(shared_band, fresh_band)


def test_singular_mass_block_raises_a_solver_error(ex1i_system):
    space = ex1i_system.space
    singular = replace(ex1i_system, space=replace(space, m_band=tuple(0.0 * band for band in space.m_band)))
    with pytest.raises(elliptic.EllipticSolverError, match="factorization failed"):
        elliptic.solve_sparse(singular)
    flat_mt = tuple(0.0 * band for band in ex1i_system.mt)
    with pytest.raises(elliptic.EllipticSolverError, match="factorization failed"):
        elliptic.solve_sparse(replace(ex1i_system, mt=flat_mt))


def test_data_load_puts_each_interval_on_its_own_time_hats():
    # The data residual f = t is linear in t, so Gauss-3 integrates each
    # interval's t (1 - lam) and t lam exactly, and y_b = y_d = 0 leaves no
    # initial term: the load is the time-hat integrals of t times the
    # spatial hat integrals.
    spec = problems.ProblemSpec(
        a=lambda x: 0.1 + np.zeros_like(np.asarray(x, dtype=float)),
        a0=_zero_coefficient,
        alpha=1.0,
        T=1.0,
        domain=(0.0, 1.0),
        f=lambda t, x: t + np.zeros_like(np.asarray(x, dtype=float)),
        y_d=_zero,
        y_d_t=_zero,
        Ay_d=_zero,
        y_b=_zero_coefficient,
    )
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    tg = mesh.build_time_grid([0.0, 0.05, 0.3, 0.35, 0.8, 1.0])
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    t0, dt = tg.taus[:-1], tg.deltas
    time_hats = np.zeros(tg.N + 1)
    time_hats[:-1] += dt * (t0 / 2.0 + dt / 6.0)  # integral of t (1 - lam)
    time_hats[1:] += dt * (t0 / 2.0 + dt / 3.0)  # integral of t lam
    space_hats = np.full(sm.d + 1, sm.h)
    space_hats[[0, -1]] = sm.h / 2.0
    expected = np.outer(time_hats, space_hats)
    np.testing.assert_allclose(elliptic._data_loads(spec, space, [tg])[0], expected, rtol=1e-13, atol=0.0)


def _graded_towards_zero(bisections, intervals=20):
    tgrid = mesh.build_uniform_time_grid(1.0, intervals)
    for _ in range(bisections):
        tgrid = mesh.bisect_intervals(tgrid, [0])
    return tgrid


def _solved_once(system):
    """The free values and relative residual of one direct solve, with no refinement."""
    batch = elliptic._Batch([system])
    b = batch.lanes([system.b])
    x = batch.factor()(b)
    (x_s,), (r_s,) = batch.vector(x), batch.vector(b - batch.apply(x))
    return x_s, float(np.linalg.norm(r_s) / np.linalg.norm(system.b))


def test_residual_contract_holds_after_refinement_on_a_graded_grid():
    # Min dt 8.3e-8 at d=40: one direct solve alone reaches 1.65e-10 (at one
    # and at two BLAS threads), so the 1e-10 contract needs the refinement
    # step, which brings it to 6.5e-11.
    spec, _ = problems.example3(eps=0.05)
    system = elliptic.assemble(spec, mesh.build_spatial_mesh(0.0, 1.0, 40), _graded_towards_zero(19, 23))
    assert _solved_once(system)[1] > 1e-10
    assert elliptic.solve_sparse(system).solver_residual <= 1e-10


def test_a_system_that_meets_the_contract_is_solved_once():
    # Refinement runs only on a miss, so a passing system keeps the bits of
    # its one solve.
    spec, _ = problems.example3(eps=0.05)
    system = elliptic.assemble(spec, mesh.build_spatial_mesh(0.0, 1.0, 40), mesh.build_uniform_time_grid(1.0, 40))
    x_s, residual = _solved_once(system)
    assert residual <= 1e-10
    sol = elliptic.solve_sparse(system)
    assert sol.x.tobytes() == x_s.tobytes()
    assert sol.solver_residual == residual


def test_a_batch_refines_only_the_system_that_misses():
    # The refining grid between two that pass: each keeps the bits of its
    # lone solve, so only the miss was refined, and it meets the contract.
    spec, _ = problems.example3(eps=0.05)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    grids = [mesh.build_uniform_time_grid(1.0, 20), _graded_towards_zero(19, 23), _graded_towards_zero(6)]
    systems = elliptic.assemble_batch(spec, space, grids)
    assert [_solved_once(system)[1] <= 1e-10 for system in systems] == [True, False, True]
    for system, batched in zip(systems, elliptic.solve_batch(systems)):
        alone = elliptic.solve_sparse(system)
        assert batched.p.values.tobytes() == alone.p.values.tobytes()
        assert batched.q.values.tobytes() == alone.q.values.tobytes()
        assert batched.solver_residual == alone.solver_residual <= 1e-10


def test_residual_contract_fails_loudly_below_its_known_limit():
    # Min dt 4.8e-8: about 1.1e-9 even after refinement, which must raise
    # rather than pass under a looser contract.
    spec, _ = problems.example3(eps=0.05)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 120)
    system = elliptic.assemble(spec, sm, _graded_towards_zero(20))
    with pytest.raises(elliptic.EllipticSolverError, match="contract is 1e-10"):
        elliptic.solve_sparse(system)


@pytest.mark.parametrize("d", [2, 3, 40])
@pytest.mark.parametrize("problem", [problems.example2(), variable_coefficient_problem()], ids=["example2", "variable"])
def test_batched_solutions_equal_single_solves_bitwise(problem, d):
    sm = mesh.build_spatial_mesh(0.0, 1.0, d)
    space = fem1d.assemble_spatial_matrices(sm, problem.a, problem.a0)
    grids = [
        mesh.build_uniform_time_grid(1.0, 1),
        _graded_towards_zero(6),
        mesh.build_uniform_time_grid(1.0, 7),
        mesh.build_time_grid([0.0, 0.05, 0.3, 0.35, 0.8, 1.0]),
        mesh.build_uniform_time_grid(1.0, 1),
    ]
    systems = elliptic.assemble_batch(problem, space, grids)
    for system, batched in zip(systems, elliptic.solve_batch(systems)):
        single = elliptic.assemble(problem, sm, system.dofmap.tgrid, space=space)
        alone = elliptic.solve_sparse(single)
        assert system.b.tobytes() == single.b.tobytes()
        assert batched.p.values.tobytes() == alone.p.values.tobytes()
        assert batched.q.values.tobytes() == alone.q.values.tobytes()
        assert batched.solver_residual == alone.solver_residual


@pytest.mark.parametrize("d", [2, 3, 40])
@pytest.mark.parametrize("problem", [problems.example2(), _nonzero_trace_problem()], ids=["example2", "nonzero-trace"])
def test_p0_reads_the_first_time_row_of_p(problem, d):
    # p0 reads p(0) off the solved vector without building p.  The trace
    # problem's q rows hold nonzero ends, and every grid's next p row differs.
    sm = mesh.build_spatial_mesh(0.0, 1.0, d)
    space = fem1d.assemble_spatial_matrices(sm, problem.a, problem.a0)
    grids = [mesh.build_uniform_time_grid(1.0, 1), _graded_towards_zero(6), mesh.build_uniform_time_grid(1.0, 7)]
    systems = elliptic.assemble_batch(problem, space, grids)
    for sol in elliptic.solve_batch(systems) + [elliptic.solve_sparse(system) for system in systems]:
        assert sol.p0.tobytes() == sol.p.values[0].tobytes()
        assert np.any(sol.p0) and not np.array_equal(sol.p0, sol.p.values[1])


def _per_grid_system(problem, space, tgrid):
    """mt, kt and b of one grid the way a loop over grids builds them: 1-D bands, dense boundary columns."""
    N, d = tgrid.N, space.smesh.d
    mt, kt = fem1d.assemble_line_matrices(tgrid.taus)
    mq = fem1d.tridiag_dot(*mt, -nodal(problem.y_d, tgrid.taus, space.smesh.nodes[[0, d]]))
    m_b, k_b = (mat[1:-1][:, [0, d]].toarray() for mat in (space.M, space.K))
    load = elliptic._data_loads(problem, space, [tgrid])[0]
    return mt, kt, np.concatenate([load[:N, 1:-1] - mq[:N] @ k_b.T, -mq @ m_b.T]).ravel()


@pytest.mark.parametrize("d", [2, 40])
@pytest.mark.parametrize(
    "problem",
    [problems.example2(), problems.example3(eps=0.05)[0], _nonzero_trace_problem()],
    ids=["example2", "example3", "nonzero-trace"],
)
def test_a_batch_lays_each_grid_out_as_it_is_alone(problem, d):
    # The grids pad to the 160-interval one: N = 1, a graded grid, two grids
    # that share [0, 0.25] and [0.25, 0.5], and a uniform N = 160.  example3's
    # trace is a signed zero at x = 0, so the bitwise checks cover the signs
    # of zeros too.
    sm = mesh.build_spatial_mesh(0.0, 1.0, d)
    space = fem1d.assemble_spatial_matrices(sm, problem.a, problem.a0)
    grids = [
        mesh.build_uniform_time_grid(1.0, 1),
        _graded_towards_zero(6),
        mesh.build_uniform_time_grid(1.0, 4),
        mesh.build_time_grid([0.0, 0.25, 0.5, 1.0]),
        mesh.build_uniform_time_grid(1.0, 160),
    ]
    for system, tgrid in zip(elliptic.assemble_batch(problem, space, grids), grids):
        alone = elliptic.assemble(problem, sm, tgrid, space=space)
        assert system.dofmap.tgrid is tgrid and system.b.shape == alone.b.shape
        assert system.b.tobytes() == alone.b.tobytes()
        for got, want in zip(system.mt + system.kt, alone.mt + alone.kt):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert system.dofmap.q_boundary.tobytes() == alone.dofmap.q_boundary.tobytes()
        # With d > 2 each interior row of a boundary column holds one entry, so
        # the dense product only adds exact zeros.  At d = 2 the one interior
        # node takes both ends, whose products BLAS may sum with one rounding.
        if d > 2:
            mt, kt, b = _per_grid_system(problem, space, tgrid)
            for got, want in zip(system.mt + system.kt + (system.b,), mt + kt + (b,)):
                assert np.array_equal(got, want)


def test_a_batch_samples_each_distinct_interval_once():
    # The grids share [0, 0.25] and [0.25, 0.5], and [0.5, 1] starts where
    # [0.5, 0.75] does: five distinct intervals, sampled in one call at 3
    # Gauss nodes in time and 3 per cell in space.  The dict also keeps the
    # initial term.
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    points = []

    def counted(t, x):
        points.append(np.broadcast(t, x).size)
        return spec.f(t, x)

    counted_spec = replace(spec, f=counted)
    points.clear()  # drop the spot check that construction ran
    grids = [mesh.build_uniform_time_grid(1.0, 4), mesh.build_time_grid([0.0, 0.25, 0.5, 1.0])]
    rows = {}
    systems = elliptic.assemble_batch(counted_spec, space, grids, rows)
    assert points == [5 * 3 * sm.d * 3] and len(rows) == 5 + 1 and "initial" in rows
    # A second batch with the same dict finds every interval there.
    points.clear()
    again = elliptic.assemble_batch(counted_spec, space, grids, rows)
    assert points == []
    for system, second in zip(systems, again):
        alone = elliptic.assemble(spec, sm, system.dofmap.tgrid, space=space)
        assert system.b.tobytes() == second.b.tobytes() == alone.b.tobytes()


def test_a_solve_leaves_its_systems_load_unchanged():
    # The solve puts b on its lanes and writes nothing into the system's own b.
    sm, tg = mesh.build_spatial_mesh(0.0, 1.0, 20), mesh.build_uniform_time_grid(1.0, 10)
    system = elliptic.assemble(problems.example2(), sm, tg)
    b = system.b.copy()
    first = elliptic.solve_sparse(system)
    assert system.b.tobytes() == b.tobytes()
    again = elliptic.solve_sparse(system)
    assert again.p.values.tobytes() == first.p.values.tobytes()
    assert again.solver_residual == first.solver_residual


def test_a_batch_checks_the_residual_contract_per_system():
    # The known-limit grid (1.1e-9 alone) between two easy systems whose loads
    # are 10 and 14 times larger: one residual norm over the whole batch
    # would read 6.5e-11 and pass.
    spec, _ = problems.example3(eps=0.05)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 120)
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    grids = [mesh.build_uniform_time_grid(1.0, 40), _graded_towards_zero(20), mesh.build_uniform_time_grid(1.0, 80)]
    with pytest.raises(elliptic.EllipticSolverError, match="contract is 1e-10"):
        elliptic.solve_batch(elliptic.assemble_batch(spec, space, grids))


def test_a_zero_load_member_of_a_batch_keeps_the_absolute_contract():
    spec = problems.example2()
    zero = replace(spec, f=_zero, y_d=_zero, y_d_t=_zero, Ay_d=_zero, y_b=_zero_coefficient)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 12)
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    easy = elliptic.assemble_batch(spec, space, [mesh.build_uniform_time_grid(1.0, n) for n in (4, 9)])
    (empty,) = elliptic.assemble_batch(zero, space, [_graded_towards_zero(3)])
    assert not np.any(empty.b)
    sols = elliptic.solve_batch([easy[0], empty, easy[1]])
    assert sols[1].solver_residual == 0.0
    assert not np.any(sols[1].p.values) and not np.any(sols[1].q.values)
    assert all(0.0 < sol.solver_residual <= 1e-10 for sol in sols[::2])


def test_a_batch_refuses_systems_on_another_space_or_alpha(ex1i, smesh40, tgrid40, ex1i_system):
    own_space = elliptic.assemble(ex1i, smesh40, tgrid40)
    with pytest.raises(ValueError, match="one space"):
        elliptic.solve_batch([ex1i_system, own_space])
    with pytest.raises(ValueError, match="one alpha"):
        elliptic.solve_batch([ex1i_system, replace(ex1i_system, alpha=2.0 * ex1i_system.alpha)])


def test_assembly_and_solve_use_no_scipy_sparse(monkeypatch, ex1i, smesh40, tgrid40):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse called on the solve path")

    for name in ("coo_array", "csr_array", "diags_array", "block_array", "block_diag", "kron"):
        monkeypatch.setattr(sp, name, refuse)
    system = elliptic.assemble(ex1i, smesh40, tgrid40)
    sol = elliptic.solve_sparse(system)
    assert sol.solver_residual <= 1e-10
    arrays = [system.b, *system.mt, *system.kt, system.dofmap.q_boundary]
    assert all(type(array) is np.ndarray for array in arrays)
    assert "A" not in vars(system)
