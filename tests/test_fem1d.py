import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from conftest import nodal, variable_coefficient_problem
from varda import fem1d, mesh, problems


@pytest.mark.parametrize("order", [1, 2, 3])
def test_gauss_rule_exact_for_polynomials(order):
    points, weights = fem1d.gauss_rule(order)
    assert weights.sum() == pytest.approx(2.0, abs=1e-15)
    # Degree 2*order - 1 is the exactness limit of a Gauss rule.
    for degree in range(2 * order):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        assert weights @ points**degree == pytest.approx(exact, abs=1e-14)


def test_gauss_rule_rejects_unsupported_orders():
    for order in (0, 4, 10):
        with pytest.raises(ValueError):
            fem1d.gauss_rule(order)


@pytest.mark.parametrize("h", [1.0, 0.125, 1.0 / 3.0, 2.5e-3])
def test_element_matrices_match_closed_forms(h):
    em = fem1d.element_matrices(h)
    mass_exact = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    stiff_exact = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(em.mass - mass_exact).max() <= 1e-14
    assert np.abs(em.stiffness - stiff_exact).max() <= 1e-14


def test_line_matrices_agree_with_element_assembly():
    nodes = np.linspace(0.0, 1.0, 7)
    mass, stiffness = (fem1d.tridiag_dense(*bands) for bands in fem1d.assemble_line_matrices(nodes))
    n = nodes.size
    mass_ref = np.zeros((n, n))
    stiff_ref = np.zeros((n, n))
    for e in range(n - 1):
        em = fem1d.element_matrices(nodes[e + 1] - nodes[e])
        mass_ref[e : e + 2, e : e + 2] += em.mass
        stiff_ref[e : e + 2, e : e + 2] += em.stiffness
    np.testing.assert_allclose(mass, mass_ref, atol=1e-15)
    np.testing.assert_allclose(stiffness, stiff_ref, atol=1e-15)


def test_line_matrices_on_nonuniform_nodes():
    nodes = np.array([0.0, 0.1, 0.4, 1.0])
    mass, stiffness = (fem1d.tridiag_dense(*bands) for bands in fem1d.assemble_line_matrices(nodes))
    # Constants lie in the stiffness kernel and integrate to the length.
    ones = np.ones(nodes.size)
    assert np.abs(stiffness @ ones).max() <= 1e-14
    assert ones @ (mass @ ones) == pytest.approx(1.0, abs=1e-14)


def _hat(nodes, i):
    def phi(x):
        return np.interp(x, nodes, np.eye(nodes.size)[i])

    return phi


def _hat_slope(nodes, i):
    slopes = np.diff(np.eye(nodes.size)[i]) / np.diff(nodes)

    def dphi(x):
        cell = np.searchsorted(nodes, x, side="right") - 1
        return slopes[np.clip(cell, 0, slopes.size - 1)]

    return dphi


def _cellwise_gauss(fun, nodes):
    """Integral of fun over the mesh, Gauss-Legendre 4 on each cell: exact for piecewise cubics."""
    gp, gw = np.polynomial.legendre.leggauss(4)
    half = 0.5 * np.diff(nodes)[:, None]
    return float(np.sum(half * gw * fun(0.5 * (nodes[1:] + nodes[:-1])[:, None] + half * gp)))


def test_spatial_matrices_against_direct_quadrature():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 6)
    a = lambda x: 0.3 + np.zeros_like(np.asarray(x, dtype=float))
    a0 = lambda x: np.asarray(x, dtype=float)
    mats = fem1d.assemble_spatial_matrices(sm, a, a0)
    for i, j in [(0, 0), (2, 2), (2, 3), (3, 2), (6, 6), (1, 4)]:
        phi_i, phi_j = _hat(sm.nodes, i), _hat(sm.nodes, j)
        dphi_i, dphi_j = _hat_slope(sm.nodes, i), _hat_slope(sm.nodes, j)
        ref_a = _cellwise_gauss(lambda x: 0.3 * dphi_i(x) * dphi_j(x), sm.nodes)
        ref_a0 = _cellwise_gauss(lambda x: x * phi_i(x) * phi_j(x), sm.nodes)
        assert mats.K[i, j] == pytest.approx(ref_a + ref_a0, abs=1e-12)
        ref_m = _cellwise_gauss(lambda x: phi_i(x) * phi_j(x), sm.nodes)
        assert mats.M[i, j] == pytest.approx(ref_m, abs=1e-12)
    # Constants lie in the diffusion kernel, so K's row sums are the
    # reaction part alone: the integrals of x against each hat.
    for i in range(sm.d + 1):
        ref = _cellwise_gauss(lambda x: x * _hat(sm.nodes, i)(x), sm.nodes)
        assert mats.K[[i], :].sum() == pytest.approx(ref, abs=1e-12)


def test_constant_diffusion_scales_the_stiffness():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 9)
    nu = 0.1
    a = lambda x: nu * np.ones_like(np.asarray(x, dtype=float))
    a0 = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    mats = fem1d.assemble_spatial_matrices(sm, a, a0)
    _, stiffness = fem1d.assemble_line_matrices(sm.nodes)
    # Zero reaction adds nothing, so K is the scaled stiffness alone.
    assert np.abs(mats.K.toarray() - nu * fem1d.tridiag_dense(*stiffness)).max() <= 1e-15


def test_spatial_matrices_are_symmetric_and_positive():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 11)
    a = lambda x: 1.0 + 0.5 * np.sin(np.pi * np.asarray(x, dtype=float))
    a0 = lambda x: np.asarray(x, dtype=float) ** 2
    mats = fem1d.assemble_spatial_matrices(sm, a, a0)
    # The same mesh with a0 = 0 isolates the diffusion part of K.
    diffusion = fem1d.assemble_spatial_matrices(sm, a, lambda x: 0.0 * np.asarray(x)).K
    reaction = mats.K - diffusion
    for mat in (mats.M, mats.K, diffusion, reaction):
        dense = mat.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-15
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(sm.d + 1)
        assert v @ (mats.M @ v) > 0.0
        assert v @ (mats.K @ v) > 0.0
        assert v @ (diffusion @ v) >= -1e-13
        assert v @ (reaction @ v) >= -1e-13


def test_stiffness_is_bitwise_symmetric_with_variable_reaction():
    # Checks read K through its sparse view, which must hold the same bits
    # on both sides of the diagonal, as the bands do.
    spec = variable_coefficient_problem()
    mats = fem1d.assemble_spatial_matrices(mesh.build_spatial_mesh(0.0, 1.0, 40), spec.a, spec.a0)
    dense = mats.K.toarray()
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("name", problems.CATALOG)
def test_sample_matches_the_per_slice_loop(name):
    spec, _ = problems.build(name)
    taus = np.array([0.0, 0.1, 1.0 / 6.0, 0.45, 0.5, 0.8, 1.0])
    nodes = np.linspace(0.0, 1.0, 11)
    for field in ("f", "y_d", "y_d_t", "Ay_d"):
        fun = getattr(spec, field)
        got = fem1d.sample(fun, taus, nodes)
        want = nodal(fun, taus, nodes)
        assert got.shape == (taus.size, nodes.size)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(np.max(np.abs(want)), 1e-300), field
    for field in ("a", "a0", "y_b"):
        fun = getattr(spec, field)
        want = np.broadcast_to(np.asarray(fun(nodes), dtype=float), nodes.shape)
        np.testing.assert_array_equal(fem1d._coefficient_at(fun, nodes), want)


def test_sample_shapes_and_non_finite_values():
    t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    x = np.linspace(0.0, 1.0, 20).reshape(4, 5)
    vals = fem1d.sample(lambda t, x: t * x, t, x)
    assert vals.shape == (2, 3, 4, 5)
    np.testing.assert_array_equal(vals, t[:, :, None, None] * x[None, None])
    assert fem1d.sample(lambda t, x: 2.0, 0.5, x).shape == (4, 5)

    def spiky(t, x):
        return 1.0 / (t - 0.5) + 0.0 * x

    with pytest.raises(ValueError, match="spiky"):
        fem1d.sample(spiky, np.array([0.0, 0.5]), x)
    with pytest.raises(ValueError, match="non-finite"):
        fem1d._coefficient_at(lambda x: np.log(x), x)


def test_samplers_check_the_callback_result_before_broadcasting():
    x = np.linspace(0.0, 1.0, 20).reshape(4, 5)

    def x_shaped_nan(t, x):
        return np.where(x > 0.9, np.nan, 0.0)

    with pytest.raises(ValueError, match="x_shaped_nan"):
        fem1d.sample(x_shaped_nan, np.array([0.0, 0.5]), x)

    def nan_coefficient(x):
        return np.where(x > 0.9, np.nan, 1.0)

    with pytest.raises(ValueError, match="nan_coefficient"):
        fem1d._coefficient_at(nan_coefficient, x)
    # An empty target holds no value, so nothing in it can be non-finite.
    assert fem1d.sample(x_shaped_nan, np.array([]), x).shape == (0, 4, 5)
    assert fem1d.sample(lambda t, x: np.nan, 0.5, np.empty((3, 0))).shape == (3, 0)
    assert fem1d._coefficient_at(lambda x: np.nan, np.array([])).shape == (0,)


@pytest.mark.parametrize("panels", [1, 16])
def test_time_quadrature_on_some_intervals_equals_those_rows_of_the_whole_rule(panels):
    tgrid = mesh.bisect_intervals(mesh.build_uniform_time_grid(1.0, 7), {0, 3, 6})
    rows = [1, 4, 5, 9]
    whole = fem1d.time_quadrature(tgrid.taus[:-1], tgrid.deltas, 3, panels=panels)
    some = fem1d.time_quadrature(tgrid.taus[:-1][rows], tgrid.deltas[rows], 3, panels=panels)
    for all_rows, part in zip(whole, some):
        assert part.shape == (len(rows), 3 * panels)
        assert all_rows[rows].tobytes() == part.tobytes()
    t, w, lam = whole
    np.testing.assert_allclose(w.sum(axis=1), tgrid.deltas, rtol=1e-14)
    np.testing.assert_allclose(t, tgrid.taus[:-1, None] + lam * tgrid.deltas[:, None], rtol=0, atol=1e-15)


def _coo_reference(smesh, a, a0, quad_order):
    """M and K by a per-element COO loop, summing duplicates in CSR conversion."""
    quad = fem1d.spatial_quadrature(smesh, quad_order)
    gw, phi, h, ne = quad.gw, quad.phi, smesh.h, smesh.d
    a_vals = np.broadcast_to(np.asarray(a(quad.x), dtype=float), quad.x.shape)
    a0_vals = np.broadcast_to(np.asarray(a0(quad.x), dtype=float), quad.x.shape)
    m_el = fem1d.element_matrices(h).mass
    k_scale = (a_vals @ gw) / (2.0 * h)
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    left = np.arange(ne)
    conn = np.stack([left, left + 1])
    rows, cols, m_data, k_data, r_data = [], [], [], [], []
    for i in range(2):
        for j in range(2):
            rows.append(conn[i])
            cols.append(conn[j])
            m_data.append(np.full(ne, m_el[i, j]))
            k_data.append(k_scale * sign[i, j])
            r_data.append((h / 2.0) * (a0_vals * (phi[i] * phi[j])) @ gw)
    rows, cols, n = np.concatenate(rows), np.concatenate(cols), ne + 1

    def build(data):
        return sp.coo_array((np.concatenate(data), (rows, cols)), shape=(n, n)).tocsr()

    return build(m_data), build(k_data) + build(r_data)


@pytest.mark.parametrize("d", [2, 3, 40])
@pytest.mark.parametrize("quad_order", [1, 2, 3])
@pytest.mark.parametrize("spec", [problems.example2(), variable_coefficient_problem()], ids=["constant", "variable"])
def test_spatial_matrices_match_a_per_element_coo_assembly(spec, quad_order, d):
    smesh = mesh.build_spatial_mesh(0.0, 1.0, d)
    space = fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0, quad_order=quad_order)
    for got, want in zip((space.M, space.K), _coo_reference(smesh, spec.a, spec.a0, quad_order)):
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


@pytest.mark.parametrize("shape", [(), (5,), (4, 3)], ids=["scalar", "batch", "batch2"])
@pytest.mark.parametrize("d", [2, 40])
@pytest.mark.parametrize("quad_order", [1, 2, 3])
def test_gather_equals_the_product_and_sum_formula_bitwise(quad_order, d, shape):
    quad = fem1d.spatial_quadrature(mesh.build_spatial_mesh(0.0, 1.0, d), quad_order)
    rng = np.random.default_rng(quad_order * 100 + d)
    values = rng.standard_normal(shape + quad.x.shape) * 10.0 ** rng.integers(-8, 9, shape + quad.x.shape)
    # -0.0 entries, and whole cells of them, whose sums must round like the formula's.
    values.reshape(-1)[::7] = -0.0
    values[..., 0, :] = -0.0
    want = np.zeros(shape + (d + 1,))
    want[..., :-1] += (values * (quad.w * quad.phi[0])).sum(axis=-1)
    want[..., 1:] += (values * (quad.w * quad.phi[1])).sum(axis=-1)
    assert quad.gather(values).tobytes() == want.tobytes()


def _spd_lanes(rng, lengths, width):
    """Random SPD tridiagonal bands, one lane per length, padded after its last row with identity rows."""
    steps = max(lengths)
    diag, off = np.ones((steps, len(lengths), width)), np.zeros((steps - 1, len(lengths), width))
    for k, m in enumerate(lengths):
        off[: m - 1, k] = rng.uniform(-1.0, 1.0, (m - 1, width))
        diag[:m, k] = 2.5 + rng.uniform(0.0, 3.0, (m, width))
    return diag, off


def test_ldlt_kernel_matches_lapack_banded_cholesky():
    # Lanes of 1 to 9 rows side by side; LAPACK sees each column of lanes end
    # to end, every lane's block starting with a zero coupling.
    rng = np.random.default_rng(5)
    lengths = [1, 9, 4, 7, 2]
    diag, off = _spd_lanes(rng, lengths, 3)
    rhs = rng.standard_normal(diag.shape)
    d, l = fem1d.tridiag_factor(diag, off)
    x = fem1d.tridiag_solve(d, l, rhs.copy())
    for k, m in enumerate(lengths):
        for c in range(3):
            band = np.stack([np.concatenate(([0.0], off[: m - 1, k, c])), diag[:m, k, c]])
            chol = la.cholesky_banded(band)
            # U = D^(1/2) L^T: U's diagonal is sqrt(d) and its upper band sqrt(d) l.
            assert np.allclose(np.sqrt(d[:m, k, c]), chol[1], rtol=1e-14, atol=0.0)
            upper = np.sqrt(d[: m - 1, k, c]) * l[: m - 1, k, c]
            assert np.allclose(upper, chol[0, 1:], rtol=1e-14, atol=0.0)
            want = la.cho_solve_banded((chol, False), rhs[:m, k, c])
            assert np.linalg.norm(x[:m, k, c] - want) <= 1e-14 * np.linalg.norm(want)
    # The padding rows are identity rows with zero right-hand sides.
    rhs_padded = rhs.copy()
    for k, m in enumerate(lengths):
        rhs_padded[m:, k] = 0.0
    padded = fem1d.tridiag_solve(d, l, rhs_padded)
    for k, m in enumerate(lengths):
        assert not np.any(padded[m:, k])
        assert padded[:m, k].tobytes() == x[:m, k].tobytes()


@pytest.mark.parametrize("lengths", [[1, 9, 4, 7, 2], [1]])
def test_banded_product_with_bands_per_lane_equals_one_product_per_lane(lengths):
    # The batched solver multiplies every lane of Y (steps, lanes, n) by its own bands.
    rng = np.random.default_rng(len(lengths))
    diag, off = (band[..., 0] for band in _spd_lanes(rng, lengths, 1))
    Y = rng.standard_normal(diag.shape + (4,))
    got = fem1d.tridiag_dot(diag, off, Y)
    for k in range(len(lengths)):
        want = fem1d.tridiag_dot(diag[:, k], off[:, k], Y[:, k])
        assert got[:, k].tobytes() == want.tobytes()
        assert np.allclose(want, fem1d.tridiag_dense(diag[:, k], off[:, k]) @ Y[:, k], rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("pivot", [0, 3, 5])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
def test_ldlt_kernel_refuses_a_pivot_that_is_not_positive(pivot, value):
    # Row 'pivot' of one lane gets the diagonal value and no coupling to the
    # row above, so its pivot is that value.  The error must name that row,
    # and a RuntimeWarning from dividing by it would fail the test.
    diag, off = _spd_lanes(np.random.default_rng(pivot), [6, 6], 2)
    diag[pivot, 1, 0] = value
    if pivot:
        off[pivot - 1, 1, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match=f"pivot {pivot} "):
        fem1d.tridiag_factor(diag, off)


def test_ldlt_kernel_names_the_first_bad_pivot_among_many_lanes():
    # 64 x 2 lanes of 9 rows.  Lane (37, 1) gets pivot -1 at row 4 and lane
    # (12, 0) pivot 0 at row 6, each cut from the row above, so the rows below
    # them run on through inf and NaN with numpy's warnings off.  The pivots
    # are checked once, after the last row: the error must name row 4, the
    # first bad one in any lane, and no RuntimeWarning may escape.
    diag, off = _spd_lanes(np.random.default_rng(9), [9] * 64, 2)
    diag[4, 37, 1], off[3, 37, 1] = -1.0, 0.0
    diag[6, 12, 0], off[5, 12, 0] = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=r"pivot 4 is -1\.0$"):
            fem1d.tridiag_factor(diag, off)
        # The mass of the eigenbasis goes through the same kernel.
        with pytest.raises(np.linalg.LinAlgError, match="pivot 2 "):
            fem1d.eigenbasis((np.array([2.0, 2.0, 0.5, 2.0]), np.array([0.5, 1.0, 0.5])), (np.ones(4), np.zeros(3)))


# (a, a0) pairs: example2's constant diffusion, one with a constant reaction too, and variable ones.
_COEFFICIENTS = {
    "constant": (problems.example2().a, problems.example2().a0),
    "reaction": (lambda x: 0.1, lambda x: 2.0),
    "variable": (variable_coefficient_problem().a, variable_coefficient_problem().a0),
}


def _space(coefficients, d):
    return fem1d.assemble_spatial_matrices(mesh.build_spatial_mesh(0.0, 1.0, d), *_COEFFICIENTS[coefficients])


@pytest.mark.parametrize("coefficients", list(_COEFFICIENTS))
@pytest.mark.parametrize("d", [2, 3, 40, 200, 400])
def test_eigenbasis_diagonalizes_the_pencil(coefficients, d):
    space = _space(coefficients, d)
    lam, V = space.modes
    m_i, k_i = (fem1d.tridiag_dense(*bands) for bands in space.inner_bands)
    assert np.all(np.diff(lam) >= 0.0) and lam[0] > 0.0
    assert np.abs(V.T @ m_i @ V - np.eye(d - 1)).max() <= 1e-13
    scale = np.abs(k_i).max() * np.abs(V).max()
    assert np.abs(k_i @ V - m_i @ V * lam).max() <= 1e-13 * scale


def _agrees_with_the_reduction(m_band, k_band):
    """The closed form's (lam, V) against _reduced_eigenbasis's: lam to eigh's error, and each mode up to sign."""
    lam, V = fem1d.eigenbasis(m_band, k_band)
    lam_ref, V_ref = fem1d._reduced_eigenbasis(m_band, k_band)
    assert np.abs(lam - lam_ref).max() <= 1e-14 * np.abs(lam_ref).max()
    # V^T M V_ref is diagonal up to signs when the modes span the same lines.
    m = fem1d.tridiag_dense(*m_band)
    assert np.abs(np.abs(V.T @ m @ V_ref) - np.eye(len(lam))).max() <= 1e-11
    return lam, V, lam_ref, V_ref


@pytest.mark.parametrize("coefficients", ["constant", "reaction"])
@pytest.mark.parametrize("d", [2, 3, 40, 200, 400])
def test_constant_bands_get_the_sine_basis_of_the_reduction(coefficients, d, monkeypatch):
    space = _space(coefficients, d)
    # The sine basis calls no reduction.
    monkeypatch.setattr(fem1d, "_reduced_eigenbasis", None)
    lam, V = space.modes
    monkeypatch.undo()
    _, _, lam_ref, V_ref = _agrees_with_the_reduction(*space.inner_bands)
    # The closed form's pencil residual is no larger than the reduction's, or a few ulps on a few rows.
    m_i, k_i = (fem1d.tridiag_dense(*bands) for bands in space.inner_bands)
    residual, residual_ref = (np.abs(k_i @ W - m_i @ W * mu).max() for mu, W in ((lam, V), (lam_ref, V_ref)))
    assert residual <= (residual_ref if d >= 40 else 8 * np.finfo(float).eps * np.abs(k_i).max())


@pytest.mark.parametrize(
    "m_band, k_band",
    [
        # lam falls as k rises, so the sort reverses the modes.
        ((np.full(6, 4.0), np.full(5, -1.0)), (np.full(6, 3.0), np.full(5, 0.0))),
        ((np.ones(9), np.zeros(8)), (np.full(9, 2.0), np.full(8, 0.9))),
        # One row: empty off bands.
        ((np.array([0.5]), np.array([])), (np.array([3.0]), np.array([]))),
    ],
    ids=["falling", "identity-mass", "one-row"],
)
def test_toeplitz_bands_agree_with_the_reduction(m_band, k_band):
    lam, *_ = _agrees_with_the_reduction(m_band, k_band)
    assert np.all(np.diff(lam) >= 0.0)


def test_toeplitz_bands_with_one_eigenvalue_give_an_m_orthonormal_basis():
    # K = 2 M: every line is a mode, so only lam and V^T M V = I are pinned.
    m_band = (np.full(6, 4.0), np.full(5, 1.0))
    lam, V = fem1d.eigenbasis(m_band, (2.0 * m_band[0], 2.0 * m_band[1]))
    assert np.all(lam == 2.0)
    assert np.abs(V.T @ fem1d.tridiag_dense(*m_band) @ V - np.eye(6)).max() <= 1e-14


def test_a_toeplitz_mass_that_is_not_positive_definite_raises():
    # 1 + 1.2 cos(theta) < 0 for the modes with theta near pi.
    for m_band in ((np.ones(5), np.full(4, 0.6)), (np.array([-1.0]), np.array([]))):
        k_band = (np.ones(len(m_band[0])), np.zeros(len(m_band[1])))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            fem1d.eigenbasis(m_band, k_band)


@pytest.mark.parametrize("d", [3, 40])
def test_variable_coefficients_take_the_reduction(d):
    # M is Toeplitz on a uniform mesh, K is not: the pencil goes through the reduction, bit for bit.
    space = _space("variable", d)
    lam, V = space.modes
    lam_ref, V_ref = fem1d._reduced_eigenbasis(*space.inner_bands)
    assert lam.tobytes() == lam_ref.tobytes() and V.tobytes() == V_ref.tobytes()


def test_eigenbasis_refuses_a_mass_that_is_not_positive_definite():
    m_band = (np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.5]))
    with pytest.raises(np.linalg.LinAlgError, match="pivot 1 "):
        fem1d.eigenbasis(m_band, (np.ones(3), np.zeros(2)))
