import numpy as np
import pytest
from scipy.integrate import quad

from conftest import nodal
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
    mass, stiffness = fem1d.assemble_line_matrices(nodes)
    n = nodes.size
    mass_ref = np.zeros((n, n))
    stiff_ref = np.zeros((n, n))
    for e in range(n - 1):
        em = fem1d.element_matrices(nodes[e + 1] - nodes[e])
        mass_ref[e : e + 2, e : e + 2] += em.mass
        stiff_ref[e : e + 2, e : e + 2] += em.stiffness
    np.testing.assert_allclose(mass.toarray(), mass_ref, atol=1e-15)
    np.testing.assert_allclose(stiffness.toarray(), stiff_ref, atol=1e-15)


def test_line_matrices_on_nonuniform_nodes():
    nodes = np.array([0.0, 0.1, 0.4, 1.0])
    mass, stiffness = fem1d.assemble_line_matrices(nodes)
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


def test_spatial_matrices_against_direct_quadrature():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 6)
    a = lambda x: 0.3 + np.zeros_like(np.asarray(x, dtype=float))
    a0 = lambda x: np.asarray(x, dtype=float)
    mats = fem1d.assemble_spatial_matrices(sm, a, a0)
    breaks = list(sm.nodes[1:-1])
    for i, j in [(0, 0), (2, 2), (2, 3), (3, 2), (6, 6), (1, 4)]:
        phi_i, phi_j = _hat(sm.nodes, i), _hat(sm.nodes, j)
        dphi_i, dphi_j = _hat_slope(sm.nodes, i), _hat_slope(sm.nodes, j)
        ref_a, _ = quad(lambda x: 0.3 * dphi_i(x) * dphi_j(x), 0.0, 1.0, points=breaks, limit=200)
        ref_a0, _ = quad(lambda x: x * phi_i(x) * phi_j(x), 0.0, 1.0, points=breaks, limit=200)
        assert mats.K[i, j] == pytest.approx(ref_a + ref_a0, abs=1e-12)
        ref_m, _ = quad(lambda x: phi_i(x) * phi_j(x), 0.0, 1.0, points=breaks, limit=200)
        assert mats.M[i, j] == pytest.approx(ref_m, abs=1e-12)
    # Constants lie in the diffusion kernel, so K's row sums are the
    # reaction part alone: the integrals of x against each hat.
    for i in range(sm.d + 1):
        ref, _ = quad(lambda x: x * _hat(sm.nodes, i)(x), 0.0, 1.0, points=breaks, limit=200)
        assert mats.K[[i], :].sum() == pytest.approx(ref, abs=1e-12)


def test_constant_diffusion_scales_the_stiffness():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 9)
    nu = 0.1
    a = lambda x: nu * np.ones_like(np.asarray(x, dtype=float))
    a0 = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    mats = fem1d.assemble_spatial_matrices(sm, a, a0)
    _, stiffness = fem1d.assemble_line_matrices(sm.nodes)
    # Zero reaction adds nothing, so K is the scaled stiffness alone.
    assert np.abs((mats.K - nu * stiffness).toarray()).max() <= 1e-15


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
