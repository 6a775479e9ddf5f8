import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varda import assimilation, fem1d, mesh, problems


@pytest.fixture(scope="module")
def ex1i_result(ex1i, smesh40, tgrid40):
    return assimilation.assimilate(ex1i, smesh40, tgrid40)


def test_rmse_of_constant_offset_is_exact():
    tg = mesh.build_uniform_time_grid(1.0, 4)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 6)
    ref = lambda t, x: np.sin(np.pi * np.asarray(x, dtype=float)) * np.exp(-t)
    vals = np.array([ref(t, sm.nodes) for t in tg.taus]) + 0.37
    field = mesh.SpaceTimeField(tg, sm, vals)
    assert assimilation.rmse(field, ref) == pytest.approx(0.37, abs=1e-13)


def test_rmse_counts_every_node():
    tg = mesh.build_uniform_time_grid(1.0, 3)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 2)
    vals = np.zeros((4, 3))
    vals[0, 0] = 2.0
    # One nonzero node out of twelve: rmse = sqrt(4 / 12).
    field = mesh.SpaceTimeField(tg, sm, vals)
    zero = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
    assert assimilation.rmse(field, zero) == pytest.approx(np.sqrt(4.0 / 12.0), abs=1e-15)


def test_mse_initial_divides_by_the_node_count():
    p0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert assimilation.mse_initial(p0, np.zeros(5)) == pytest.approx(0.2, abs=1e-16)
    with pytest.raises(ValueError):
        assimilation.mse_initial(p0, np.zeros(4))


@settings(max_examples=200, deadline=None)
@given(
    g=arrays(np.float64, 17, elements=st.floats(-10, 10)),
    lower=st.floats(-5, 0),
    width=st.floats(0, 5),
)
def test_project_box_is_idempotent_and_feasible(g, lower, width):
    upper = lower + width
    once = assimilation.project_box(g, lower, upper)
    assert np.all(once >= lower) and np.all(once <= upper)
    np.testing.assert_array_equal(assimilation.project_box(once, lower, upper), once)
    # Interior values pass through untouched.
    inside = (g >= lower) & (g <= upper)
    np.testing.assert_array_equal(once[inside], g[inside])


def test_project_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        assimilation.project_box(np.zeros(3), 1.0, -1.0)


def test_control_formula_and_replay(ex1i, ex1i_result, smesh40):
    res = ex1i_result
    inner = smesh40.interior
    expected = ex1i.y_b(smesh40.nodes[inner]) - res.p.values[0, inner] / ex1i.alpha
    np.testing.assert_array_equal(res.u[inner], expected)
    assert res.u[0] == 0.0 and res.u[-1] == 0.0
    # The trajectory starts from the extracted control.
    np.testing.assert_array_equal(res.y.values[0], res.u)
    assert res.solver_residual <= 1e-10
    assert res.alpha == ex1i.alpha


def test_assimilation_hits_the_published_misfit(ex1i_result):
    # Anchor value for d = N = 40, alpha = 0.01.
    assert ex1i_result.rmse == pytest.approx(0.0076, rel=0.15)


def test_more_trust_in_the_background_raises_the_misfit(smesh40, tgrid40):
    misfits = []
    for alpha in (0.01, 0.25, 10.0):
        spec = problems.example1("i", alpha=alpha)
        misfits.append(assimilation.assimilate(spec, smesh40, tgrid40).rmse)
    assert misfits[0] < misfits[1] < misfits[2]


def test_consistent_problem_returns_the_background(smesh40, tgrid40):
    spec = problems.consistent_problem()
    res = assimilation.assimilate(spec, smesh40, tgrid40)
    assert np.abs(res.u - spec.y_b(smesh40.nodes) * _mask(smesh40)).max() <= 1e-8
    assert np.abs(res.p.values).max() <= 1e-3
    assert res.rmse <= 5e-3


def _mask(smesh):
    m = np.ones(smesh.d + 1)
    m[0] = m[-1] = 0.0
    return m


def _graded_grid():
    tgrid = mesh.build_uniform_time_grid(1.0, 20)
    for _ in range(6):
        tgrid = mesh.bisect_intervals(tgrid, [0])
    return tgrid


@pytest.mark.parametrize("name", list(problems.CATALOG))
@pytest.mark.parametrize(
    "d, tgrid",
    [(2, mesh.build_uniform_time_grid(1.0, 3)), (3, mesh.build_uniform_time_grid(1.0, 7)),
     (10, mesh.build_uniform_time_grid(1.0, 10)), (40, mesh.build_uniform_time_grid(1.0, 40)),
     (40, _graded_grid()), (200, mesh.build_uniform_time_grid(1.0, 20))],
    ids=["2x3", "3x7", "10x10", "40x40", "40xgraded", "200x20"],
)
def test_the_sine_basis_and_the_reduction_give_the_same_control(name, d, tgrid, monkeypatch):
    # Catalog spaces get the closed-form sine basis; the Cholesky-eigh reduction is the reference.
    spec, _ = problems.build(name)
    smesh = mesh.build_spatial_mesh(*spec.domain, d)
    sine = assimilation.assimilate(spec, smesh, tgrid)
    monkeypatch.setattr(fem1d, "eigenbasis", fem1d._reduced_eigenbasis)
    reduced = assimilation.assimilate(spec, smesh, tgrid)
    u_scale = np.abs(reduced.u).max()
    assert np.abs(sine.u - reduced.u).max() <= 1e-10 * u_scale
    # p(0) = alpha (y_b - u) on the interior, so it is measured on alpha's scale of u where it vanishes.
    p0, p0_ref = sine.p.values[0], reduced.p.values[0]
    assert np.abs(p0 - p0_ref).max() <= 1e-10 * max(np.abs(p0_ref).max(), spec.alpha * u_scale)
