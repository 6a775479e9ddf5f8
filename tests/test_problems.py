import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varda import problems

RATE = np.pi * np.pi * 0.1


def test_ramp_is_exact_outside_the_transition():
    m, eps = 0.5, 0.2
    left = np.linspace(0.0, m - eps, 9)
    right = np.linspace(m + eps, 1.0, 9)
    np.testing.assert_array_equal(problems.bump_sigma(left, m, eps), 1.0)
    np.testing.assert_array_equal(problems.bump_sigma(right, m, eps), 0.0)
    assert problems.bump_sigma(m, m, eps) == pytest.approx(0.5, abs=1e-15)


def test_ramp_is_monotone_decreasing():
    ts = np.linspace(0.2, 0.8, 401)
    sigma = problems.bump_sigma(ts, 0.5, 0.3)
    assert np.all(np.diff(sigma) <= 0.0)
    assert np.any(np.diff(sigma) < 0.0)


@settings(max_examples=150, deadline=None)
@given(t=st.floats(0.302, 0.698))
def test_ramp_derivatives_match_finite_differences(t):
    m, eps = 0.5, 0.2
    h = 1e-5
    stencil = np.array([t - 2 * h, t - h, t + h, t + 2 * h])
    s = problems.bump_sigma(stencil, m, eps)
    fd1 = (s[0] - 8.0 * s[1] + 8.0 * s[2] - s[3]) / (12.0 * h)
    assert problems.bump_sigma_dt(t, m, eps) == pytest.approx(fd1, abs=1e-7)
    s1 = problems.bump_sigma_dt(stencil, m, eps)
    fd2 = (s1[0] - 8.0 * s1[1] + 8.0 * s1[2] - s1[3]) / (12.0 * h)
    assert problems.bump_sigma_dtt(t, m, eps) == pytest.approx(fd2, abs=1e-4)


def test_ramp_derivatives_vanish_on_the_plateaus():
    for t in (0.0, 0.29, 0.71, 1.0):
        assert problems.bump_sigma_dt(t, 0.5, 0.2) == 0.0
        assert problems.bump_sigma_dtt(t, 0.5, 0.2) == 0.0


def test_example1_data_solve_the_model():
    rng = np.random.default_rng(5)
    spec = problems.example1("i")
    for t, x in zip(rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)):
        assert spec.y_d_t(t, x) + spec.Ay_d(t, x) == 0.0
        assert spec.f(t, x) == 0.0


def test_example1_variants_share_everything_but_the_guess():
    xs = np.linspace(0.0, 1.0, 13)
    one = problems.example1("i")
    two = problems.example1("ii")
    np.testing.assert_array_equal(one.y_d(0.3, xs), two.y_d(0.3, xs))
    np.testing.assert_allclose(one.y_b(xs), 0.25 - (xs - 0.5) ** 2, atol=1e-15)
    np.testing.assert_allclose(two.y_b(xs), np.sin(2 * np.pi * xs), atol=1e-15)
    with pytest.raises(ValueError):
        problems.example1("iii")
    with pytest.raises(ValueError):
        problems.example1("i", alpha=-1.0)


def test_example2_data_carry_the_unmodeled_inflow():
    spec = problems.example2()
    inflow = problems.example2_inflow()
    rng = np.random.default_rng(6)
    for t, x in zip(rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)):
        assert spec.y_d_t(t, x) + spec.Ay_d(t, x) == pytest.approx(
            inflow(t, x), abs=1e-12
        )
    # The model itself is source free, which is what creates the misfit.
    assert spec.f(0.3, 0.5) == 0.0


def test_example2_inflow_peaks_at_one_sixth():
    inflow = problems.example2_inflow()
    ts = np.linspace(0.0, 1.0, 4001)
    peak = ts[np.argmax(inflow(ts, 0.5))]
    assert abs(peak - 1.0 / 6.0) <= ts[1] - ts[0]


def test_example2_data_match_their_closed_form():
    spec = problems.example2(eps=0.02)
    y_d = problems.example2_data(eps=0.02)
    xs = np.linspace(0.0, 1.0, 9)
    for t in (0.0, 0.1, 1.0 / 6.0, 0.9):
        np.testing.assert_array_equal(spec.y_d(t, xs), y_d(t, xs))


def test_example3_residual_reduces_to_the_ramp_terms():
    # f - dt y_d - A y_d collapses to (rate^2 sigma - sigma'') sin(pi x),
    # which is the right-hand side the exact adjoint satisfies.
    spec, _ = problems.example3()
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, 50)
    x = rng.uniform(0.01, 0.99, 50)
    g = np.array([spec.f(ti, xi) - spec.y_d_t(ti, xi) - spec.Ay_d(ti, xi) for ti, xi in zip(t, x)])
    ref = (RATE**2 * problems.bump_sigma(t, 0.5, 0.5)
           - problems.bump_sigma_dtt(t, 0.5, 0.5)) * np.sin(np.pi * x)
    assert np.abs(g - ref).max() <= 1e-6


def test_example3_exact_adjoint_boundary_behavior():
    spec, exact_p = problems.example3()
    xs = np.linspace(0.0, 1.0, 21)
    # Vanishes at the final time and on the spatial boundary.
    np.testing.assert_array_equal(exact_p(1.0, xs), 0.0)
    assert exact_p(0.4, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert exact_p(0.4, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_p(0.0, 0.5) == pytest.approx(problems.bump_sigma(0.0, 0.5, 0.5), abs=1e-15)
    with pytest.raises(ValueError):
        problems.example3(m=0.9, eps=0.5)


def test_all_catalog_data_are_mirror_symmetric():
    xs = np.linspace(0.0, 1.0, 17)
    for name in problems.CATALOG:
        spec, _ = problems.build(name)
        for t in (0.0, 0.45, 1.0):
            np.testing.assert_allclose(
                np.asarray(spec.y_d(t, xs)), np.asarray(spec.y_d(t, 1.0 - xs)),
                atol=1e-12,
            )
    # The guesses are symmetric too, except the second variant's, which is
    # symmetric only up to sign.
    for name in ("example1i", "example2", "example3"):
        spec, _ = problems.build(name)
        np.testing.assert_allclose(
            np.asarray(spec.y_b(xs)), np.asarray(spec.y_b(1.0 - xs)), atol=1e-12
        )
    anti, _ = problems.build("example1ii")
    np.testing.assert_allclose(
        np.asarray(anti.y_b(xs)), -np.asarray(anti.y_b(1.0 - xs)), atol=1e-12
    )


def test_consistent_problem_guess_matches_the_data_at_start():
    spec = problems.consistent_problem()
    xs = np.linspace(0.0, 1.0, 13)
    np.testing.assert_array_equal(spec.y_b(xs), spec.y_d(0.0, xs))


def test_build_routes_names_and_rejects_unknown_ones():
    assert list(problems.CATALOG) == ["example1i", "example1ii", "example2", "example3", "consistent"]
    # Valid for every problem, so the constructor must accept whatever its
    # table entry lists.
    values = {"alpha": 0.5, "nu": 0.1, "eps": 0.25, "m": 0.5}
    for name, params in problems.CATALOG.items():
        spec, exact = problems.build(name)
        assert spec.T == 1.0
        assert (exact is not None) == (name == "example3")
        spec, _ = problems.build(name, **{p: values[p] for p in params})
        assert spec.alpha == 0.5
    consistent, _ = problems.build("consistent")
    xs = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(consistent.y_b(xs), problems.consistent_problem().y_b(xs))
    spec, _ = problems.build("example2", eps=0.05)
    assert spec.alpha == 0.01
    with pytest.raises(ValueError, match="example1i"):
        problems.build("example9")
    with pytest.raises(TypeError):
        problems.build("example1i", eps=0.3)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_problem_parameters_must_be_finite_and_positive(value):
    for name, params in problems.CATALOG.items():
        for param in ("nu", "eps"):
            if param in params:
                with pytest.raises(ValueError, match=f"^{param} must be finite and positive"):
                    problems.build(name, **{param: value})


def test_problem_spec_rejects_a_mismatched_time_derivative():
    spec = problems.example1("i")
    bad = lambda t, x: 5.0 + np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match="finite difference"):
        problems.ProblemSpec(
            a=spec.a, a0=spec.a0, alpha=spec.alpha, T=spec.T, domain=spec.domain,
            f=spec.f, y_d=spec.y_d, y_d_t=bad, Ay_d=spec.Ay_d, y_b=spec.y_b,
        )


def test_problem_spec_rejects_a_mismatched_operator():
    spec = problems.example1("i")
    flipped = lambda t, x: -spec.Ay_d(t, x)
    with pytest.raises(ValueError, match="Ay_d disagrees"):
        replace(spec, Ay_d=flipped)


def test_problem_spec_rejects_callbacks_that_do_not_broadcast():
    spec = problems.example1("i")
    scalar_t = lambda t, x: math.exp(-t) * np.sin(np.pi * x)
    with pytest.raises(ValueError, match="f fails on a tensor grid"):
        replace(spec, f=scalar_t)
    # Summing over the first axis mixes the time points of a tensor grid.
    reducing = lambda t, x: np.sum(np.exp(-t) * np.sin(np.pi * x), axis=0)
    with pytest.raises(ValueError, match="f does not broadcast"):
        replace(spec, f=reducing)
