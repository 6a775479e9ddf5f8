import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import unfactored_data
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


# Reference ramp: the per-derivative formulas, one exp per term.
def _old_bump(u):
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe), 0.0)


def _old_bump_d1(u):
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe) / (safe * safe), 0.0)


def _old_bump_d2(u):
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe) * (1.0 - 2.0 * safe) / safe**4, 0.0)


def _old_sigmas(t, m, eps):
    s = (np.asarray(t, dtype=float) - m) / eps
    w, v = 0.5 - s, 0.5 + s
    gw, gv = _old_bump(w), _old_bump(v)
    gw1, gv1 = _old_bump_d1(w), _old_bump_d1(v)
    gw2, gv2 = _old_bump_d2(w), _old_bump_d2(v)
    den = gw + gv
    cross = gw1 * gv + gw * gv1
    numer = (gw * gv2 - gw2 * gv) * den - 2.0 * cross * (gv1 - gw1)
    return gw / den, -(1.0 / eps) * cross / (den * den), -(1.0 / (eps * eps)) * numer / den**3


@pytest.mark.parametrize("m, eps", [(0.5, 0.5), (0.5, 0.05), (0.3, 0.2)])
def test_ramp_kernel_matches_the_per_derivative_formulas(m, eps):
    edges = np.array([m - eps / 2, m + eps / 2])
    # Both plateaus, the ramp's ends exactly and one ulp off, and each side's
    # clamp: there u = 0.5 -+ s crosses 1e-3 at eps * 1e-3 inside an end.
    steps = eps * np.array([-2e-3, -1e-3, -9.99e-4, -5e-4, -1e-6, 1e-6, 5e-4, 9.99e-4, 1e-3, 2e-3])
    t = np.sort(np.concatenate([
        np.linspace(0.0, 1.0, 4001), edges, (edges[:, None] + steps).ravel(),
        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [m],
    ]))
    assert np.all((0.0 <= t) & (t <= 1.0))
    new = (problems.bump_sigma, problems.bump_sigma_dt, problems.bump_sigma_dtt)
    for k, (fun, want) in enumerate(zip(new, _old_sigmas(t, m, eps))):
        assert np.array_equal(fun(t, m, eps), want), fun.__name__
        assert all(fun(ti, m, eps) == _old_sigmas(ti, m, eps)[k] for ti in t[::97].tolist()), fun.__name__

    spec, _ = problems.example3(m=m, eps=eps)
    tt, xx = t[:, None], np.linspace(0.0, 1.0, 17)[None, :]
    s, s1, s2 = _old_sigmas(tt, m, eps)
    sine = np.sin(np.pi * xx)
    assert np.array_equal(spec.f(tt, xx), (RATE * RATE * s + RATE * s1) * sine)
    assert np.array_equal(spec.y_d(tt, xx), s1 * sine)
    assert np.array_equal(spec.y_d_t(tt, xx), s2 * sine)
    assert np.array_equal(spec.Ay_d(tt, xx), (RATE * s1) * sine)


@pytest.mark.parametrize(
    "name, params",
    [
        ("example1", {"nu": 0.1}),
        ("example1", {"nu": 0.05}),
        ("example2", {"nu": 0.1, "eps": 0.01}),
        ("example2", {"nu": 0.05, "eps": 0.25}),
        ("example2", {"nu": 0.2, "eps": 0.002}),
        ("example3", {"nu": 0.1, "eps": 0.5}),
        ("example3", {"nu": 0.05, "eps": 0.05}),
    ],
)
def test_factored_callbacks_match_the_unfactored_closed_forms(name, params):
    # One tensor-grid product per callback only reorders the products, so each
    # value stays within 4 ulps of the grid's largest |value|.  The grid holds
    # both ends of each axis and the pulse's centre t = 1/6.
    spec, _ = problems.build("example1i" if name == "example1" else name, **params)
    want = unfactored_data(name, **params)
    t = np.unique(np.concatenate([np.linspace(0.0, 1.0, 601), [1.0 / 6.0]]))[:, None]
    x = np.linspace(0.0, 1.0, 257)[None, :]
    assert t[0, 0] == 0.0 and t[-1, 0] == 1.0 and 1.0 / 6.0 in t
    for field in ("y_d", "y_d_t", "Ay_d"):
        got, ref = getattr(spec, field)(t, x), want[field](t, x)
        assert got.shape == ref.shape == (t.size, x.size)
        assert np.abs(got - ref).max() <= 4.0 * np.spacing(np.abs(ref).max()), field


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


def test_catalog_problems_share_the_unit_square_setting():
    xs = np.linspace(0.0, 1.0, 13)
    ts = np.linspace(0.0, 1.0, 7)[:, None]
    for name in problems.CATALOG:
        spec, _ = problems.build(name, nu=0.2)
        assert spec.T == 1.0 and spec.domain == (0.0, 1.0)
        np.testing.assert_array_equal(spec.a(xs), np.full_like(xs, 0.2))
        np.testing.assert_array_equal(spec.a0(xs), np.zeros_like(xs))
        # y_d is sin(pi x) times a function of t, so -(nu y_d')' = nu pi^2 y_d.
        h = 1e-4
        second = (spec.y_d(ts, xs + h) - 2.0 * spec.y_d(ts, xs) + spec.y_d(ts, xs - h)) / (h * h)
        np.testing.assert_allclose(spec.Ay_d(ts, xs), -0.2 * second, rtol=1e-6, atol=1e-6)


def test_consistent_problem_is_example1i_with_another_guess():
    xs = np.linspace(0.0, 1.0, 13)
    ts = np.linspace(0.0, 1.0, 7)[:, None]
    one = problems.example1("i", alpha=0.3, nu=0.2)
    consistent = problems.consistent_problem(alpha=0.3, nu=0.2)
    assert (consistent.alpha, consistent.T, consistent.domain) == (one.alpha, one.T, one.domain)
    for name in ("a", "a0"):
        np.testing.assert_array_equal(getattr(consistent, name)(xs), getattr(one, name)(xs))
    for name in ("f", "y_d", "y_d_t", "Ay_d"):
        np.testing.assert_array_equal(getattr(consistent, name)(ts, xs), getattr(one, name)(ts, xs))
    assert not np.array_equal(consistent.y_b(xs), one.y_b(xs))


def test_build_routes_names_and_rejects_unknown_ones():
    assert list(problems.CATALOG) == ["example1i", "example1ii", "example2", "example3", "consistent"]
    # A name's parameters are its constructor's keywords, with their defaults.
    assert problems.parameters("example1ii") == {"alpha": 0.01, "nu": 0.1}
    assert problems.parameters("example3") == {"alpha": 1.0, "nu": 0.1, "m": 0.5, "eps": 0.5}
    # Valid for every problem, so the constructor must accept whatever its
    # signature lists.
    values = {"alpha": 0.5, "nu": 0.1, "eps": 0.25, "m": 0.5}
    for name in problems.CATALOG:
        spec, exact = problems.build(name)
        assert spec.T == 1.0
        assert (exact is not None) == (name == "example3")
        spec, _ = problems.build(name, **{p: values[p] for p in problems.parameters(name)})
        assert spec.alpha == 0.5
    consistent, _ = problems.build("consistent")
    xs = np.linspace(0.0, 1.0, 5)
    np.testing.assert_array_equal(consistent.y_b(xs), problems.consistent_problem().y_b(xs))
    spec, _ = problems.build("example2", eps=0.05)
    assert spec.alpha == 0.01
    with pytest.raises(ValueError, match="example1i"):
        problems.build("example9")
    with pytest.raises(ValueError, match="example9"):
        problems.parameters("example9")
    with pytest.raises(ValueError, match=r"^problem 'example1i' does not take problem\.eps$"):
        problems.build("example1i", eps=0.3)
    # Of several, the first in sorted order is named.
    with pytest.raises(ValueError, match=r"^problem 'example2' does not take problem\.beta$"):
        problems.build("example2", m=0.5, beta=1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_problem_parameters_must_be_finite_and_positive(value):
    for name in problems.CATALOG:
        for param in ("nu", "eps"):
            if param in problems.parameters(name):
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
