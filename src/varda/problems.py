"""Built-in benchmark problems.

Three families, all on the unit space-time square with constant diffusion
nu and zero reaction:

* example1: decaying sine data with an inaccurate background guess, in two
  variants that differ only in the guess.
* example2: the data follow a trajectory with an extra heat inflow pulse
  that the model does not include, so the misfit cannot be assimilated
  away; the model spec carries f = 0 while the inflow that generated the
  data is exposed separately for verification.
* example3: a manufactured problem whose exact adjoint is a smooth bump
  ramp in time times a sine in space, used to measure true errors and to
  exercise the adaptive grid around the ramp.  One kernel, _ramp, gives the
  ramp and its first two time derivatives from one exp per side of the
  ramp; bump_sigma, bump_sigma_dt and bump_sigma_dtt are views of it.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np

from .assimilation import ProblemSpec

__all__ = [
    "example1",
    "example2",
    "example2_inflow",
    "example2_data",
    "example3",
    "consistent_problem",
    "bump_sigma",
    "bump_sigma_dt",
    "bump_sigma_dtt",
    "build",
    "parameters",
    "CATALOG",
]


def _require_positive(**params: float) -> None:
    # alpha is left to ProblemSpec, which checks it for every problem.
    for name, value in params.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _zero(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _constant(value: float) -> Callable:
    def coefficient(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    return coefficient


def _unit_square(alpha: float, nu: float, f, y_d, y_d_t, ay_d, y_b) -> ProblemSpec:
    """A catalog problem: a = nu, a0 = 0 and T = 1 on the domain (0, 1)."""
    return ProblemSpec(
        a=_constant(nu),
        a0=_constant(0.0),
        alpha=alpha,
        T=1.0,
        domain=(0.0, 1.0),
        f=f,
        y_d=y_d,
        y_d_t=y_d_t,
        Ay_d=ay_d,
        y_b=y_b,
    )


def example1(variant: str, alpha: float = 0.01, nu: float = 0.1) -> ProblemSpec:
    """Decaying sine data with an inaccurate background guess.

    The data solve the model exactly, so the only misfit driver is the
    background guess: a parabola x(1-x) for variant 'i', sin(2 pi x) for
    variant 'ii'.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    _require_positive(nu=nu)
    rate = np.pi * np.pi * nu

    def y_d(t, x):
        return np.sin(np.pi * x) * np.exp(-rate * t)

    def y_d_t(t, x):
        return np.sin(np.pi * x) * (-rate * np.exp(-rate * t))

    def ay_d(t, x):
        return np.sin(np.pi * x) * (rate * np.exp(-rate * t))

    if variant == "i":
        def y_b(x):
            return 0.25 - (x - 0.5) ** 2
    else:
        def y_b(x):
            return np.sin(2.0 * np.pi * x)

    return _unit_square(alpha, nu, _zero, y_d, y_d_t, ay_d, y_b)


def _pulse(t, eps: float):
    """example2's Lorentzian in t, centred at t = 1/6: the ramp's derivative."""
    return (1.0 / np.pi) * eps / (eps * eps + (t - 1.0 / 6.0) ** 2)


def _arctan_ramp(t, eps: float):
    """example2's ramp in t, from 1 to 2 across t = 1/6."""
    return (1.0 / np.pi) * np.arctan((t - 1.0 / 6.0) / eps) + 1.0


def example2_inflow(nu: float = 0.1, eps: float = 0.01) -> Callable:
    """The pulse forcing that generated the example2 data.

    A Lorentzian in time centred at t = 1/6, carried by the decaying sine.
    Feeding this into the state equation from u0 = sin(pi x) yields exactly
    example2_data; the assimilation model in example2 omits it.
    """
    rate = np.pi * np.pi * nu

    def inflow(t, x):
        return 2.0 * np.sin(np.pi * x) * (np.exp(-rate * t) * _pulse(t, eps))

    return inflow


def example2_data(nu: float = 0.1, eps: float = 0.01) -> Callable:
    """Closed-form data trajectory of example2."""
    rate = np.pi * np.pi * nu

    def y_d(t, x):
        return 2.0 * np.sin(np.pi * x) * (np.exp(-rate * t) * _arctan_ramp(t, eps))

    return y_d


def example2(alpha: float = 0.01, nu: float = 0.1, eps: float = 0.01) -> ProblemSpec:
    """Data with an unmodeled heat inflow pulse.

    The data were generated with the inflow of example2_inflow, while the
    model assimilated against keeps f = 0.  The residual f - dt y_d - A y_d
    then equals minus the inflow, which is what drives both the adjoint
    solve and the adaptive grid.

    The default alpha = 0.01 is the one the adaptive runs use: acceptance
    criteria 3a and 7, the `varda assimilate` and `varda adapt` defaults and
    the benchmark workloads.  The published before/after misfit numbers
    belong to alpha = 0.6, which acceptance criterion 2 and
    `varda reproduce example2` use instead.
    """
    _require_positive(nu=nu, eps=eps)
    rate = np.pi * np.pi * nu
    y_d = example2_data(nu, eps)

    # y_d = 2 sin(pi x) e^{-rate t} ramp(t) with ramp' = pulse, factored as in y_d.
    def y_d_t(t, x):
        decay = np.exp(-rate * t)
        return 2.0 * np.sin(np.pi * x) * (decay * (_pulse(t, eps) - rate * _arctan_ramp(t, eps)))

    def ay_d(t, x):
        return 2.0 * np.sin(np.pi * x) * (rate * np.exp(-rate * t) * _arctan_ramp(t, eps))

    def y_b(x):
        return np.sin(np.pi * x)

    return _unit_square(alpha, nu, _zero, y_d, y_d_t, ay_d, y_b)


def _ramp(t, m: float, eps: float, order: int) -> list:
    """[sigma, sigma', ...] up to the order-th time derivative (order <= 2) of bump_sigma.

    Each side of the ramp, w = 0.5 - s and v = 0.5 + s with s = (t - m) / eps,
    takes one exp: g(u) = exp(-1/u) for u > 0 and zero otherwise, with
    g' = g / u^2 and g'' = g (1 - 2u) / u^4.  The clamp of u to 1e-3 is
    exact: for 0 < u <= 1e-3, exp(-1/u) already underflows to 0.0 in double
    precision, and for u <= 0 the clamped exp(-1000) is exactly g's +0.0, so
    the clamp changes no value and keeps the derivatives free of 0/0.
    """
    s = (np.asarray(t, dtype=float) - m) / eps
    sides = []
    for u in (0.5 - s, 0.5 + s):
        safe = np.maximum(u, 1e-3)
        g = [np.exp(-1.0 / safe)]
        if order >= 1:
            g.append(g[0] / (safe * safe))
        if order >= 2:
            g.append(g[0] * (1.0 - 2.0 * safe) / safe**4)
        sides.append(g)
    (gw, gv), *derivatives = zip(*sides)
    den = gw + gv
    out = [gw / den]
    if order >= 1:
        gw1, gv1 = derivatives[0]
        cross = gw1 * gv + gw * gv1
        out.append(-(1.0 / eps) * cross / (den * den))
    if order >= 2:
        gw2, gv2 = derivatives[1]
        numer = (gw * gv2 - gw2 * gv) * den - 2.0 * cross * (gv1 - gw1)
        out.append(-(1.0 / (eps * eps)) * numer / den**3)
    return out


def bump_sigma(t, m: float, eps: float):
    """Smooth ramp from 1 to 0 across [m - eps/2, m + eps/2].

    sigma is exactly 1 for t <= m - eps/2 and exactly 0 for t >= m + eps/2.
    """
    return _ramp(t, m, eps, 0)[0]


def bump_sigma_dt(t, m: float, eps: float):
    """First time derivative of bump_sigma."""
    return _ramp(t, m, eps, 1)[1]


def bump_sigma_dtt(t, m: float, eps: float):
    """Second time derivative of bump_sigma."""
    return _ramp(t, m, eps, 2)[2]


def example3(
    alpha: float = 1.0,
    nu: float = 0.1,
    m: float = 0.5,
    eps: float = 0.5,
) -> tuple[ProblemSpec, Callable]:
    """Manufactured problem with a closed-form bump adjoint.

    The exact adjoint is p(t, x) = sigma(t) sin(pi x) with sigma the smooth
    ramp of bump_sigma.  The data are chosen so that p solves the coupled
    optimality system exactly: y_d is the time derivative of p and the
    forcing absorbs the remaining terms.  Returns the problem and the exact
    adjoint as a callable.

    The ramp itself spans [m - eps/2, m + eps/2]; the check below requires
    the wider interval [m - eps, m + eps] to sit inside the horizon.
    """
    _require_positive(nu=nu, eps=eps)
    if not (0.0 <= m - eps and m + eps <= 1.0):
        raise ValueError(
            f"the ramp [{m - eps}, {m + eps}] must sit inside the horizon [0, 1]"
        )
    rate = np.pi * np.pi * nu
    sigma0 = float(bump_sigma(0.0, m, eps))

    def exact_p(t, x):
        return bump_sigma(t, m, eps) * np.sin(np.pi * x)

    def f(t, x):
        s, s1 = _ramp(t, m, eps, 1)
        return (rate * rate * s + rate * s1) * np.sin(np.pi * x)

    def y_d(t, x):
        return bump_sigma_dt(t, m, eps) * np.sin(np.pi * x)

    def y_d_t(t, x):
        return bump_sigma_dtt(t, m, eps) * np.sin(np.pi * x)

    def ay_d(t, x):
        return (rate * bump_sigma_dt(t, m, eps)) * np.sin(np.pi * x)

    def y_b(x):
        return (1.0 / alpha + rate) * sigma0 * np.sin(np.pi * x)

    return _unit_square(alpha, nu, f, y_d, y_d_t, ay_d, y_b), exact_p


def consistent_problem(alpha: float = 0.01, nu: float = 0.1) -> ProblemSpec:
    """Data that the model reproduces exactly from the background guess.

    The optimal control is the guess itself and the adjoint vanishes, so
    this problem pins down the trivial-solution behavior of every stage.
    """

    def y_b(x):
        return np.sin(np.pi * x)

    return replace(example1("i", alpha=alpha, nu=nu), y_b=y_b)


# Problem name -> its constructor; a name's parameters are its constructor's keywords.
CATALOG = {
    "example1i": partial(example1, "i"),
    "example1ii": partial(example1, "ii"),
    "example2": example2,
    "example3": example3,
    "consistent": consistent_problem,
}


def parameters(name: str) -> dict[str, float]:
    """The keyword parameters of name's constructor, with their defaults."""
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}, known: {', '.join(CATALOG)}")
    return {p.name: p.default for p in inspect.signature(CATALOG[name]).parameters.values()}


def build(name: str, **params) -> tuple[ProblemSpec, Callable | None]:
    """Construct a catalog problem by CLI name; returns it and its exact adjoint closure, or None.

    ValueError names an unknown name, or the first in sorted order of the parameters its
    constructor does not take.  The constructors and ProblemSpec check the values.
    """
    extra = sorted(set(params) - set(parameters(name)))
    if extra:
        raise ValueError(f"problem {name!r} does not take problem.{extra[0]}")
    made = CATALOG[name](**params)
    return made if isinstance(made, tuple) else (made, None)
