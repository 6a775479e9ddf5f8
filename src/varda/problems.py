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
  exercise the adaptive grid around the ramp.
"""

from __future__ import annotations

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
    "CATALOG",
]

# Problem name -> the keyword parameters build passes on to its constructor.
CATALOG = {
    "example1i": ("alpha", "nu"),
    "example1ii": ("alpha", "nu"),
    "example2": ("alpha", "nu", "eps"),
    "example3": ("alpha", "nu", "eps", "m"),
    "consistent": ("alpha", "nu"),
}


def _require_positive(**params: float) -> None:
    # alpha is left to ProblemSpec, which checks it for every problem.
    for name, value in params.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _zero(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_coefficient(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _constant(value: float) -> Callable:
    def coefficient(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    return coefficient


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
        return -rate * y_d(t, x)

    def ay_d(t, x):
        return rate * y_d(t, x)

    if variant == "i":
        def y_b(x):
            return 0.25 - (x - 0.5) ** 2
    else:
        def y_b(x):
            return np.sin(2.0 * np.pi * x)

    return ProblemSpec(
        a=_constant(nu),
        a0=_zero_coefficient,
        alpha=alpha,
        T=1.0,
        domain=(0.0, 1.0),
        f=_zero,
        y_d=y_d,
        y_d_t=y_d_t,
        Ay_d=ay_d,
        y_b=y_b,
    )


def example2_inflow(nu: float = 0.1, eps: float = 0.01) -> Callable:
    """The pulse forcing that generated the example2 data.

    A Lorentzian in time centred at t = 1/6, carried by the decaying sine.
    Feeding this into the state equation from u0 = sin(pi x) yields exactly
    example2_data; the assimilation model in example2 omits it.
    """
    rate = np.pi * np.pi * nu

    def inflow(t, x):
        pulse = (1.0 / np.pi) * eps / (eps * eps + (t - 1.0 / 6.0) ** 2)
        return 2.0 * np.sin(np.pi * x) * np.exp(-rate * t) * pulse

    return inflow


def example2_data(nu: float = 0.1, eps: float = 0.01) -> Callable:
    """Closed-form data trajectory of example2."""
    rate = np.pi * np.pi * nu

    def y_d(t, x):
        ramp = (1.0 / np.pi) * np.arctan((t - 1.0 / 6.0) / eps) + 1.0
        return 2.0 * np.sin(np.pi * x) * np.exp(-rate * t) * ramp

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
    inflow = example2_inflow(nu, eps)

    def y_d_t(t, x):
        return -rate * y_d(t, x) + inflow(t, x)

    def ay_d(t, x):
        return rate * y_d(t, x)

    def y_b(x):
        return np.sin(np.pi * x)

    return ProblemSpec(
        a=_constant(nu),
        a0=_zero_coefficient,
        alpha=alpha,
        T=1.0,
        domain=(0.0, 1.0),
        f=_zero,
        y_d=y_d,
        y_d_t=y_d_t,
        Ay_d=ay_d,
        y_b=y_b,
    )


# The clamp below is exact: for 0 < u <= 1e-3 the value exp(-1/u) already
# underflows to 0.0 in double precision, so replacing u keeps the result
# bit-identical while avoiding 0/0 in the derivative formulas.
def _bump(u):
    """Smooth cutoff exp(-1/u) for u > 0, zero otherwise."""
    u = np.asarray(u, dtype=float)
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe), 0.0)


def _bump_d1(u):
    u = np.asarray(u, dtype=float)
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe) / (safe * safe), 0.0)


def _bump_d2(u):
    u = np.asarray(u, dtype=float)
    safe = np.maximum(u, 1e-3)
    return np.where(u > 0.0, np.exp(-1.0 / safe) * (1.0 - 2.0 * safe) / safe**4, 0.0)


def bump_sigma(t, m: float, eps: float):
    """Smooth ramp from 1 to 0 across [m - eps/2, m + eps/2].

    sigma is exactly 1 for t <= m - eps/2 and exactly 0 for t >= m + eps/2.
    """
    s = (np.asarray(t, dtype=float) - m) / eps
    down = _bump(0.5 - s)
    up = _bump(0.5 + s)
    return down / (down + up)


def bump_sigma_dt(t, m: float, eps: float):
    """First time derivative of bump_sigma."""
    s = (np.asarray(t, dtype=float) - m) / eps
    w = 0.5 - s
    v = 0.5 + s
    den = _bump(w) + _bump(v)
    cross = _bump_d1(w) * _bump(v) + _bump(w) * _bump_d1(v)
    return -(1.0 / eps) * cross / (den * den)


def bump_sigma_dtt(t, m: float, eps: float):
    """Second time derivative of bump_sigma."""
    s = (np.asarray(t, dtype=float) - m) / eps
    w = 0.5 - s
    v = 0.5 + s
    gw, gv = _bump(w), _bump(v)
    gw1, gv1 = _bump_d1(w), _bump_d1(v)
    gw2, gv2 = _bump_d2(w), _bump_d2(v)
    den = gw + gv
    cross = gw1 * gv + gw * gv1
    numer = (gw * gv2 - gw2 * gv) * den - 2.0 * cross * (gv1 - gw1)
    return -(1.0 / (eps * eps)) * numer / den**3


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
        s = bump_sigma(t, m, eps)
        s1 = bump_sigma_dt(t, m, eps)
        return (rate * rate * s + rate * s1) * np.sin(np.pi * x)

    def y_d(t, x):
        return bump_sigma_dt(t, m, eps) * np.sin(np.pi * x)

    def y_d_t(t, x):
        return bump_sigma_dtt(t, m, eps) * np.sin(np.pi * x)

    def ay_d(t, x):
        return rate * y_d(t, x)

    def y_b(x):
        return (1.0 / alpha + rate) * sigma0 * np.sin(np.pi * x)

    spec = ProblemSpec(
        a=_constant(nu),
        a0=_zero_coefficient,
        alpha=alpha,
        T=1.0,
        domain=(0.0, 1.0),
        f=f,
        y_d=y_d,
        y_d_t=y_d_t,
        Ay_d=ay_d,
        y_b=y_b,
    )
    return spec, exact_p


def consistent_problem(alpha: float = 0.01, nu: float = 0.1) -> ProblemSpec:
    """Data that the model reproduces exactly from the background guess.

    The optimal control is the guess itself and the adjoint vanishes, so
    this problem pins down the trivial-solution behavior of every stage.
    """
    spec = example1("i", alpha=alpha, nu=nu)

    def y_b(x):
        return np.sin(np.pi * x)

    return ProblemSpec(
        a=spec.a,
        a0=spec.a0,
        alpha=alpha,
        T=spec.T,
        domain=spec.domain,
        f=spec.f,
        y_d=spec.y_d,
        y_d_t=spec.y_d_t,
        Ay_d=spec.Ay_d,
        y_b=y_b,
    )


def build(name: str, **params) -> tuple[ProblemSpec, Callable | None]:
    """Construct a catalog problem by CLI name.

    Returns the problem and, when one exists, the exact adjoint closure.
    Parameters outside the name's CATALOG entry raise TypeError.
    """
    if name == "example1i":
        return example1("i", **params), None
    if name == "example1ii":
        return example1("ii", **params), None
    if name == "example2":
        return example2(**params), None
    if name == "example3":
        return example3(**params)
    if name == "consistent":
        return consistent_problem(**params), None
    raise ValueError(f"unknown problem {name!r}, known: {', '.join(CATALOG)}")
