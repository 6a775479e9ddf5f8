"""End-to-end assimilation pipeline and its problem description.

A ProblemSpec bundles the operator coefficients, the data callbacks, and the
trust coefficient.  The pipeline solves the space-time system for the
adjoint pair, extracts the optimal initial state, replays the state equation
from it, and reports the root-mean-square misfit against the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import elliptic, fem1d, forward
from .mesh import SpaceTimeField, SpatialMesh, TimeGrid

__all__ = [
    "ProblemSpec",
    "AssimilationResult",
    "assimilate",
    "project_box",
    "rmse",
    "mse_initial",
]

_SPOT_CHECK_POINTS = 20
# Steps of the R2 low-discrepancy sequence (the inverse of the plastic number and its square):
# spot-check point k sits at k * step mod 1 of the box in t and in x.  The points cover the box
# evenly and need no numpy.random, whose import takes about 9 ms at start-up.
_SPOT_CHECK_STEPS = (0.7548776662466927, 0.5698402909980532)
# Step of the finite difference in x that checks Ay_d, relative to the domain.
_OPERATOR_STEP = 1e-4


def _check_broadcasting(spec: "ProblemSpec") -> None:
    # Each row of a tensor-grid sample must equal a call at that scalar t.
    t = np.linspace(0.0, spec.T, 3)
    x = np.linspace(*spec.domain, 5)
    for name in ("f", "y_d", "y_d_t", "Ay_d"):
        fun = getattr(spec, name)
        try:
            grid = fem1d.sample(fun, t, x)
            rows = [np.broadcast_to(np.asarray(fun(float(ti), x), float), x.shape) for ti in t]
        except Exception as exc:
            raise ValueError(f"{name} fails on a tensor grid of t and x: {exc}") from exc
        if not np.max(np.abs(grid - rows)) <= 1e-12 * np.max(np.abs(rows)):
            raise ValueError(f"{name} does not broadcast: its tensor-grid rows differ from scalar-t calls")


def _check_time_derivative(spec: "ProblemSpec", t, x, step: float) -> None:
    # Guards against a y_d_t callback that does not differentiate y_d.
    exact = np.broadcast_to(np.asarray(spec.y_d_t(t, x), float), t.shape)
    k = np.array([-2.0, -1.0, 1.0, 2.0])[:, None]
    y = np.broadcast_to(np.asarray(spec.y_d(t + k * step, x), float), (4,) + t.shape)
    fd = (y[0] - 8.0 * y[1] + 8.0 * y[2] - y[3]) / (12.0 * step)
    scale = np.max(np.abs(exact)) if np.any(exact) else 0.0
    denom = np.maximum(np.abs(exact), 1e-6 * (1.0 + scale))
    worst = np.max(np.abs(fd - exact) / denom)
    if not worst <= 1e-4:
        raise ValueError(
            f"y_d_t disagrees with a finite difference of y_d "
            f"(relative mismatch {worst:.2e} at sampled points)"
        )


def _check_operator(spec: "ProblemSpec", t, x, h: float) -> None:
    # Guards against an Ay_d callback that does not apply -(a v')' + a0 v to
    # y_d: flux-form central difference in x with a at the half steps.
    exact = np.broadcast_to(np.asarray(spec.Ay_d(t, x), float), t.shape)
    k = np.array([-1.0, 0.0, 1.0])[:, None]
    y = np.broadcast_to(np.asarray(spec.y_d(t, x + k * h), float), (3,) + t.shape)
    a_left = fem1d._coefficient_at(spec.a, x - 0.5 * h)
    a_right = fem1d._coefficient_at(spec.a, x + 0.5 * h)
    flux_jump = a_right * (y[2] - y[1]) - a_left * (y[1] - y[0])
    fd = -flux_jump / (h * h) + fem1d._coefficient_at(spec.a0, x) * y[1]
    width = spec.domain[1] - spec.domain[0]
    # The operator's own size, a |y_d| / width^2, bounds the rounding error.
    scale = np.max(np.abs(exact)) + np.max(a_left) * np.max(np.abs(y)) / width**2
    worst = np.max(np.abs(fd - exact))
    if not worst <= 1e-4 * scale:
        raise ValueError(
            f"Ay_d disagrees with a finite difference of -(a y_d')' + a0 y_d "
            f"(mismatch {worst:.2e} against a scale of {scale:.2e} at sampled points)"
        )


def _check_callbacks(spec: "ProblemSpec") -> None:
    _check_broadcasting(spec)
    u, v = np.outer(_SPOT_CHECK_STEPS, np.arange(1, _SPOT_CHECK_POINTS + 1)) % 1.0
    step = 1e-5 * spec.T
    t = 2.0 * step + (spec.T - 4.0 * step) * u
    x_left, x_right = spec.domain
    h = _OPERATOR_STEP * (x_right - x_left)
    x = x_left + h + (x_right - x_left - 2.0 * h) * v
    _check_time_derivative(spec, t, x, step)
    _check_operator(spec, t, x, h)


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, data callbacks, and weights of one assimilation problem.

    a, a0 and y_b take x; f, y_d, y_d_t and Ay_d take (t, x), where t and x
    are arrays that broadcast against each other.  fem1d.sample calls a
    (t, x) callback once for a whole tensor grid, so its values must be
    elementwise in (t, x): no reduction over an axis, no math.exp(t).  A
    scalar or x-shaped result is broadcast; values must be finite.  Form the
    factors of t alone and of x alone first, then take one product on the
    grid: each further product is a full pass over t.size * x.size values
    (example2's data residual at d=N=200 took 10 ms with 11, 4 ms with 4).

    y_d_t is the time derivative of y_d and Ay_d is -(a y_d')' + a0 y_d.
    Construction raises ValueError unless alpha, T and the domain are valid,
    every (t, x) callback sampled on a small tensor grid matches calls at
    scalar t row by row, and, at 20 low-discrepancy points, y_d_t matches a
    finite difference of y_d in t and Ay_d a flux-form one in x.  So a
    mismatched callback fails fast instead of poisoning every solve.
    """

    a: Callable
    a0: Callable
    alpha: float
    T: float
    domain: tuple[float, float]
    f: Callable
    y_d: Callable
    y_d_t: Callable
    Ay_d: Callable
    y_b: Callable

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError(f"trust coefficient alpha must be positive, got {self.alpha}")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        x_left, x_right = self.domain
        if not x_left < x_right:
            raise ValueError(f"empty domain {self.domain}")
        for name in ("a", "a0", "f", "y_d", "y_d_t", "Ay_d", "y_b"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable")
        _check_callbacks(self)

    def data_residual(self, t, x) -> np.ndarray:
        """f - dt y_d - A y_d on the tensor grid t x x (see fem1d.sample)."""
        sample = fem1d.sample
        return sample(self.f, t, x) - sample(self.y_d_t, t, x) - sample(self.Ay_d, t, x)


@dataclass(frozen=True)
class AssimilationResult:
    """Adjoint pair, extracted control, replayed state, and the misfit."""

    p: SpaceTimeField
    q: SpaceTimeField
    u: np.ndarray
    y: SpaceTimeField
    rmse: float
    alpha: float
    solver_residual: float


def assimilate(
    problem: ProblemSpec,
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    *,
    space: fem1d.SpatialOperatorMatrices | None = None,
) -> AssimilationResult:
    """Run the full pipeline on the given grids.

    Solves the space-time system for the adjoint pair (p, q), forms the
    optimal initial state u = y_b - p(0)/alpha at interior nodes (zero on
    the boundary, matching the homogeneous state space), replays the state
    equation from u by Crank-Nicolson, and scores the trajectory against
    y_d.  space is the run's spatial operator on smesh, which fixes the
    quadrature order; without one, a space of order 3 is built.
    """
    if space is None:
        space = fem1d.assemble_spatial_matrices(smesh, problem.a, problem.a0)
    system = elliptic.assemble(problem, smesh, tgrid, quad_order=space.quad.order, space=space)
    sol = elliptic.solve_sparse(system)

    p0 = sol.p.values[0]
    u = np.zeros(smesh.d + 1)
    inner = smesh.interior
    u[inner] = fem1d._coefficient_at(problem.y_b, smesh.nodes[inner]) - p0[inner] / problem.alpha

    y = forward.solve_state(problem, u, tgrid, space)

    return AssimilationResult(
        p=sol.p,
        q=sol.q,
        u=u,
        y=y,
        rmse=rmse(y, problem.y_d),
        alpha=problem.alpha,
        solver_residual=sol.solver_residual,
    )


def project_box(g, lower, upper) -> np.ndarray:
    """Clamp nodal values into [lower, upper] nodewise."""
    g = np.asarray(g, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), g.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), g.shape)
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound at some node")
    return np.minimum(np.maximum(g, lower), upper)


def rmse(y: SpaceTimeField, y_ref: Callable) -> float:
    """Root-mean-square nodal misfit against an analytic reference.

    The mean runs over every node of the space-time grid, so a constant
    offset c comes back as exactly |c|.  The reference is evaluated
    analytically at the nodes rather than pre-sampled.
    """
    diff = fem1d.sample(y_ref, y.tgrid.taus, y.smesh.nodes) - y.values
    return float(np.sqrt(np.mean(diff * diff)))


def mse_initial(p0, p0_ref) -> float:
    """Mean-square nodal difference of two initial-time slices."""
    p0 = np.asarray(p0, dtype=float)
    p0_ref = np.asarray(p0_ref, dtype=float)
    if p0.shape != p0_ref.shape:
        raise ValueError(f"shape mismatch {p0.shape} vs {p0_ref.shape}")
    diff = p0_ref - p0
    return float(diff @ diff) / p0.size
