"""Per-interval error indicators, marking, and the adaptive refinement loop.

The indicator for interval I_i is

    eta_i^2 = (dtau_i)^2 * integral over I_i x Omega of
              (f - dt y_d - A y_d + p_tt - A q)^2

With piecewise-linear elements p_tt vanishes on every element and the
second-derivative part of A q does too, so the indicator is computable from
the data alone, before any solve.  compute_indicators therefore accepts the
solution or None; the data-only route is what lets the loop build a grid
without solving once per cycle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import elliptic, fem1d
from .assimilation import ProblemSpec
from .mesh import SpatialMesh, TimeGrid, build_uniform_time_grid, bisect_intervals

__all__ = [
    "ErrorIndicators",
    "AdaptConfig",
    "CycleRecord",
    "AdaptHistory",
    "compute_indicators",
    "mark",
    "adapt_loop",
    "uniform_initial_errors",
    "format_history_csv",
]

_STRATEGIES = ("MAX", "DOERFLER")

# Sub-panels per time interval in compute_indicators.  Coarse intervals can be
# much wider than the data features; one Gauss rule per interval misranks them.
_TIME_PANELS = 16


@dataclass(frozen=True)
class ErrorIndicators:
    """Squared per-interval indicators and their sum."""

    per_interval: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.per_interval, dtype=float, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "per_interval", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("need a nonempty 1-D indicator array")
        if np.any(vals < 0.0):
            raise ValueError("squared indicators cannot be negative")

    @property
    def total(self) -> float:
        return float(np.sum(self.per_interval))


@dataclass(frozen=True)
class AdaptConfig:
    """Marking strategy and loop bounds.

    strategy MAX bisects the single worst interval per cycle; DOERFLER
    bisects a minimal set carrying at least theta_mark of the total squared
    indicator.  Errors name the CLI keys (adapt.theta for theta_mark), since
    `varda adapt` reports them as they are.
    """

    strategy: str = "MAX"
    theta_mark: float = 0.5
    n_initial: int = 5
    n_max: int = 40
    record_reference_error: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown adapt.strategy {self.strategy!r}, use MAX or DOERFLER"
            )
        if not 0.0 < self.theta_mark < 1.0:
            raise ValueError(f"adapt.theta must lie in (0, 1), got {self.theta_mark}")
        if self.n_initial < 1:
            raise ValueError(f"adapt.n_initial must be at least 1, got {self.n_initial}")
        if self.n_initial > self.n_max:
            raise ValueError(
                f"adapt.n_initial {self.n_initial} exceeds adapt.n_max {self.n_max}"
            )


@dataclass(frozen=True)
class CycleRecord:
    """State of one adaptive cycle: grid, indicators, optional true error."""

    cycle: int
    n_intervals: int
    taus: np.ndarray
    eta_sq: np.ndarray
    eta_total: float
    true_error: float | None


@dataclass
class AdaptHistory:
    """Cycle records in order; N is strictly increasing across cycles."""

    cycles: list[CycleRecord] = field(default_factory=list)

    def append(self, record: CycleRecord) -> None:
        if self.cycles and record.n_intervals <= self.cycles[-1].n_intervals:
            raise ValueError("interval count must strictly increase per cycle")
        self.cycles.append(record)


def compute_indicators(
    problem: ProblemSpec,
    sol: elliptic.EllipticSolution | None,
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
) -> ErrorIndicators:
    """Tensor-Gauss evaluation of the squared indicators.

    When sol is given, the elementwise contributions of the discrete
    solution enter the integrand: p_tt is identically zero on linear
    elements, and A q reduces to the first-order part a'(x) q_x minus
    nothing plus a0(x) q, the second derivative of q vanishing per element.
    For constant diffusion and zero reaction these contributions vanish and
    the result matches the data-only route exactly.

    Each interval is integrated with composite Gauss over fixed sub-panels:
    early in a refinement run the intervals are much wider than the data
    features they are supposed to detect, and a single rule per interval
    can miss a spike entirely and misrank the intervals.
    """
    quad = fem1d.spatial_quadrature(smesh, quad_order)
    xg, h = quad.x, smesh.h
    t, w_t, lam = fem1d.time_quadrature(tgrid, quad_order, panels=_TIME_PANELS)

    if sol is not None:
        delta = 1e-6 * (smesh.x_right - smesh.x_left)
        a_hi = fem1d._coefficient_at(problem.a, xg + delta)
        a_lo = fem1d._coefficient_at(problem.a, xg - delta)
        da = (a_hi - a_lo) / (2.0 * delta)
        a0_vals = fem1d._coefficient_at(problem.a0, xg)
        q_vals = sol.q.values

    # One interval at a time, so the sampled data never scale with N.
    eta_sq = np.zeros(tgrid.N)
    for i in range(tgrid.N):
        g = problem.data_residual(t[i], xg)
        if sol is not None:
            lam_i = lam[i][:, None]
            q_slice = (1.0 - lam_i) * q_vals[i] + lam_i * q_vals[i + 1]
            q_at = q_slice[:, :-1, None] * quad.phi[0] + q_slice[:, 1:, None] * quad.phi[1]
            q_x = (np.diff(q_slice, axis=1) / h)[:, :, None]
            # p_tt is zero on every element; A q contributes the rest.
            g += da * q_x - a0_vals * q_at
        dt = tgrid.deltas[i]
        eta_sq[i] = dt * dt * (w_t[i] @ ((g * g) @ quad.w).sum(axis=1))
    return ErrorIndicators(per_interval=eta_sq)


def mark(ind: ErrorIndicators, cfg: AdaptConfig) -> set[int]:
    """Pick the intervals to bisect; empty set when nothing is left to do."""
    vals = ind.per_interval
    if not np.any(vals > 0.0):
        return set()
    if cfg.strategy == "MAX":
        return {int(np.argmax(vals))}
    threshold = cfg.theta_mark * ind.total
    chosen: set[int] = set()
    acc = 0.0
    # Descending by value, ascending index among ties.
    for idx in np.lexsort((np.arange(vals.size), -vals)):
        chosen.add(int(idx))
        acc += float(vals[idx])
        if acc >= threshold:
            break
    return chosen


def _reference_solver(
    problem: ProblemSpec, smesh: SpatialMesh, n_reference: int, quad_order: int
) -> Callable[[TimeGrid], tuple[elliptic.EllipticSolution, float]]:
    """Solve once on a uniform grid of n_reference intervals.

    Returns a function that solves on a given grid and also returns the
    L2(Omega) gap of its p(0) to the reference p(0).
    """
    ref_grid = build_uniform_time_grid(problem.T, n_reference)
    ref_sys = elliptic.assemble(problem, smesh, ref_grid, quad_order=quad_order)
    reference_p0 = elliptic.solve_sparse(ref_sys).p.values[0]
    mass = fem1d.assemble_spatial_matrices(
        smesh, problem.a, problem.a0, quad_order=quad_order
    ).M

    def solve_with_error(tgrid: TimeGrid) -> tuple[elliptic.EllipticSolution, float]:
        system = elliptic.assemble(problem, smesh, tgrid, quad_order=quad_order)
        sol = elliptic.solve_sparse(system)
        diff = reference_p0 - sol.p.values[0]
        return sol, float(np.sqrt(diff @ (mass @ diff)))

    return solve_with_error


def adapt_loop(
    problem: ProblemSpec,
    smesh: SpatialMesh,
    cfg: AdaptConfig,
    *,
    quad_order: int = 3,
) -> tuple[TimeGrid, AdaptHistory]:
    """Run estimate, mark, bisect from a uniform start until done.

    Stops once the grid has at least n_max intervals or nothing is marked.
    With record_reference_error the loop also solves the space-time system
    every cycle and records the L2 gap of p(0) against a solve on a uniform
    grid with 4 * n_max intervals; otherwise no solve happens at all, the
    indicators being computable from the data.
    """
    tgrid = build_uniform_time_grid(problem.T, cfg.n_initial)
    history = AdaptHistory()

    solve_with_error = None
    if cfg.record_reference_error:
        solve_with_error = _reference_solver(problem, smesh, 4 * cfg.n_max, quad_order)

    cycle = 0
    while True:
        sol = None
        true_error = None
        if solve_with_error is not None:
            sol, true_error = solve_with_error(tgrid)

        ind = compute_indicators(problem, sol, smesh, tgrid, quad_order=quad_order)
        history.append(
            CycleRecord(
                cycle=cycle,
                n_intervals=tgrid.N,
                taus=tgrid.taus.copy(),
                eta_sq=ind.per_interval.copy(),
                eta_total=float(np.sqrt(ind.total)),
                true_error=true_error,
            )
        )
        if tgrid.N >= cfg.n_max:
            break
        marks = mark(ind, cfg)
        if not marks:
            break
        tgrid = bisect_intervals(tgrid, marks)
        cycle += 1

    return tgrid, history


def uniform_initial_errors(
    problem: ProblemSpec,
    smesh: SpatialMesh,
    counts: Iterable[int],
    n_reference: int,
    *,
    quad_order: int = 3,
) -> np.ndarray:
    """L2(Omega) gaps of p(0) on uniform grids against a finer uniform solve.

    Companion to the record_reference_error bookkeeping of adapt_loop: same
    reference resolution and same norm, so the adaptive and uniform columns
    of an error-vs-N comparison are measured identically.
    """
    solve_with_error = _reference_solver(problem, smesh, n_reference, quad_order)
    return np.asarray(
        [solve_with_error(build_uniform_time_grid(problem.T, int(n)))[1] for n in counts]
    )


def format_history_csv(history: AdaptHistory) -> str:
    """CSV rows cycle,N,eta_total,true_error (empty when not recorded)."""
    lines = ["cycle,N,eta_total,true_error"]
    for rec in history.cycles:
        err = "" if rec.true_error is None else f"{rec.true_error:.17g}"
        lines.append(f"{rec.cycle},{rec.n_intervals},{rec.eta_total:.17g},{err}")
    return "\n".join(lines) + "\n"
