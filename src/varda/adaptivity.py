"""Per-interval error indicators, marking, and the adaptive refinement loop.

The indicator for interval I_i is

    eta_i^2 = (dtau_i)^2 * integral over I_i x Omega of
              (f - dt y_d - A y_d + p_tt - A q)^2

With piecewise-linear elements p_tt vanishes on every element and the
second-derivative part of A q does too.  For constant a and a0 = 0, as on
every catalog problem, A q is zero as well and the indicator is computable
from the data alone, before any solve.  compute_indicators accepts the
solution or None; with a solution and variable a or nonzero a0 it adds
-A q = a' q_x - a0 q.  adapt_loop always marks on the data-only indicator,
so recording reference errors only measures the grids it builds.

adapt_loop samples each interval's data once and keeps only its moments (see
_Integrand); each cycle then costs O(N d q).  It samples in rounds: when a
cycle has live intervals not yet sampled, one call takes them together with
the halves of the intervals that the next cycles are predicted to bisect.
With exact integrals half of an interval carries at most a quarter of its
eta^2, so an unmarked interval above a quarter of the cycle's largest eta^2
outranks every half of the cycle's marks, and MAX marks it before them.  The
16-panel rule only approximates those integrals, so a wrong prediction can
cost samples that never go live, but never a value: every cycle still marks
on its own eta.  The reference route's solves all run after the loop, on the
cycles' own grids and the uniform ones, packed in order of N into batches
of at most _LANE_BUDGET lane values (elliptic.assemble_batch and solve_batch).
elliptic samples each load interval once; the route reads only each p(0).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import elliptic, fem1d
from .assimilation import ProblemSpec
from .mesh import SpatialMesh, TimeGrid, bisect_intervals, build_uniform_time_grid

__all__ = [
    "ErrorIndicators",
    "AdaptConfig",
    "CycleRecord",
    "AdaptHistory",
    "compute_indicators",
    "mark",
    "adapt_loop",
    "uniform_initial_errors",
]

_STRATEGIES = ("MAX", "DOERFLER")

# Lane values (time rows x lanes x interior nodes) that one batch of the reference
# route may fill; a grid over it goes alone.  BENCH_lane_budget.json has the sweep.
_LANE_BUDGET = 50_000

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
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"indicator of interval {bad} is not finite: {vals[bad]}")
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
    `varda adapt` reports them as they are.  record_reference_error only
    measures: it adds the p(0) errors to the records and never changes the
    indicators, the marks or the grids.
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
    """One cycle: grid, indicators, and the p(0) errors of it and of the uniform grid (or None)."""

    cycle: int
    n_intervals: int
    taus: np.ndarray
    eta_sq: np.ndarray
    eta_total: float
    true_error: float | None
    uniform_error: float | None


@dataclass
class AdaptHistory:
    """Cycle records in order; N is strictly increasing across cycles."""

    cycles: list[CycleRecord] = field(default_factory=list)

    def append(self, record: CycleRecord) -> None:
        if self.cycles and record.n_intervals <= self.cycles[-1].n_intervals:
            raise ValueError("interval count must strictly increase per cycle")
        self.cycles.append(record)


class _Integrand:
    """The indicator's integrand on one spatial mesh, reduced to moments in time.

    sample takes the data residual g = f - dt y_d - A y_d on a batch of
    intervals, moments reduces it to each one's (e, m), and eta_sq scores
    every interval from those.  a'(x) and a0(x), which only -A q needs, are
    sampled on first use and kept.  Overflow is left to ErrorIndicators,
    which rejects the non-finite result.
    """

    def __init__(self, problem: ProblemSpec, smesh: SpatialMesh, quad_order: int) -> None:
        self.problem = problem
        self.smesh = smesh
        self.quad = fem1d.spatial_quadrature(smesh, quad_order)

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """a'(x) by central differences and a0(x), at the Gauss points."""
        xg = self.quad.x
        delta = 1e-6 * (self.smesh.x_right - self.smesh.x_left)
        a_hi = fem1d._coefficient_at(self.problem.a, xg + delta)
        a_lo = fem1d._coefficient_at(self.problem.a, xg - delta)
        return (a_hi - a_lo) / (2.0 * delta), fem1d._coefficient_at(self.problem.a0, xg)

    @cached_property
    def hat_products(self) -> np.ndarray:
        """The time rule's integrals of (1 - lam)^2, (1 - lam) lam and lam^2 over [0, 1]."""
        _, (w,), (lam,) = fem1d.time_quadrature([0.0], [1.0], self.quad.order, panels=_TIME_PANELS)
        return np.stack(((1.0 - lam) ** 2, (1.0 - lam) * lam, lam * lam)) @ w

    def moments(self, g, w, dt, lam=None) -> list[tuple[float, np.ndarray | None]]:
        """Each interval's (e, m): dt^2 times the integral of g^2, and the integrals of (1 - lam) g and lam g.

        g, shaped (n, nt) + quad.x.shape, holds g at n intervals' time nodes,
        w their weights, dt their lengths and lam their nodes' place in each.
        One pass reduces g^2 in space for all n; each e then takes its own dot
        in time, so it has the same bits whichever intervals share the pass.
        e is the data-only eta^2; m is None without lam, as in adapt_loop.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            s = ((g * g) @ self.quad.w).sum(axis=2)
            e = [dt_i * dt_i * (w_i @ s_i) for dt_i, w_i, s_i in zip(dt, w, s)]
            if lam is None:
                return [(e_i, None) for e_i in e]
            return [(e_i, np.tensordot(np.stack((1.0 - lam_i, lam_i)) * w_i, g_i, 1))
                    for e_i, g_i, w_i, lam_i in zip(e, g, w, lam)]

    def sample(self, keys, rows: bool = False) -> list[tuple[float, np.ndarray | None]]:
        """The moments of the intervals keys, (t0, t1) each, from one data_residual call; m only with rows."""
        t0, t1 = np.array(keys).T
        t, w, lam = fem1d.time_quadrature(t0, t1 - t0, self.quad.order, panels=_TIME_PANELS)
        return self.moments(self.problem.data_residual(t, self.quad.x), w, t1 - t0, lam if rows else None)

    def eta_sq(self, moments, dt: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
        """dt^2 times the integral of (g - A q)^2 over each interval, from its moments.

        moments holds the N intervals' (e, m), dt their lengths and q, if
        given, the solution's nodal rows at the N + 1 time nodes.  r = -A q =
        a' q_x - a0 q is linear in time on an interval, from r_i to r_(i+1),
        so the integral of (g + r)^2 is that of g^2 plus 2 (r_i m_0 + r_(i+1)
        m_1) + dt (c_0 r_i^2 + 2 c_1 r_i r_(i+1) + c_2 r_(i+1)^2), c = hat_products.
        """
        e, m = zip(*moments)
        if q is None:
            return np.array(e)
        with np.errstate(over="ignore", invalid="ignore"):
            (da, a0), phi, w = self.coefficients, self.quad.phi, self.quad.w
            q_at = q[:, :-1, None] * phi[0] + q[:, 1:, None] * phi[1]
            r = da * (np.diff(q, axis=1) / self.smesh.h)[:, :, None] - a0 * q_at
            (r0, r1), m, (c0, c1, c2) = (r[:-1], r[1:]), np.array(m), self.hat_products
            square = c0 * r0 * r0 + 2.0 * c1 * r0 * r1 + c2 * r1 * r1
            terms = 2.0 * (r0 * m[:, 0] + r1 * m[:, 1]) + dt[:, None, None] * square
            return np.array(e) + dt * dt * (terms @ w).sum(axis=1)


def compute_indicators(
    problem: ProblemSpec,
    sol: elliptic.EllipticSolution | None,
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
) -> ErrorIndicators:
    """Tensor-Gauss evaluation of the squared indicators, through _Integrand's moments.

    When sol is given, the elementwise contributions of the discrete
    solution enter the integrand: p_tt is identically zero on linear
    elements, and on each element q_xx = 0, so A q = -a'(x) q_x + a0(x) q
    and the integrand gains -A q.  For constant diffusion and zero reaction
    these contributions vanish and the result matches the data-only route
    exactly; otherwise the two routes differ.  sol must live on smesh and
    tgrid; other grids raise ValueError, and so does an indicator that
    overflows.

    Each interval is integrated with composite Gauss over fixed sub-panels:
    early in a refinement run the intervals are much wider than the data
    features they are supposed to detect, and a single rule per interval
    can miss a spike entirely and misrank the intervals.
    """
    if sol is not None and not (
        np.array_equal(sol.q.tgrid.taus, tgrid.taus)
        and np.array_equal(sol.q.smesh.nodes, smesh.nodes)
    ):
        raise ValueError("solution and indicator live on different grids")
    integrand, q = _Integrand(problem, smesh, quad_order), None if sol is None else sol.q.values
    moments = integrand.sample(tgrid.intervals, rows=q is not None)
    return ErrorIndicators(per_interval=integrand.eta_sq(moments, tgrid.deltas, q))


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
    for idx in _ranked(vals):
        chosen.add(int(idx))
        acc += float(vals[idx])
        if acc >= threshold:
            break
    return chosen


def _ranked(vals: np.ndarray) -> np.ndarray:
    """Interval indices by descending value, ascending index among ties: the order of marking."""
    return np.lexsort((np.arange(vals.size), -vals))


def _ahead(vals: np.ndarray, marks: set[int], keys, room: int) -> list[tuple[float, float]]:
    """Keys of the halves of the unmarked intervals whose eta^2 vals exceeds a quarter of the largest.

    The module docstring says why a quarter.  The intervals are taken in
    marking order, at most room of them, and each half is keyed by the
    midpoint bisect_intervals makes.
    """
    if room <= 0:
        return []
    order = _ranked(vals)
    order = order[vals[order] > 0.25 * vals[order[0]]].tolist()
    halves = []
    for t0, t1 in [keys[i] for i in order if i not in marks][:room]:
        mid = 0.5 * (t0 + t1)
        halves += [(t0, mid), (mid, t1)]
    return halves


def _reference_solver(problem: ProblemSpec, smesh: SpatialMesh, n_reference: int, quad_order: int):
    """Assemble the system on the uniform grid of n_reference intervals; return errors, scored against it.

    errors(grids) gives the L2(Omega) gaps of p(0) on each grid to the
    reference p(0), in the order of grids.  The reference fills a batch alone.
    The grids are packed in order of N, so that a batch pads little, k at a
    time while their (largest N + 1) x 2k x (d - 1) lane values stay within
    _LANE_BUDGET (4 batches for n_max = 40 at d = 40; a grid over it alone).
    Each lane is elementwise, so the packing changes no bit.  All batches
    share one dict of load rows (see elliptic.assemble_batch), so an interval
    that several grids hold, and the initial term, are sampled once.  The
    reference load is checked here, before any grid is scored.
    """
    space = fem1d.assemble_spatial_matrices(smesh, problem.a, problem.a0, quad_order=quad_order)
    rows: dict[tuple[float, float] | str, np.ndarray] = {}
    ref_grid = build_uniform_time_grid(problem.T, n_reference)
    reference = elliptic.assemble_batch(problem, space, [ref_grid], rows)

    def errors(grids: list[TimeGrid]) -> list[float]:
        ref_p0, p0 = elliptic.solve_batch(reference)[0].p0, [None] * len(grids)
        order = sorted(range(len(grids)), key=lambda i: grids[i].N)
        while order:
            lanes = (np.array([grids[i].N for i in order]) + 1) * np.arange(2, 2 * len(order) + 1, 2) * (smesh.d - 1)
            k = max(1, int(np.searchsorted(lanes, _LANE_BUDGET, side="right")))
            batch, order = order[:k], order[k:]
            systems = elliptic.assemble_batch(problem, space, [grids[i] for i in batch], rows)
            for i, sol in zip(batch, elliptic.solve_batch(systems)):
                p0[i] = sol.p0
        diffs = [ref_p0 - p for p in p0]
        return [float(np.sqrt(diff @ fem1d.tridiag_dot(*space.m_band, diff))) for diff in diffs]

    return errors


def adapt_loop(
    problem: ProblemSpec,
    smesh: SpatialMesh,
    cfg: AdaptConfig,
    *,
    quad_order: int = 3,
) -> tuple[TimeGrid, AdaptHistory]:
    """Run estimate, mark, bisect from a uniform start until done.

    Stops once the grid has at least n_max intervals or nothing is marked.
    Every cycle marks on the data-only indicator, so the grids are the same
    with and without record_reference_error.  With it, the loop records the
    L2 gaps of p(0) on every cycle's grid and on the uniform grid with as
    many intervals (cycle 0's is its own) against one solve on a uniform
    grid with 4 * n_max intervals.  Those solves all run after the last
    cycle, in batches bounded by _LANE_BUDGET (see _reference_solver);
    otherwise no solve happens at all.

    Each interval's quadrature nodes are laid out and its data sampled once,
    in rounds, and only its moments are kept.  A cycle whose grid holds
    intervals not yet sampled starts a round: one data_residual call takes
    them and the halves of the last cycle's unmarked intervals whose eta^2
    exceeds a quarter of its largest, largest first and at most n_max minus
    this grid's N of them (see _ahead).  A cycle whose intervals were all
    sampled ahead makes no call.  Indicators and solves equal fresh ones on
    every cycle's grid.
    """
    tgrid = build_uniform_time_grid(problem.T, cfg.n_initial)
    history = AdaptHistory()
    errors = None
    if cfg.record_reference_error:
        errors = _reference_solver(problem, smesh, 4 * cfg.n_max, quad_order)
    integrand = _Integrand(problem, smesh, quad_order)

    # Interval key (t0, t1) -> its moments (e, None), for every interval
    # sampled so far.  tgrids keeps every cycle's grid for the reference route,
    # and previous the last cycle's indicators, marks and keys for _ahead.
    cache: dict[tuple[float, float], tuple] = {}
    tgrids: list[TimeGrid] = []
    previous = None
    cycle = 0
    while True:
        keys = tgrid.intervals
        fresh = [key for key in keys if key not in cache]
        if fresh:
            # One round: the live intervals not yet sampled and the predicted
            # halves.  tgrid.N is the last cycle's N plus its marks.
            if previous is not None:
                fresh += [key for key in _ahead(*previous, cfg.n_max - tgrid.N) if key not in cache]
            cache.update(zip(fresh, integrand.sample(fresh)))
        tgrids.append(tgrid)
        ind = ErrorIndicators(per_interval=integrand.eta_sq([cache[key] for key in keys], tgrid.deltas))
        history.append(
            CycleRecord(
                cycle=cycle,
                n_intervals=tgrid.N,
                taus=tgrid.taus,
                eta_sq=ind.per_interval,
                eta_total=float(np.sqrt(ind.total)),
                true_error=None,
                uniform_error=None,
            )
        )
        if tgrid.N >= cfg.n_max:
            break
        marks = mark(ind, cfg)
        if not marks:
            break
        previous = ind.per_interval, marks, keys
        tgrid = bisect_intervals(tgrid, marks)
        cycle += 1

    if errors is not None:
        cycles = history.cycles
        gaps = errors(tgrids + [build_uniform_time_grid(problem.T, rec.n_intervals) for rec in cycles[1:]])
        uniform = gaps[:1] + gaps[len(cycles):]
        history.cycles = [replace(rec, true_error=e, uniform_error=u)
                          for rec, e, u in zip(cycles, gaps, uniform)]
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

    With n_reference = 4 * n_max and the loop's counts these equal the
    uniform_error of adapt_loop's records bitwise: both solve through
    _reference_solver, whose packing into batches changes no bit.
    """
    grids = [build_uniform_time_grid(problem.T, int(n)) for n in counts]
    return np.asarray(_reference_solver(problem, smesh, n_reference, quad_order)(grids))
