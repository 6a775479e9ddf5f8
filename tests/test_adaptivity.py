from dataclasses import replace

import numpy as np
import pytest
from conftest import unfactored_data, variable_coefficient_problem

from varda import adaptivity, elliptic, fem1d, mesh, problems
from varda.adaptivity import AdaptConfig, AdaptHistory, CycleRecord, ErrorIndicators
from varda.assimilation import ProblemSpec


def _zero(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_coefficient(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _forced_variable_problem():
    """variable_coefficient_problem with a forcing that is not symmetric in time.

    Its data residual g = f is nonzero, so the cross term of (g - A q)^2 counts,
    and it is quadratic in t, so Gauss rules of 3 or more nodes integrate the
    indicator exactly in time.
    """

    def f(t, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + 4.0 * t * t) * np.sin(np.pi * x) * (1.0 + x)

    return replace(variable_coefficient_problem(), f=f)


def _hidden_pulse_problem():
    """Forcing (1 + t + 100 exp(-((t - t_p) / 5e-4)^2)) sin(pi x), all data zero: a pulse that bisection uncovers.

    t_p = 1/3 + 1.5/96 is the middle Gauss node of the second of the 16
    panels on [1/3, 1/2].  The nearest node of the 16-panel rule on [1/3, 2/3]
    lies 2.9e-3 away, where the pulse is below 1e-12.  So [1/3, 2/3] scores
    as the smooth part alone, while its left half scores about 16 times its
    parent: far more than the quarter the loop assumes when it samples ahead.
    """
    t_p = 1.0 / 3.0 + 1.5 / 96.0

    def f(t, x):
        return (1.0 + t + 100.0 * np.exp(-(((t - t_p) / 5e-4) ** 2))) * np.sin(np.pi * x)

    return replace(_poly_problem(), f=f)


def _brute_force_indicators(problem, smesh, taus, q):
    """dtau^2 times the integral of (f - A q)^2 on each interval, point by point.

    The problem has y_d = 0, so the data residual is f.  On each cell q is
    linear in x, so A q = -a' q_x + a0 q.  Time uses 5 Gauss nodes per
    interval, exact for the quartic integrand.  Space uses the indicator's 3
    Gauss points on each cell and its central difference for a', bit for
    bit: the difference turns a last-bit change of x into 1e-11 in a'.
    """
    tp, tw = np.polynomial.legendre.leggauss(5)
    xp, xw = fem1d.gauss_rule(3)
    s, xw = (xp + 1.0) / 2.0, smesh.h * xw / 2.0
    x = 0.5 * (smesh.nodes[:-1] + smesh.nodes[1:])[:, None] + 0.5 * smesh.h * xp
    da = (problem.a(x + 1e-6) - problem.a(x - 1e-6)) / 2e-6
    eta_sq = []
    for i, (t0, t1) in enumerate(zip(taus[:-1], taus[1:])):
        dt, total = t1 - t0, 0.0
        for lam, wt in zip((tp + 1.0) / 2.0, dt * tw / 2.0):
            qt = (1.0 - lam) * q[i] + lam * q[i + 1]
            q_at = (1.0 - s) * qt[:-1, None] + s * qt[1:, None]
            q_x = (np.diff(qt) / smesh.h)[:, None]
            aq = -da * q_x + problem.a0(x) * q_at
            total += wt * (xw * (problem.f(t0 + lam * dt, x) - aq) ** 2).sum()
        eta_sq.append(dt * dt * total)
    return np.array(eta_sq)


def _poly_problem():
    """Zero data, forcing t^2 x (1 - x): the indicator has a closed form."""

    def f(t, x):
        x = np.asarray(x, dtype=float)
        return t * t * x * (1.0 - x)

    return ProblemSpec(
        a=lambda x: 0.1 + np.zeros_like(np.asarray(x, dtype=float)),
        a0=_zero_coefficient,
        alpha=1.0,
        T=1.0,
        domain=(0.0, 1.0),
        f=f,
        y_d=_zero,
        y_d_t=_zero,
        Ay_d=_zero,
        y_b=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_indicator_matches_closed_form_for_polynomial_forcing():
    # eta_i^2 = dtau_i^2 * int_{I_i} t^4 dt * int_0^1 x^2 (1-x)^2 dx.
    spec = _poly_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 7)
    tg = mesh.build_time_grid([0.0, 0.25, 0.4, 0.9, 1.0])
    ind = adaptivity.compute_indicators(spec, None, sm, tg)
    t5 = tg.taus**5
    exact = tg.deltas**2 * (t5[1:] - t5[:-1]) / 5.0 / 30.0
    np.testing.assert_allclose(ind.per_interval, exact, rtol=1e-13)
    assert ind.total == pytest.approx(exact.sum(), rel=1e-13)


def test_bisecting_every_interval_halves_the_total_indicator():
    # The dtau^2 prefactor makes the quartering of each eta_i^2 exact as
    # long as the quadrature resolves the residual, so the square root of
    # the total halves.
    spec = _poly_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 7)
    tg = mesh.build_uniform_time_grid(1.0, 4)
    coarse = adaptivity.compute_indicators(spec, None, sm, tg)
    fine_grid = mesh.bisect_intervals(tg, range(tg.N))
    fine = adaptivity.compute_indicators(spec, None, sm, fine_grid)
    ratio = np.sqrt(fine.total) / np.sqrt(coarse.total)
    assert abs(ratio - 0.5) <= 1e-12


def test_halving_law_for_the_bump_problem():
    spec, _ = problems.example3()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tg = mesh.build_uniform_time_grid(1.0, 6)
    coarse = adaptivity.compute_indicators(spec, None, sm, tg)
    fine = adaptivity.compute_indicators(
        spec, None, sm, mesh.bisect_intervals(tg, range(tg.N))
    )
    ratio = np.sqrt(fine.total) / np.sqrt(coarse.total)
    assert abs(ratio - 0.5) <= 1e-6


def test_solution_terms_drop_out_for_constant_coefficients():
    # With constant diffusion and zero reaction the broken elementwise
    # terms vanish identically, so both routes agree to the last bit.
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 12)
    tg = mesh.build_uniform_time_grid(1.0, 8)
    sol = elliptic.solve_sparse(elliptic.assemble(spec, sm, tg))
    with_sol = adaptivity.compute_indicators(spec, sol, sm, tg)
    data_only = adaptivity.compute_indicators(spec, None, sm, tg)
    assert np.array_equal(with_sol.per_interval, data_only.per_interval)
    assert with_sol.total == data_only.total


def test_indicator_matches_a_brute_force_quadrature_with_variable_coefficients():
    # Nonzero f and variable a, a0: the sign of -A q and the time
    # interpolation of q both show in the cross term 2 f (-A q).
    spec = _forced_variable_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 12)
    tg = mesh.build_time_grid([0.0, 0.1, 0.35, 0.4, 0.7, 1.0])
    sol = elliptic.solve_sparse(elliptic.assemble(spec, sm, tg))
    ind = adaptivity.compute_indicators(spec, sol, sm, tg)
    expected = _brute_force_indicators(spec, sm, tg.taus, sol.q.values)
    np.testing.assert_allclose(ind.per_interval, expected, rtol=1e-12)
    # The loop marks on the data-only indicator, q = 0, with reference errors too.
    cfg = AdaptConfig(n_initial=3, n_max=7, record_reference_error=True)
    _, history = adaptivity.adapt_loop(spec, sm, cfg)
    assert len(history.cycles) == 5
    for rec in history.cycles:
        expected = _brute_force_indicators(spec, sm, rec.taus, np.zeros((rec.n_intervals + 1, sm.d + 1)))
        np.testing.assert_allclose(rec.eta_sq, expected, rtol=1e-12)


def test_indicator_ranks_the_ramp_interval_first():
    # A narrow ramp at t = 0.5 seen from five coarse intervals: only the
    # middle one carries it, and the flat tail is exactly quiet.
    spec, _ = problems.example3(eps=0.05)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    tg = mesh.build_uniform_time_grid(1.0, 5)
    ind = adaptivity.compute_indicators(spec, None, sm, tg)
    assert int(np.argmax(ind.per_interval)) == 2
    assert ind.per_interval[2] > 1e3
    np.testing.assert_array_equal(ind.per_interval[3:], 0.0)
    # Before the ramp the residual is constant in time.
    assert ind.per_interval[0] == pytest.approx(ind.per_interval[1], rel=1e-12)


def test_error_indicators_validate_their_inputs():
    with pytest.raises(ValueError):
        ErrorIndicators(per_interval=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        ErrorIndicators(per_interval=np.zeros((2, 2)))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="interval 1 is not finite"):
            ErrorIndicators(per_interval=np.array([1.0, bad, 2.0]))


def test_indicators_refuse_a_solution_from_other_grids():
    spec = variable_coefficient_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 20)
    coarse, fine = mesh.build_uniform_time_grid(1.0, 8), mesh.build_uniform_time_grid(1.0, 16)
    for solved_on, scored_on in ((fine, coarse), (coarse, fine)):
        sol = elliptic.solve_sparse(elliptic.assemble(spec, sm, solved_on))
        with pytest.raises(ValueError, match="different grids"):
            adaptivity.compute_indicators(spec, sol, sm, scored_on)
    with pytest.raises(ValueError, match="different grids"):
        adaptivity.compute_indicators(spec, sol, mesh.build_spatial_mesh(0.0, 1.0, 10), coarse)


def test_max_marking_picks_the_single_worst_interval():
    ind = ErrorIndicators(per_interval=np.array([0.1, 3.0, 0.2, 3.0]))
    marks = adaptivity.mark(ind, AdaptConfig(strategy="MAX"))
    assert marks == {1}


def test_marking_returns_empty_on_zero_indicators():
    ind = ErrorIndicators(per_interval=np.zeros(4))
    assert adaptivity.mark(ind, AdaptConfig(strategy="MAX")) == set()
    assert adaptivity.mark(ind, AdaptConfig(strategy="DOERFLER")) == set()


def test_doerfler_marking_stops_on_an_exact_tie_with_the_threshold():
    # One of two equal intervals carries exactly theta = 0.5 of the total.
    ind = ErrorIndicators(per_interval=np.array([1.0, 1.0]))
    marks = adaptivity.mark(ind, AdaptConfig(strategy="DOERFLER", theta_mark=0.5))
    assert marks == {0}


def test_doerfler_marking_is_minimal_over_many_cases():
    rng = np.random.default_rng(0)
    for case in range(1000):
        size = int(rng.integers(1, 41))
        vals = rng.uniform(0.0, 1.0, size)
        vals[rng.uniform(size=size) < 0.2] = 0.0
        if not np.any(vals > 0.0):
            vals[0] = 1.0
        theta = float(rng.uniform(0.05, 0.95))
        cfg = AdaptConfig(strategy="DOERFLER", theta_mark=theta)
        ind = ErrorIndicators(per_interval=vals)
        marked = adaptivity.mark(ind, cfg)
        chosen = vals[sorted(marked)]
        assert chosen.sum() >= theta * ind.total
        # Dropping the weakest marked interval must break the threshold,
        # and no smaller set can reach it.
        assert chosen.sum() - chosen.min() < theta * ind.total
        top = np.sort(vals)[::-1]
        k = int(np.searchsorted(np.cumsum(top), theta * ind.total) + 1)
        assert len(marked) == k


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(strategy="GREEDY")
    with pytest.raises(ValueError):
        AdaptConfig(theta_mark=1.0)
    with pytest.raises(ValueError):
        AdaptConfig(n_initial=10, n_max=5)


def test_history_requires_growing_grids():
    history = AdaptHistory()
    record = CycleRecord(
        cycle=0, n_intervals=5, taus=np.linspace(0, 1, 6),
        eta_sq=np.ones(5), eta_total=np.sqrt(5.0), true_error=None,
        uniform_error=None,
    )
    history.append(record)
    with pytest.raises(ValueError):
        history.append(record)


def test_adapt_loop_grows_one_interval_per_cycle():
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    cfg = AdaptConfig(strategy="MAX", n_initial=5, n_max=12)
    tgrid, history = adaptivity.adapt_loop(spec, sm, cfg)
    counts = [rec.n_intervals for rec in history.cycles]
    assert counts == list(range(5, 13))
    assert tgrid.N == 12
    # Records keep the loop's read-only arrays rather than copies.
    assert not any(rec.taus.flags.writeable or rec.eta_sq.flags.writeable for rec in history.cycles)
    # Bisection only inserts nodes, never moves them.
    assert set(np.round(np.linspace(0.0, 1.0, 6), 12)) <= set(np.round(tgrid.taus, 12))


def test_adapt_loop_stops_immediately_on_consistent_data():
    spec = problems.consistent_problem()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tgrid, history = adaptivity.adapt_loop(spec, sm, AdaptConfig(n_initial=5, n_max=40))
    assert len(history.cycles) == 1
    assert history.cycles[0].eta_total == 0.0
    assert tgrid.N == 5


def test_adapt_loop_records_reference_errors():
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    cfg = AdaptConfig(strategy="MAX", n_initial=4, n_max=8, record_reference_error=True)
    _, history = adaptivity.adapt_loop(spec, sm, cfg)
    errors = [rec.true_error for rec in history.cycles]
    assert all(err is not None and err >= 0.0 for err in errors)
    assert errors[-1] < errors[0]


def test_reference_route_builds_one_spatial_operator(spatial_builds):
    spec = problems.example2()
    smesh = mesh.build_spatial_mesh(*spec.domain, 20)
    cfg = AdaptConfig(strategy="MAX", n_initial=5, n_max=40, record_reference_error=True)
    _, history = adaptivity.adapt_loop(spec, smesh, cfg)
    # 36 cycle solves and the reference solve share one space and one eigenbasis.
    assert len(history.cycles) == 36
    assert spatial_builds == {"assemble_spatial_matrices": 1, "eigenbasis": 1}


@pytest.mark.parametrize("strategy", ["MAX", "DOERFLER"])
def test_reference_route_records_the_uniform_errors(strategy):
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    cfg = AdaptConfig(strategy=strategy, n_initial=4, n_max=9, record_reference_error=True)
    _, history = adaptivity.adapt_loop(spec, sm, cfg)
    counts = [rec.n_intervals for rec in history.cycles]
    uniform = adaptivity.uniform_initial_errors(spec, sm, counts, 4 * cfg.n_max)
    assert [rec.uniform_error for rec in history.cycles] == uniform.tolist()
    # Cycle 0's grid is the uniform one.
    assert history.cycles[0].uniform_error == history.cycles[0].true_error
    # Later grids are graded, so their errors differ from the uniform ones.
    assert any(rec.uniform_error != rec.true_error for rec in history.cycles[1:])

    _, plain = adaptivity.adapt_loop(spec, sm, replace(cfg, record_reference_error=False))
    assert all(rec.uniform_error is None and rec.true_error is None for rec in plain.cycles)


def test_uniform_initial_errors_match_direct_solves():
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    gaps = adaptivity.uniform_initial_errors(spec, sm, (4, 8), 32)
    mass = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0).M
    ref = elliptic.solve_sparse(
        elliptic.assemble(spec, sm, mesh.build_uniform_time_grid(1.0, 32))
    ).p.values[0]
    for n, gap in zip((4, 8), gaps):
        sol = elliptic.solve_sparse(
            elliptic.assemble(spec, sm, mesh.build_uniform_time_grid(1.0, n))
        )
        diff = ref - sol.p.values[0]
        assert gap == pytest.approx(float(np.sqrt(diff @ (mass @ diff))), abs=1e-15)


def test_reference_route_returns_the_gaps_in_input_order(monkeypatch):
    # Uniform and graded grids of 1 to 30 intervals, in a shuffled order.  The
    # route packs them by N into batches within its lane budget, and each gap
    # must still be bitwise the gap of a lone solve, in the order given.  With
    # a budget of 0 every grid is over it and goes alone.
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    graded = mesh.build_uniform_time_grid(1.0, 10)
    for _ in range(3):
        graded = mesh.bisect_intervals(graded, [0])
    grids = [mesh.build_uniform_time_grid(1.0, n) for n in (12, 1, 30, 7, 3, 5)] + [graded]
    grids = [grids[i] for i in np.random.default_rng(4).permutation(len(grids))]
    assert [g.N for g in grids] != sorted(g.N for g in grids)
    space = fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0)
    ref_p0 = elliptic.solve_sparse(elliptic.assemble(spec, sm, mesh.build_uniform_time_grid(1.0, 40))).p.values[0]

    def gap(grid):
        diff = ref_p0 - elliptic.solve_sparse(elliptic.assemble(spec, sm, grid, space=space)).p.values[0]
        return float(np.sqrt(diff @ (space.M @ diff)))

    errors = adaptivity._reference_solver(spec, sm, 40, 3)
    assert errors(grids) == [gap(grid) for grid in grids]
    assert errors(grids[::-1]) == [gap(grid) for grid in grids[::-1]]
    monkeypatch.setattr(adaptivity, "_LANE_BUDGET", 0)
    assert errors(grids) == [gap(grid) for grid in grids]


def _gaps_packed_by_intervals(problem, smesh, grids, n_reference):
    """The route's gaps as it packed them before its lane budget: in order of N, at most n_reference intervals a batch.

    Returns the gaps in the order of grids and the number of batches, the
    reference's included.
    """
    space = fem1d.assemble_spatial_matrices(smesh, problem.a, problem.a0)
    rows, ref_grid = {}, mesh.build_uniform_time_grid(problem.T, n_reference)
    ref_p0 = elliptic.solve_batch(elliptic.assemble_batch(problem, space, [ref_grid], rows))[0].p.values[0]
    order, p0, n_batches = sorted(range(len(grids)), key=lambda i: grids[i].N), {}, 1
    while order:
        k = max(1, int(np.searchsorted(np.cumsum([grids[i].N for i in order]), n_reference, side="right")))
        batch, order, n_batches = order[:k], order[k:], n_batches + 1
        systems = elliptic.assemble_batch(problem, space, [grids[i] for i in batch], rows)
        p0.update(zip(batch, (sol.p.values[0] for sol in elliptic.solve_batch(systems))))
    diffs = [ref_p0 - p0[i] for i in range(len(grids))]
    return [float(np.sqrt(diff @ fem1d.tridiag_dot(*space.m_band, diff))) for diff in diffs], n_batches


@pytest.mark.parametrize("strategy", ["MAX", "DOERFLER"])
@pytest.mark.parametrize(
    "problem, d",
    [(problems.example2(), 20), (problems.example3()[0], 12)],
    ids=["example2-d20", "example3-d12"],
)
def test_the_lane_budget_changes_no_bit(monkeypatch, problem, d, strategy):
    # The packing under the budget and the old packing of at most 4 * n_max
    # intervals a batch give the same p(0) gaps, bit for bit.  The old rule
    # counts intervals, which no lane budget reproduces, so the helper packs
    # that way itself.  Nothing else in a record comes from a solve.
    sm = mesh.build_spatial_mesh(0.0, 1.0, d)
    cfg = AdaptConfig(strategy=strategy, n_initial=5, n_max=40, record_reference_error=True)
    batches = []
    solve_batch = elliptic.solve_batch

    def counted_solve(systems):
        batches.append([system.dofmap.tgrid.N for system in systems])
        return solve_batch(systems)

    monkeypatch.setattr(elliptic, "solve_batch", counted_solve)
    _, history = adaptivity.adapt_loop(problem, sm, cfg)
    assert all((max(batch) + 1) * 2 * len(batch) * (d - 1) <= adaptivity._LANE_BUDGET for batch in batches)
    monkeypatch.undo()

    cycles = history.cycles
    grids = [mesh.build_time_grid(rec.taus) for rec in cycles]
    grids += [mesh.build_uniform_time_grid(problem.T, rec.n_intervals) for rec in cycles[1:]]
    gaps, n_batches = _gaps_packed_by_intervals(problem, sm, grids, 4 * cfg.n_max)
    assert 1 < len(batches) < n_batches and len(cycles) > 2
    assert [rec.true_error for rec in cycles] == gaps[: len(cycles)]
    assert [rec.uniform_error for rec in cycles] == gaps[:1] + gaps[len(cycles) :]


def _fresh_loop(problem, smesh, cfg):
    """The adapt loop without a cache: every cycle scores every interval anew, from the data alone."""
    tgrid = mesh.build_uniform_time_grid(problem.T, cfg.n_initial)
    if cfg.record_reference_error:
        ref_grid = mesh.build_uniform_time_grid(problem.T, 4 * cfg.n_max)
        ref_sys = elliptic.assemble(problem, smesh, ref_grid)
        ref_p0 = elliptic.solve_sparse(ref_sys).p.values[0]
    records = []
    while True:
        true_error = None
        if cfg.record_reference_error:
            sol = elliptic.solve_sparse(elliptic.assemble(problem, smesh, tgrid))
            diff = ref_p0 - sol.p.values[0]
            true_error = float(np.sqrt(diff @ (ref_sys.space.M @ diff)))
        ind = adaptivity.compute_indicators(problem, None, smesh, tgrid)
        records.append((tgrid.taus, ind.per_interval, float(np.sqrt(ind.total)), true_error))
        marks = adaptivity.mark(ind, cfg)
        if tgrid.N >= cfg.n_max or not marks:
            return records
        tgrid = mesh.bisect_intervals(tgrid, marks)


@pytest.mark.parametrize("strategy", ["MAX", "DOERFLER"])
@pytest.mark.parametrize(
    "problem, reference, grows, unused",
    [
        (problems.example3()[0], False, True, 0),
        (problems.example2(), True, True, 0),
        # Variable a(x) and a0(x) with zero data: the data-only indicator is
        # zero, so the loop stops at cycle 0 even with reference errors on.
        (variable_coefficient_problem(), True, False, 0),
        # Nonzero f as well.
        (_forced_variable_problem(), True, True, 0),
        # The pulse lifts [1/3, 1/2] and later [1/3, 3/8] above the quarter
        # of their parents, so two marks go where no half was sampled ahead.
        # [1/2, 2/3] is sampled ahead, is a candidate again in a later round
        # while its halves wait in the cache, and goes live in the end;
        # [1/6, 1/3] is sampled ahead and never marked.
        (_hidden_pulse_problem(), False, True, 2),
    ],
    ids=["example3-data-only", "example2-reference", "variable-reference", "variable-forced-reference",
         "hidden-pulse"],
)
def test_cached_loop_matches_a_fresh_loop(problem, reference, grows, unused, strategy):
    sm = mesh.build_spatial_mesh(0.0, 1.0, 12)
    cfg = AdaptConfig(
        strategy=strategy, theta_mark=0.3, n_initial=3, n_max=12,
        record_reference_error=reference,
    )
    rows = []

    def counted(t, x):
        rows.extend(np.reshape(t, (len(t), -1)) if np.ndim(t) else [])
        return problem.f(t, x)

    counted_problem = replace(problem, f=counted)
    rows.clear()  # drop the spot check that construction ran
    tgrid, history = adaptivity.adapt_loop(counted_problem, sm, cfg)
    # No interval is sampled twice.  The loop samples 16 x 3 time nodes per
    # interval, the loads 3: the loop's rows are the intervals that went
    # live, n_initial and two per bisected interval, and the unused ones.
    assert len({row.tobytes() for row in rows}) == len(rows)
    loop_rows = sum(1 for row in rows if row.size == 48)
    assert loop_rows == cfg.n_initial + 2 * (tgrid.N - cfg.n_initial) + unused
    fresh = _fresh_loop(problem, sm, cfg)
    assert len(history.cycles) == len(fresh)
    assert len(fresh) > 2 if grows else len(fresh) == 1
    for rec, (taus, eta_sq, eta_total, true_error) in zip(history.cycles, fresh):
        assert np.array_equal(rec.taus, taus)
        assert np.array_equal(rec.eta_sq, eta_sq)
        assert rec.eta_total == eta_total
        assert rec.true_error == true_error


@pytest.mark.parametrize("strategy", ["MAX", "DOERFLER"])
@pytest.mark.parametrize(
    "problem",
    [variable_coefficient_problem(), _forced_variable_problem(), problems.example3(eps=0.05)[0]],
    ids=["variable", "variable-forced", "example3-eps0.05"],
)
def test_recording_reference_errors_leaves_the_grids_unchanged(problem, strategy):
    # The option only measures: the loop marks on the data-only indicator
    # either way, even where -A q is nonzero.
    sm = mesh.build_spatial_mesh(0.0, 1.0, 12)
    cfg = AdaptConfig(strategy=strategy, theta_mark=0.3, n_initial=3, n_max=12)
    _, plain = adaptivity.adapt_loop(problem, sm, cfg)
    _, recorded = adaptivity.adapt_loop(problem, sm, replace(cfg, record_reference_error=True))
    assert len(plain.cycles) == len(recorded.cycles)
    for rec, ref in zip(plain.cycles, recorded.cycles):
        assert rec.taus.tobytes() == ref.taus.tobytes()
        assert rec.eta_sq.tobytes() == ref.eta_sq.tobytes()
        assert rec.eta_total == ref.eta_total
        assert rec.true_error is None and ref.true_error is not None


@pytest.mark.parametrize("nu", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("strategy, n_max", [("MAX", 40), ("DOERFLER", 80)])
def test_factored_example2_marks_the_same_intervals(strategy, n_max, nu):
    # The catalog's one-product callbacks move the data residual by a few
    # ulps; the marks, and so every grid the loop writes, must not move.
    spec = problems.example2(nu=nu)
    unfactored = replace(spec, **unfactored_data("example2", nu=nu))
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    cfg = AdaptConfig(strategy=strategy, n_initial=5, n_max=n_max)
    _, factored_history = adaptivity.adapt_loop(spec, sm, cfg)
    _, unfactored_history = adaptivity.adapt_loop(unfactored, sm, cfg)
    assert len(factored_history.cycles) == len(unfactored_history.cycles) > 2
    for new, old in zip(factored_history.cycles, unfactored_history.cycles):
        assert new.taus.tobytes() == old.taus.tobytes()
    assert factored_history.cycles[-1].taus.size - 1 >= n_max


def test_adapt_loop_samples_each_interval_once():
    # example3 from 5 to 30 intervals by MAX: 5 initial intervals plus two
    # children for each of 25 bisections, every one sampled on the
    # indicator's 16 panels x 3 Gauss nodes in time.  Each round samples the
    # cycle's unsampled intervals and the halves that the quarter rule
    # predicts, and every prediction comes true: 6 rounds instead of 26.
    spec, _ = problems.example3()
    points = []

    def counted(t, x):
        points.append(np.broadcast(t, x).size)
        return spec.f(t, x)

    counted_spec = replace(spec, f=counted)
    points.clear()  # drop the spot check that construction ran
    sm = mesh.build_spatial_mesh(0.0, 1.0, 40)
    tgrid, _ = adaptivity.adapt_loop(counted_spec, sm, AdaptConfig(n_initial=5, n_max=30))
    assert tgrid.N == 30
    assert sum(points) == 55 * 48 * sm.d * 3
    assert len(points) == 6


@pytest.mark.parametrize("strategy", ["MAX", "DOERFLER"])
@pytest.mark.parametrize(
    "problem",
    [problems.example2(), problems.example3(eps=0.5)[0], problems.example3(eps=0.05)[0]],
    ids=["example2", "example3-eps0.5", "example3-eps0.05"],
)
def test_sampling_ahead_takes_only_intervals_that_go_live(problem, strategy):
    # At most n_max - N - len(marks) intervals are sampled ahead, each keyed
    # by bisect_intervals' midpoint.  On these problems every one of them is
    # bisected before the loop stops, so the loop samples the n_initial
    # intervals and two halves per bisected interval, at 48 time nodes each.
    nodes = []

    def counted(t, x):
        nodes.append(np.size(t))
        return problem.f(t, x)

    counted_problem = replace(problem, f=counted)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    for n_max in range(5, 31):
        nodes.clear()
        tgrid, _ = adaptivity.adapt_loop(counted_problem, sm, AdaptConfig(strategy=strategy, n_max=n_max))
        assert sum(nodes) == 48 * (5 + 2 * (tgrid.N - 5)), n_max


def test_reference_route_samples_each_interval_once(monkeypatch):
    # example2 from 5 to 40 intervals by MAX, d=20.  f is sampled at 16 x 3
    # indicator nodes per interval the cycles create (5 + 2 x 35 = 75), and
    # at 3 load nodes per distinct interval of the 72 solved grids: the
    # 160-interval reference, the cycles' grids and the uniform grids of
    # 6..40 intervals (cycle 0's grid is uniform already).  Those hold
    # 160 + 75 + 805 intervals, of which the cycles share 9 with the
    # reference and 22 with the uniform grids: 1,009 distinct.  The loop
    # samples its 75 intervals in 9 rounds.  The 72 solves run in 3 batches:
    # the reference, then 45 and 26 grids, each batch within the lane budget
    # at d = 20.  Each batch samples y_d once for the lateral trace; the
    # batches share one dict, so the initial term samples y_d and y_b once.
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 20)
    cfg = AdaptConfig(strategy="MAX", n_initial=5, n_max=40, record_reference_error=True)
    shapes, points = [], []

    def counted(t, x):
        shapes.append(np.shape(t))
        points.append(np.broadcast(t, x).size)
        return spec.f(t, x)

    calls = dict.fromkeys(("y_d", "y_d_t", "Ay_d", "y_b"), 0)

    def counting(name):
        fun = getattr(spec, name)

        def counted_call(*args):
            calls[name] += 1
            return fun(*args)

        return counted_call

    counted_spec = replace(spec, f=counted, **{name: counting(name) for name in calls})
    shapes.clear()  # drop the spot check that construction ran
    points.clear()
    calls.update(dict.fromkeys(calls, 0))
    batches = []
    solve_batch = elliptic.solve_batch

    def counted_solve(systems):
        batches.append([system.dofmap.tgrid.N for system in systems])
        return solve_batch(systems)

    monkeypatch.setattr(elliptic, "solve_batch", counted_solve)
    tgrid, history = adaptivity.adapt_loop(counted_spec, sm, cfg)
    assert tgrid.N == 40 and len(history.cycles) == 36
    uniform_grids = [mesh.build_uniform_time_grid(1.0, n) for n in (160, *range(6, 41))]
    intervals = {interval for grid in uniform_grids + [mesh.build_time_grid(rec.taus) for rec in history.cycles]
                 for interval in zip(grid.taus[:-1].tolist(), grid.taus[1:].tolist())}
    assert len(intervals) == 160 + 75 + sum(range(6, 41)) - 9 - 22 == 1009
    assert sum(points) == (75 * 48 + 1009 * 3) * sm.d * 3 == 397_620
    # 1 reference solve, 36 cycle solves and 35 uniform solves.  The
    # reference fills the first batch, and the grids follow packed in order
    # of N, so each batch's N never fall, with at most the budget's lane values.
    solves = [n for batch in batches for n in batch]
    assert len(solves) == 72
    assert sorted(solves) == sorted([160, *range(5, 41), *range(6, 41)])
    assert all((max(batch) + 1) * 2 * len(batch) * (sm.d - 1) <= adaptivity._LANE_BUDGET for batch in batches)
    assert all(batch == sorted(batch) for batch in batches)
    assert batches[0] == [160] and solves[1:] == sorted(solves[1:])
    assert len(batches) == 3 and calls == {"y_d": 3 + 1, "y_d_t": 12, "Ay_d": 12, "y_b": 1}
    # The data residual is sampled once for the reference, which is assembled
    # before the loop, once per round and once per grid batch, every batch
    # holding an interval that no earlier batch did: 40 (t, x) callback calls
    # in all.  t comes shaped (intervals, nodes, 1, 1), and no batch samples
    # more intervals than it holds.
    assert len(shapes) == 1 + 9 + 2
    assert len(shapes) + calls["y_d"] + calls["y_d_t"] + calls["Ay_d"] == 40
    load_calls = shapes[:1] + shapes[1 + 9 :]
    assert all(shape[0] <= sum(batch) for shape, batch in zip(load_calls, batches, strict=True))

    # Each uniform error equals a fresh solve on its grid, bit for bit.
    monkeypatch.undo()
    ref_sys = elliptic.assemble(spec, sm, mesh.build_uniform_time_grid(1.0, 160))
    ref_p0, mass = elliptic.solve_sparse(ref_sys).p.values[0], ref_sys.space.M

    def gap(taus):
        diff = ref_p0 - elliptic.solve_sparse(elliptic.assemble(spec, sm, mesh.build_time_grid(taus))).p.values[0]
        return float(np.sqrt(diff @ (mass @ diff)))

    for rec in history.cycles:
        assert rec.uniform_error == gap(mesh.build_uniform_time_grid(1.0, rec.n_intervals).taus)
