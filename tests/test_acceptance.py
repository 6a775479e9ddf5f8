"""Acceptance gate for the assimilation pipeline.

Each criterion prints exactly one PASS/FAIL line with its measured numbers,
bypassing pytest's capture so the verdicts land in the run log either way,
and then asserts.  A red criterion here means the implementation, run
faithfully, does not reach the published number; the measured values in the
line say by how much.
"""

import time

import numpy as np
import pytest

from varda import adaptivity, assimilation, elliptic, fem1d, forward, mesh, problems

TABLE1 = {
    "i": {"baseline": 0.3436, "alphas": (0.0076, 0.0640, 0.1252, 0.1835, 0.2392, 0.3000, 0.3292)},
    "ii": {"baseline": 0.5298, "alphas": (0.0210, 0.1425, 0.2401, 0.3215, 0.3952, 0.4738, 0.5114)},
}
ALPHAS = (0.01, 0.1, 0.25, 0.5, 1.0, 3.0, 10.0)
# The published example-2 numbers belong to alpha = 0.6.  The "before" pair
# does not depend on alpha and matches as it stands.  Every assimilated
# example-2 run has u = c sin(pi x), so both "after" numbers are functions of
# c alone; an alpha scan at d = N = 40 gives (rmse / max misfit)
#   0.01 -> 0.4028 / 1.277    0.1 -> 0.4156 / 1.056    0.3 -> 0.4689 / 0.881
#   0.5  -> 0.5137 / 1.014    0.6 -> 0.5316 / 1.062    0.7 -> 0.5469 / 1.102
# and only alpha = 0.6 (c = 1.566) meets both: a fit to the rmse alone gives
# 0.599, a fit to the max misfit alone 0.600.  The max misfit is not monotone
# in alpha (it peaks at t = 0 for small alpha and just after the pulse for
# large alpha), so it cannot be read off one branch of the scan.
EXAMPLE2 = {
    "alpha": 0.6,
    "rmse_before": 0.7301,
    "rmse_after": 0.5314,
    "e_max_before": 1.514,
    "e_max_after": 1.062,
}


def report(capsys, line):
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def smesh():
    return mesh.build_spatial_mesh(0.0, 1.0, 40)


@pytest.fixture(scope="module")
def tgrid():
    return mesh.build_uniform_time_grid(1.0, 40)


@pytest.fixture(scope="module")
def ex2_history(smesh):
    spec = problems.example2()
    cfg = adaptivity.AdaptConfig(
        strategy="MAX", n_initial=5, n_max=40, record_reference_error=True
    )
    return adaptivity.adapt_loop(spec, smesh, cfg)


def _baseline(spec, smesh, tgrid):
    u0 = np.asarray(spec.y_b(smesh.nodes), dtype=float).copy()
    u0[0] = u0[-1] = 0.0
    space = fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0)
    return forward.solve_state(spec, u0, tgrid, space)


def _max_misfit(field, y_ref):
    return max(
        float(np.abs(np.asarray(y_ref(t, field.smesh.nodes), dtype=float) - field.values[i]).max())
        for i, t in enumerate(field.tgrid.taus)
    )


def test_criterion_1_table_reproduction(capsys, smesh, tgrid):
    start = time.perf_counter()
    worst = 0.0
    monotone = True
    for variant in ("i", "ii"):
        spec = problems.example1(variant)
        base = assimilation.rmse(_baseline(spec, smesh, tgrid), spec.y_d)
        worst = max(worst, abs(base - TABLE1[variant]["baseline"]) / TABLE1[variant]["baseline"])
        sweep = []
        for alpha, target in zip(ALPHAS, TABLE1[variant]["alphas"]):
            res = assimilation.assimilate(problems.example1(variant, alpha=alpha), smesh, tgrid)
            sweep.append(res.rmse)
            worst = max(worst, abs(res.rmse - target) / target)
        monotone = monotone and all(a < b for a, b in zip(sweep, sweep[1:]))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.15 and monotone and elapsed < 120.0
    report(
        capsys,
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(16 sweep values and 2 baselines within {worst:.2%} of published, "
        f"tolerance 15%; misfit monotone in alpha: {monotone}; {elapsed:.1f}s < 120s)",
    )
    assert worst <= 0.15
    assert monotone
    assert elapsed < 120.0


def test_criterion_2_unmodeled_inflow_recovery(capsys, smesh, tgrid):
    spec = problems.example2(alpha=EXAMPLE2["alpha"])
    base = _baseline(spec, smesh, tgrid)
    res = assimilation.assimilate(spec, smesh, tgrid)
    got = {
        "rmse_before": assimilation.rmse(base, spec.y_d),
        "rmse_after": res.rmse,
        "e_max_before": _max_misfit(base, spec.y_d),
        "e_max_after": _max_misfit(res.y, spec.y_d),
    }
    rel = {k: abs(got[k] - EXAMPLE2[k]) / EXAMPLE2[k] for k in got}
    improved = got["rmse_after"] < got["rmse_before"] and got["e_max_after"] < got["e_max_before"]
    ok = (
        rel["rmse_before"] <= 0.15
        and rel["rmse_after"] <= 0.15
        and rel["e_max_before"] <= 0.20
        and rel["e_max_after"] <= 0.20
        and improved
    )
    report(
        capsys,
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(alpha={EXAMPLE2['alpha']}: rmse {got['rmse_before']:.4f}->"
        f"{got['rmse_after']:.4f} vs published "
        f"{EXAMPLE2['rmse_before']}->{EXAMPLE2['rmse_after']}, tolerance 15%; "
        f"max misfit {got['e_max_before']:.3f}->{got['e_max_after']:.3f} vs "
        f"{EXAMPLE2['e_max_before']}->{EXAMPLE2['e_max_after']}, tolerance 20%; "
        f"improved: {improved})",
    )
    assert rel["rmse_before"] <= 0.15
    assert rel["rmse_after"] <= 0.15, (
        f"assimilated rmse {got['rmse_after']:.4f} misses the published "
        f"{EXAMPLE2['rmse_after']} by {rel['rmse_after']:.1%}"
    )
    assert rel["e_max_before"] <= 0.20
    assert rel["e_max_after"] <= 0.20, (
        f"assimilated max misfit {got['e_max_after']:.4f} misses the published "
        f"{EXAMPLE2['e_max_after']} by {rel['e_max_after']:.1%}"
    )
    assert improved


def test_criterion_3a_cycle_count(capsys, ex2_history):
    tgrid_out, history = ex2_history
    cycles = len(history.cycles) - 1
    counts = [rec.n_intervals for rec in history.cycles]
    ok = cycles == 35 and counts == list(range(5, 41)) and tgrid_out.N == 40
    report(
        capsys,
        f"criterion 3a: {'PASS' if ok else 'FAIL'} "
        f"(worst-interval refinement 5 -> {tgrid_out.N} intervals in {cycles} cycles, "
        f"required exactly 35)",
    )
    assert cycles == 35
    assert counts == list(range(5, 41))


def _ramp_comparison(eps, smesh):
    spec, exact_p = problems.example3(eps=eps)
    cfg = adaptivity.AdaptConfig(strategy="MAX", n_initial=5, n_max=30)
    tgrid_out, _ = adaptivity.adapt_loop(spec, smesh, cfg)
    exact0 = exact_p(0.0, smesh.nodes)
    sol = elliptic.solve_sparse(elliptic.assemble(spec, smesh, tgrid_out))
    adaptive = assimilation.mse_initial(sol.p.values[0], exact0)
    uniform_grid = mesh.build_uniform_time_grid(1.0, 30)
    sol_u = elliptic.solve_sparse(elliptic.assemble(spec, smesh, uniform_grid))
    uniform = assimilation.mse_initial(sol_u.p.values[0], exact0)
    return tgrid_out, adaptive, uniform


def test_criterion_3b_narrow_ramp_grid(capsys, smesh):
    tgrid_out, adaptive, uniform = _ramp_comparison(0.05, smesh)
    initial = set(np.round(np.linspace(0.0, 1.0, 6), 12))
    inserted = [t for t in np.round(tgrid_out.taus, 12) if t not in initial]
    inside = sum(1 for t in inserted if 0.4 <= t <= 0.6) / len(inserted)
    ok = adaptive < uniform and inside >= 0.6
    report(
        capsys,
        f"criterion 3b: {'PASS' if ok else 'FAIL'} "
        f"(eps=0.05, N=30: adaptive initial-state MSE {adaptive:.3e} < uniform "
        f"{uniform:.3e}: {adaptive < uniform}; {inside:.0%} of inserted nodes in "
        f"[0.4, 0.6], required >= 60%)",
    )
    assert adaptive < uniform
    assert inside >= 0.6


def test_criterion_3c_wide_ramp_parity(capsys, smesh):
    _, adaptive, uniform = _ramp_comparison(0.5, smesh)
    factor = adaptive / uniform
    ok = factor < 2.0
    report(
        capsys,
        f"criterion 3c: {'PASS' if ok else 'FAIL'} "
        f"(eps=0.5, N=30: adaptive initial-state MSE {adaptive:.3e} vs uniform "
        f"{uniform:.3e}, ratio {factor:.2f}, required < 2)",
    )
    assert factor < 2.0, (
        f"adaptive grid is {factor:.2f}x worse than uniform on the wide ramp; "
        f"the load integrates the data residual with one Gauss rule per time "
        f"interval, and the adaptive grid leaves [0.2, 0.3] and [0.7, 0.8] "
        f"coarse while the ramp's second derivative switches on inside them, "
        f"at t = 0.25 and t = 0.75"
    )


def test_criterion_4_consistent_suite(capsys, smesh, tgrid):
    spec = problems.consistent_problem()
    res = assimilation.assimilate(spec, smesh, tgrid)
    y_b = np.asarray(spec.y_b(smesh.nodes), dtype=float).copy()
    y_b[0] = y_b[-1] = 0.0
    max_p = float(np.abs(res.p.values).max())
    gap_u = float(np.abs(res.u - y_b).max())
    _, history = adaptivity.adapt_loop(
        spec, smesh, adaptivity.AdaptConfig(n_initial=5, n_max=40)
    )
    ok = max_p <= 1e-3 and gap_u <= 1e-3 and res.rmse <= 5e-3 and len(history.cycles) == 1
    report(
        capsys,
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(consistent data: max |p| {max_p:.1e} <= 1e-3, "
        f"max |u - y_b| {gap_u:.1e} <= 1e-3, rmse {res.rmse:.1e} <= 5e-3, "
        f"adaptation stops after {len(history.cycles) - 1} cycles)",
    )
    assert max_p <= 1e-3
    assert gap_u <= 1e-3
    assert res.rmse <= 5e-3
    assert len(history.cycles) == 1


def test_criterion_5_oracle_convergence(capsys):
    spec = problems.example1("i")
    diffs = []
    for n in (10, 20, 40):
        sm = mesh.build_spatial_mesh(0.0, 1.0, n)
        tg = mesh.build_uniform_time_grid(1.0, n)
        res = assimilation.assimilate(spec, sm, tg)
        u_oracle = forward.kkt_oracle(spec, fem1d.assemble_spatial_matrices(sm, spec.a, spec.a0), tg)
        diffs.append(float(np.linalg.norm(res.u - u_oracle) / np.linalg.norm(u_oracle)))
    order = min(np.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1))

    trusting = problems.consistent_problem(alpha=1e4)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tg = mesh.build_uniform_time_grid(1.0, 10)
    res = assimilation.assimilate(trusting, sm, tg)
    space = fem1d.assemble_spatial_matrices(sm, trusting.a, trusting.a0)
    agreement = float(np.abs(res.u - forward.kkt_oracle(trusting, space, tg)).max())

    ok = order >= 1.0 and agreement <= 1e-6
    report(
        capsys,
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(space-time vs closed-form control: differences "
        f"{diffs[0]:.2e}/{diffs[1]:.2e}/{diffs[2]:.2e} at d=N=10/20/40, "
        f"observed order {order:.2f} >= 1; consistent-data agreement "
        f"{agreement:.2e} <= 1e-6)",
    )
    assert order >= 1.0
    assert agreement <= 1e-6


def test_criterion_6_structural_suite(capsys, smesh, tgrid):
    spec = problems.example1("i")
    system = elliptic.assemble(spec, smesh, tgrid)
    n_p = system.dofmap.n_p
    sym = (system.A + system.A.T).tocsr()[:n_p, n_p:]
    skew = 0.0 if sym.nnz == 0 else float(np.abs(sym.data).max())

    rng = np.random.default_rng(41)
    coercive = all(
        float(x @ (system.A @ x)) > 0.0
        for x in rng.standard_normal((20, system.A.shape[0]))
    )

    element_gap = 0.0
    for h in (1.0, 0.125, 1.0 / 3.0):
        em = fem1d.element_matrices(h)
        element_gap = max(
            element_gap,
            float(np.abs(em.mass - h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])).max()),
            float(np.abs(em.stiffness - 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])).max()),
        )

    ramp_spec, _ = problems.example3()
    sm10 = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tg6 = mesh.build_uniform_time_grid(1.0, 6)
    coarse = adaptivity.compute_indicators(ramp_spec, None, sm10, tg6)
    fine = adaptivity.compute_indicators(
        ramp_spec, None, sm10, mesh.bisect_intervals(tg6, range(tg6.N))
    )
    halving_gap = abs(np.sqrt(fine.total) / np.sqrt(coarse.total) - 0.5)

    ex2 = problems.example2()
    sm12 = mesh.build_spatial_mesh(0.0, 1.0, 12)
    tg8 = mesh.build_uniform_time_grid(1.0, 8)
    sol = elliptic.solve_sparse(elliptic.assemble(ex2, sm12, tg8))
    equal_gap = float(
        np.abs(
            adaptivity.compute_indicators(ex2, sol, sm12, tg8).per_interval
            - adaptivity.compute_indicators(ex2, None, sm12, tg8).per_interval
        ).max()
    )

    doerfler_ok = True
    rng = np.random.default_rng(42)
    for _ in range(1000):
        vals = rng.uniform(0.0, 1.0, int(rng.integers(1, 41)))
        theta = float(rng.uniform(0.05, 0.95))
        ind = adaptivity.ErrorIndicators(per_interval=vals)
        marked = adaptivity.mark(
            ind, adaptivity.AdaptConfig(strategy="DOERFLER", theta_mark=theta)
        )
        chosen = vals[sorted(marked)]
        doerfler_ok = doerfler_ok and chosen.sum() >= theta * ind.total
        doerfler_ok = doerfler_ok and chosen.sum() - chosen.min() < theta * ind.total

    projection_ok = True
    for _ in range(1000):
        g = rng.uniform(-5.0, 5.0, 23)
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        once = assimilation.project_box(g, lo, hi)
        twice = assimilation.project_box(once, lo, hi)
        projection_ok = projection_ok and np.array_equal(once, twice)
        projection_ok = projection_ok and bool(np.all((once >= lo) & (once <= hi)))

    ok = (
        skew <= 1e-11
        and coercive
        and element_gap <= 1e-14
        and halving_gap <= 1e-6
        and equal_gap <= 1e-12
        and doerfler_ok
        and projection_ok
    )
    report(
        capsys,
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(coupling skew defect {skew:.1e} <= 1e-11; coercive: {coercive}; "
        f"element matrices off by {element_gap:.1e} <= 1e-14; refinement halves "
        f"the indicator to {halving_gap:.1e} <= 1e-6; data-only route off by "
        f"{equal_gap:.1e} <= 1e-12; bulk marking minimal in 1000 cases: "
        f"{doerfler_ok}; box projection idempotent in 1000 cases: {projection_ok})",
    )
    assert skew <= 1e-11
    assert coercive
    assert element_gap <= 1e-14
    assert halving_gap <= 1e-6
    assert equal_gap <= 1e-12
    assert doerfler_ok
    assert projection_ok


def test_criterion_7_indicator_vs_error(capsys, ex2_history):
    _, history = ex2_history
    etas = [rec.eta_total for rec in history.cycles]
    errors = [rec.true_error for rec in history.cycles]
    ratios = [eta / err for eta, err in zip(etas, errors)]
    never_equivalent = all(r < 0.5 or r > 2.0 for r in ratios)
    eta_decreases = all(a > b for a, b in zip(etas, etas[1:]))
    error_decreases = errors[-1] < errors[0]
    ok = never_equivalent and eta_decreases and error_decreases
    report(
        capsys,
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(indicator/error ratio stays in [{min(ratios):.3g}, {max(ratios):.3g}], "
        f"outside [0.5, 2] on all {len(ratios)} cycles: {never_equivalent}; "
        f"indicator {etas[0]:.3g} -> {etas[-1]:.3g} decreasing: {eta_decreases}; "
        f"error {errors[0]:.3g} -> {errors[-1]:.3g} decreasing: {error_decreases})",
    )
    assert never_equivalent
    assert eta_decreases
    assert error_decreases
