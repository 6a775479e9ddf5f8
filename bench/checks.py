"""Output checks for the benchmark's tasks.

Every task's output directory is checked by invariants that hold for any
parameters: the solver residual contract, u = y_b - p(0)/alpha, the rmse
recomputed from y.csv, and an adapted grid that is a bisection refinement of
the uniform start reaching n_max.  The last cycle of an adapt run is
recomputed from its final grid: the data-only eta_total, or, with reference
errors, a fresh solve on the final grid (residual within the contract)
giving the last eta_total, true_error and uniform_error.  On seed 0, the
paper configuration, the outputs are also compared with
reference_seed0.json, recorded when the benchmark was introduced:

* u and rmse agree to a relative 1e-10;
* grids and the N column of the adapt history agree exactly;
* eta_total agrees to a relative 1e-10, and the reference errors, which are
  differences of p(0) values, to 1e-10 of the norm of the reference p(0).

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np

from varda import adaptivity, cli, elliptic, fem1d, mesh

REFERENCE_FILE = Path(__file__).with_name("reference_seed0.json")
RESIDUAL_CONTRACT = 1e-10
RELATIVE_TOL = 1e-10


def read_summary(out: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def read_grid(out: Path) -> np.ndarray:
    return np.loadtxt(out / "grid.txt", ndmin=1)


def read_field(path: Path, tgrid: mesh.TimeGrid, smesh: mesh.SpatialMesh) -> np.ndarray:
    """Values of a t,x,value field dump, after checking its node columns."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    shape = (tgrid.N + 1, smesh.d + 1)
    if data.shape != (shape[0] * shape[1], 3):
        raise ValueError(f"{path.name} has shape {data.shape}, expected {shape} nodes")
    t = data[:, 0].reshape(shape)
    x = data[:, 1].reshape(shape)
    if np.any(t != tgrid.taus[:, None]) or np.any(x != smesh.nodes[None, :]):
        raise ValueError(f"{path.name} is not laid out on the run's grids")
    return data[:, 2].reshape(shape)


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def _relative_gap(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale if scale > 0.0 else float(np.max(np.abs(got)))


def is_bisection_refinement(taus: np.ndarray, coarse: np.ndarray) -> bool:
    """True when taus arise from coarse by repeated midpoint bisection."""

    def leaves_of(a: float, b: float, nodes: list[float]) -> bool:
        if not nodes:
            return True
        mid = 0.5 * (a + b)
        left = [t for t in nodes if t < mid]
        right = [t for t in nodes if t > mid]
        if len(left) + len(right) + 1 != len(nodes) or mid not in nodes:
            return False
        return leaves_of(a, mid, left) and leaves_of(mid, b, right)

    if not set(coarse.tolist()) <= set(taus.tolist()):
        return False
    for a, b in zip(coarse[:-1], coarse[1:]):
        inner = [float(t) for t in taus if a < t < b]
        if not leaves_of(float(a), float(b), inner):
            return False
    return True


class OutputChecker:
    """Checks the outputs of one workload's tasks on one seed.

    Construction resolves the problem the way the CLI does; anything costly
    that does not depend on the task, such as the assembled reference system,
    is built once and shared by the tasks of a run.
    """

    def __init__(self, command: str, pairs: dict[str, str], reference: dict | None):
        self.command = command
        self.cfg = cli.build_config(pairs)
        self.spec, _ = cli.resolve_problem(self.cfg)
        self.smesh = mesh.build_spatial_mesh(*self.spec.domain, self.cfg.d)
        self.reference = reference
        self._final_etas: dict[bytes, float] = {}
        self._final_cycles: dict[bytes, tuple[float, float, float]] = {}

    def __call__(self, out: Path) -> list[str]:
        try:
            if self.command == "assimilate":
                return self._check_assimilate(out)
            return self._check_adapt(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    @functools.cached_property
    def _system(self) -> elliptic.AssembledSystem:
        tgrid = mesh.build_uniform_time_grid(self.spec.T, self.cfg.N)
        return elliptic.assemble(self.spec, self.smesh, tgrid, quad_order=self.cfg.quad_order)

    def _final_eta(self, taus: np.ndarray) -> float:
        """Data-only eta_total of a grid; tasks of a run share their final grid."""
        key = taus.tobytes()
        if key not in self._final_etas:
            grid = mesh.build_time_grid(taus)
            ind = adaptivity.compute_indicators(self.spec, None, self.smesh, grid, quad_order=self.cfg.quad_order)
            self._final_etas[key] = math.sqrt(ind.total)
        return self._final_etas[key]

    @functools.cached_property
    def _reference_p0(self) -> tuple[np.ndarray, object, float]:
        """p(0) on the 4 * n_max reference grid, the mass matrix and the M-norm of p(0)."""
        ref_grid = mesh.build_uniform_time_grid(self.spec.T, 4 * self.cfg.n_max)
        ref_sys = elliptic.assemble(self.spec, self.smesh, ref_grid, quad_order=self.cfg.quad_order)
        p0 = elliptic.solve_sparse(ref_sys).p.values[0]
        mass = fem1d.assemble_spatial_matrices(
            self.smesh, self.spec.a, self.spec.a0, quad_order=self.cfg.quad_order
        ).M
        return p0, mass, float(np.sqrt(p0 @ (mass @ p0)))

    def _final_cycle(self, taus: np.ndarray) -> tuple[float, float, float]:
        """Recomputed residual, eta_total and true_error of the last cycle, solved afresh."""
        key = taus.tobytes()
        if key not in self._final_cycles:
            grid = mesh.build_time_grid(taus)
            system = elliptic.assemble(self.spec, self.smesh, grid, quad_order=self.cfg.quad_order)
            sol = elliptic.solve_sparse(system)
            x = system.dofmap.gather(sol.p.values, sol.q.values)
            residual = float(np.linalg.norm(system.b - system.A @ x) / np.linalg.norm(system.b))
            ind = adaptivity.compute_indicators(self.spec, sol, self.smesh, grid, quad_order=self.cfg.quad_order)
            ref_p0, mass, _ = self._reference_p0
            gap = ref_p0 - sol.p.values[0]
            self._final_cycles[key] = (residual, math.sqrt(ind.total), float(np.sqrt(gap @ (mass @ gap))))
        return self._final_cycles[key]

    @functools.cached_property
    def _uniform_final_error(self) -> float:
        """uniform_error at N = n_max: the reference gap of a uniform grid with n_max intervals."""
        return float(adaptivity.uniform_initial_errors(
            self.spec, self.smesh, [self.cfg.n_max], 4 * self.cfg.n_max, quad_order=self.cfg.quad_order
        )[0])

    def _check_assimilate(self, out: Path) -> list[str]:
        problems = []
        summary = read_summary(out)
        residual = float(summary["solver_residual"])
        if not (math.isfinite(residual) and residual <= RESIDUAL_CONTRACT):
            problems.append(f"solver_residual {residual!r} breaks the 1e-10 contract")
        if float(summary["alpha"]) != self.spec.alpha:
            problems.append(f"alpha {summary['alpha']} is not the requested {self.spec.alpha!r}")

        system = self._system
        tgrid, smesh = system.dofmap.tgrid, system.dofmap.smesh
        if not np.array_equal(read_grid(out), tgrid.taus):
            problems.append("grid.txt is not the uniform grid")
        p = read_field(out / "p.csv", tgrid, smesh)
        q = read_field(out / "q.csv", tgrid, smesh)
        y = read_field(out / "y.csv", tgrid, smesh)
        x = system.dofmap.gather(p, q)
        recomputed = float(np.linalg.norm(system.b - system.A @ x) / np.linalg.norm(system.b))
        if not recomputed <= RESIDUAL_CONTRACT:
            problems.append(f"p.csv/q.csv leave a relative residual of {recomputed:.3e}")

        u_rows = read_rows(out / "u.csv")
        u = np.array([float(r["value"]) for r in u_rows])
        inner = smesh.interior
        want_u = np.zeros(smesh.d + 1)
        want_u[inner] = self.spec.y_b(smesh.nodes[inner]) - p[0, inner] / self.spec.alpha
        if u.shape != want_u.shape or _relative_gap(u, want_u) > RELATIVE_TOL:
            problems.append("u.csv is not y_b - p(0)/alpha")

        misfit = np.array([self.spec.y_d(t, smesh.nodes) for t in tgrid.taus]) - y
        rmse = float(summary["rmse"])
        want_rmse = float(np.sqrt(np.mean(misfit * misfit)))
        if not abs(rmse - want_rmse) <= RELATIVE_TOL * want_rmse:
            problems.append(f"rmse {rmse!r} differs from {want_rmse!r} recomputed from y.csv")

        if self.reference is not None:
            ref = self.reference
            if _relative_gap(u, ref["u"]) > RELATIVE_TOL:
                problems.append(f"u differs from the reference by {_relative_gap(u, ref['u']):.3e}")
            if not abs(rmse - ref["rmse"]) <= RELATIVE_TOL * ref["rmse"]:
                problems.append(f"rmse {rmse!r} differs from the reference {ref['rmse']!r}")
            if read_grid(out).tolist() != ref["grid"]:
                problems.append("grid.txt differs from the reference")
        return problems

    def _check_adapt(self, out: Path) -> list[str]:
        problems = []
        cfg = self.cfg
        taus = read_grid(out)
        coarse = mesh.build_uniform_time_grid(self.spec.T, cfg.n_initial).taus
        if taus.size != cfg.n_max + 1 or not is_bisection_refinement(taus, coarse):
            problems.append("grid.txt is not a bisection refinement reaching n_max")
        history = read_rows(out / "history.csv")
        counts = [int(r["N"]) for r in history]
        if counts != list(range(cfg.n_initial, cfg.n_max + 1)):
            problems.append(f"history N column {counts} does not step by one to n_max")
        eta = np.array([float(r["eta_total"]) for r in history])
        if not np.all(np.isfinite(eta) & (eta > 0.0)):
            problems.append("eta_total is not finite and positive")

        errors = None
        if cfg.record_reference:
            rows = read_rows(out / "error_vs_N.csv")
            errors = {
                "true_error": np.array([float(r["adaptive_error"]) for r in rows]),
                "uniform_error": np.array([float(r["uniform_error"]) for r in rows]),
            }
            history_error = np.array([float(r["true_error"]) for r in history])
            if [int(r["N"]) for r in rows] != counts or not np.array_equal(
                history_error, errors["true_error"]
            ):
                problems.append("error_vs_N.csv does not match history.csv")
            for name, values in errors.items():
                if not np.all(np.isfinite(values) & (values >= 0.0)):
                    problems.append(f"{name} is not finite and nonnegative")
            # Cycle 0 runs on the uniform start, the grid of the first uniform_error.
            tol = RELATIVE_TOL * self._reference_p0[2]
            if not abs(errors["true_error"][0] - errors["uniform_error"][0]) <= tol:
                problems.append("first true_error differs from the first uniform_error")
            residual, final_eta, final_error = self._final_cycle(taus)
            if not (math.isfinite(residual) and residual <= RESIDUAL_CONTRACT):
                problems.append(f"solve on the final grid leaves a residual of {residual!r}")
            if not abs(final_eta - eta[-1]) <= RELATIVE_TOL * eta[-1]:
                problems.append("last eta_total differs from the indicator of the final grid's solution")
            if not abs(final_error - errors["true_error"][-1]) <= tol:
                problems.append("last true_error differs from the gap recomputed on the final grid")
            if not abs(self._uniform_final_error - errors["uniform_error"][-1]) <= tol:
                problems.append("last uniform_error differs from the gap recomputed at N = n_max")
        else:
            final = self._final_eta(taus)
            if not abs(final - eta[-1]) <= RELATIVE_TOL * eta[-1]:
                problems.append("last eta_total differs from the indicator of the final grid")

        if self.reference is not None:
            ref = self.reference
            if taus.tolist() != ref["grid"]:
                problems.append("grid.txt differs from the reference")
            if counts != ref["N"]:
                problems.append("history N column differs from the reference")
            want_eta = np.asarray(ref["eta_total"])
            if eta.shape != want_eta.shape or np.any(np.abs(eta - want_eta) > RELATIVE_TOL * want_eta):
                problems.append("eta_total differs from the reference")
            if errors is not None:
                tol = RELATIVE_TOL * ref["p0_norm"]
                for name, values in errors.items():
                    want = np.asarray(ref[name])
                    if values.shape != want.shape or np.max(np.abs(values - want)) > tol:
                        problems.append(f"{name} differs from the reference by more than {tol:.3e}")
        return problems

