"""Record the seed-0 reference outputs that checks.py compares against.

    python3 bench/record_reference.py

Runs each workload's task once at seed 0 and writes reference_seed0.json.
The committed file was recorded from the commit that introduced the
benchmark; re-recording it from a later commit would hide any change in the
results that commit made.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import varda.cli as cli  # noqa: E402
from varda import elliptic, fem1d, mesh  # noqa: E402


def reference_p0_norm(spec, smesh: mesh.SpatialMesh, n_reference: int, quad_order: int) -> float:
    """Mass-matrix norm of the p(0) that the adapt loop's errors are measured against."""
    grid = mesh.build_uniform_time_grid(spec.T, n_reference)
    p0 = elliptic.solve_sparse(elliptic.assemble(spec, smesh, grid, quad_order=quad_order)).p.values[0]
    mass = fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0, quad_order=quad_order).M
    return float(np.sqrt(p0 @ (mass @ p0)))


def record(workload: str, out: Path) -> dict:
    argv = run.task_argv(workload, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--output-dir", str(out)])
    if code != 0:
        raise SystemExit(f"{workload}: exit code {code}")
    ref: dict = {"grid": checks.read_grid(out).tolist()}
    if argv[0] == "assimilate":
        ref["u"] = [float(r["value"]) for r in checks.read_rows(out / "u.csv")]
        ref["rmse"] = float(checks.read_summary(out)["rmse"])
        return ref
    history = checks.read_rows(out / "history.csv")
    ref["N"] = [int(r["N"]) for r in history]
    ref["eta_total"] = [float(r["eta_total"]) for r in history]
    if (out / "error_vs_N.csv").is_file():
        rows = checks.read_rows(out / "error_vs_N.csv")
        ref["true_error"] = [float(r["adaptive_error"]) for r in rows]
        ref["uniform_error"] = [float(r["uniform_error"]) for r in rows]
        cfg = cli.build_config(dict(a.split("=", 1) for a in argv[1:]))
        spec, _ = cli.resolve_problem(cfg)
        smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
        ref["p0_norm"] = reference_p0_norm(spec, smesh, 4 * cfg.n_max, cfg.quad_order)
    return ref


def main() -> None:
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR))
    try:
        refs = {w: record(w, work / w) for w in run.WORKLOADS}
    finally:
        shutil.rmtree(work)
    checks.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
