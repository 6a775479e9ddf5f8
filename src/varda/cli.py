"""Command line driver: config parsing, experiment runs, CSV emission.

Four subcommands cover the workflows the library supports: `assimilate`
solves one problem and dumps the fields, `adapt` runs the refinement loop,
`reproduce` re-runs the published sweeps and tabulates computed against
published numbers, and `oracle-check` cross-validates the space-time solver
against the brute-force discrete optimizer.

Configuration is flat key=value text (section prefixes like `grid.N`),
overridable from the command line; see KEY_HELP for the full key set.  All
files are written atomically and numbers carry 17 significant digits, so
reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import adaptivity, assimilation, elliptic, fem1d, forward, mesh, problems

__all__ = [
    "RunConfig",
    "CliError",
    "parse_config_text",
    "build_config",
    "cmd_assimilate",
    "cmd_adapt",
    "cmd_reproduce",
    "cmd_oracle_check",
    "main",
]

OUTPUT_DIR_ENV = "VARDA_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_THRESHOLD = 3

_TABLE1_ALPHAS = (0.01, 0.1, 0.25, 0.5, 1.0, 3.0, 10.0)
_TABLE1_TARGETS = {
    "example1i": {
        "baseline": 0.3436,
        0.01: 0.0076,
        0.1: 0.0640,
        0.25: 0.1252,
        0.5: 0.1835,
        1.0: 0.2392,
        3.0: 0.3000,
        10.0: 0.3292,
    },
    "example1ii": {
        "baseline": 0.5298,
        0.01: 0.0210,
        0.1: 0.1425,
        0.25: 0.2401,
        0.5: 0.3215,
        1.0: 0.3952,
        3.0: 0.4738,
        10.0: 0.5114,
    },
}
_EXAMPLE2_TARGETS = {
    "rmse_before": 0.7301,
    "rmse_after": 0.5314,
    "e_max_before": 1.514,
    "e_max_after": 1.062,
}
# The trust weight the published example-2 numbers belong to.
_EXAMPLE2_ALPHA = 0.6
_EXAMPLE3_EPS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


class CliError(Exception):
    """Failure with a user-facing message and a chosen exit code."""

    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class RunConfig:
    """One command's resolved settings.

    Problem parameters default to None, meaning the catalog entry's own
    default; they are routed only to problems that accept them, so a stray
    eps on example1i is rejected rather than silently dropped.
    """

    name: str = "example1i"
    alpha: float | None = None
    nu: float | None = None
    eps: float | None = None
    m: float | None = None
    d: int = 40
    N: int = 40
    strategy: str = "MAX"
    adapt_theta: float = 0.5
    n_initial: int = 5
    n_max: int = 40
    snapshots: bool = False
    record_reference: bool = False
    quad_order: int = 3
    theta_scheme: float = 0.5
    output_dir: str = "out"
    levels: tuple[int, ...] = (10, 20, 40)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_levels(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# key -> (RunConfig attribute, caster)
_KEYS = {
    "problem.name": ("name", str),
    "problem.alpha": ("alpha", float),
    "problem.nu": ("nu", float),
    "problem.eps": ("eps", float),
    "problem.m": ("m", float),
    "grid.d": ("d", int),
    "grid.N": ("N", int),
    "adapt.strategy": ("strategy", str),
    "adapt.theta": ("adapt_theta", float),
    "adapt.n_initial": ("n_initial", int),
    "adapt.n_max": ("n_max", int),
    "adapt.snapshots": ("snapshots", _parse_bool),
    "adapt.record_reference": ("record_reference", _parse_bool),
    "quad_order": ("quad_order", int),
    "theta_scheme": ("theta_scheme", float),
    "output_dir": ("output_dir", str),
    "oracle.levels": ("levels", _parse_levels),
}

KEY_HELP = ", ".join(sorted(_KEYS))


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Read flat key=value lines; '#' comments and blank lines are skipped."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Validate a merged key=value mapping into a RunConfig."""
    cfg = RunConfig()
    for key, value in pairs.items():
        if key not in _KEYS:
            raise CliError(f"unknown config key {key!r}; known keys: {KEY_HELP}")
        attr, caster = _KEYS[key]
        try:
            setattr(cfg, attr, caster(value))
        except ValueError as exc:
            raise CliError(f"bad value for {key}: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.name not in problems.CATALOG:
        known = ", ".join(sorted(problems.CATALOG))
        raise CliError(f"unknown problem {cfg.name!r}; known problems: {known}")
    for field_name, label in (("alpha", "problem.alpha"), ("nu", "problem.nu"), ("eps", "problem.eps")):
        value = getattr(cfg, field_name)
        if value is not None and not value > 0.0:
            raise CliError(f"{label} must be positive, got {value}")
    if cfg.d < 2:
        raise CliError(f"grid.d must be at least 2, got {cfg.d}")
    if cfg.N < 1:
        raise CliError(f"grid.N must be at least 1, got {cfg.N}")
    if cfg.quad_order not in (1, 2, 3):
        raise CliError(f"quad_order must be 1, 2 or 3, got {cfg.quad_order}")
    if not 0.0 <= cfg.theta_scheme <= 1.0:
        raise CliError(f"theta_scheme must lie in [0, 1], got {cfg.theta_scheme}")
    if not cfg.levels or any(n < 2 for n in cfg.levels):
        raise CliError(f"oracle.levels must be integers >= 2, got {cfg.levels}")
    allowed = problems.CATALOG[cfg.name]
    for param in ("alpha", "nu", "eps", "m"):
        if getattr(cfg, param) is not None and param not in allowed:
            raise CliError(f"problem {cfg.name!r} does not take problem.{param}")


def resolve_problem(cfg: RunConfig):
    """Instantiate the configured problem; returns (spec, exact_p or None)."""
    kwargs = {
        param: getattr(cfg, param)
        for param in problems.CATALOG[cfg.name]
        if getattr(cfg, param) is not None
    }
    try:
        return problems.build(cfg.name, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _prepare_output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def format_field_csv(field_: mesh.SpaceTimeField) -> str:
    """Field dump: columns t,x,value, row order time-major."""
    # The t and x strings are shared by many cells; only values vary per cell.
    xs = [_fmt(x) for x in field_.smesh.nodes]
    lines = ["t,x,value"]
    for t, row in zip(field_.tgrid.taus, field_.values.tolist()):
        ts = _fmt(t)
        lines.extend([f"{ts},{x},{v:.17g}" for x, v in zip(xs, row)])
    return "\n".join(lines) + "\n"


def _write_field(out: Path, name: str, field_: mesh.SpaceTimeField) -> None:
    _atomic_write(out / name, format_field_csv(field_))


def _write_mesh_txt(out: Path, smesh: mesh.SpatialMesh) -> None:
    lines = [_fmt(x) for x in smesh.nodes]
    _atomic_write(out / "mesh.txt", "\n".join(lines) + "\n")


def _write_grid_txt(out: Path, name: str, tgrid: mesh.TimeGrid) -> None:
    _atomic_write(out / name, mesh.format_time_grid(tgrid))


def _comparison_csv(rows: list[tuple[str, float | None, float]]) -> str:
    """Rows of setting, published value where known, computed, relative gap."""
    lines = ["setting,paper_value,computed_value,relative_difference"]
    for setting, target, computed in rows:
        if target is None:
            lines.append(f"{setting},,{_fmt(computed)},")
        else:
            rel = (computed - target) / target
            lines.append(f"{setting},{_fmt(target)},{_fmt(computed)},{_fmt(rel)}")
    return "\n".join(lines) + "\n"


def _resolved_nu(cfg: RunConfig) -> float:
    return 0.1 if cfg.nu is None else cfg.nu


def _baseline_state(spec, smesh: mesh.SpatialMesh, tgrid: mesh.TimeGrid, cfg: RunConfig):
    """March the model from the background guess without any assimilation."""
    u0 = fem1d._coefficient_at(spec.y_b, smesh.nodes).copy()
    u0[0] = 0.0
    u0[-1] = 0.0
    scheme = forward.ThetaSchemeConfig(theta=cfg.theta_scheme, tgrid=tgrid)
    return forward.solve_state(spec, u0, scheme, smesh, quad_order=cfg.quad_order)


def _max_misfit(field_: mesh.SpaceTimeField, y_ref) -> float:
    y_ref_nodal = fem1d.sample(y_ref, field_.tgrid.taus, field_.smesh.nodes)
    return float(np.max(np.abs(y_ref_nodal - field_.values)))


def cmd_assimilate(cfg: RunConfig) -> int:
    spec, _ = resolve_problem(cfg)
    smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
    tgrid = mesh.build_uniform_time_grid(spec.T, cfg.N)
    result = assimilation.assimilate(
        spec, smesh, tgrid, quad_order=cfg.quad_order, theta=cfg.theta_scheme
    )
    out = _prepare_output_dir(cfg)
    _write_field(out, "p.csv", result.p)
    _write_field(out, "q.csv", result.q)
    _write_field(out, "y.csv", result.y)
    u_lines = ["x,value"] + [
        f"{_fmt(x)},{_fmt(v)}" for x, v in zip(smesh.nodes, result.u)
    ]
    _atomic_write(out / "u.csv", "\n".join(u_lines) + "\n")
    _write_grid_txt(out, "grid.txt", tgrid)
    _write_mesh_txt(out, smesh)
    summary = "\n".join(
        [
            f"rmse={_fmt(result.rmse)}",
            f"alpha={_fmt(result.alpha)}",
            f"nu={_fmt(_resolved_nu(cfg))}",
            f"d={cfg.d}",
            f"N={cfg.N}",
            f"solver_residual={_fmt(result.solver_residual)}",
        ]
    )
    _atomic_write(out / "summary.txt", summary + "\n")
    print(f"assimilated {cfg.name}: rmse={_fmt(result.rmse)} -> {out}")
    return EXIT_OK


def cmd_adapt(cfg: RunConfig) -> int:
    # AdaptConfig checks the adapt.* keys; a bad one raises ValueError here.
    acfg = adaptivity.AdaptConfig(
        strategy=cfg.strategy,
        theta_mark=cfg.adapt_theta,
        n_initial=cfg.n_initial,
        n_max=cfg.n_max,
        record_reference_error=cfg.record_reference,
    )
    spec, _ = resolve_problem(cfg)
    smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
    tgrid, history = adaptivity.adapt_loop(spec, smesh, acfg, quad_order=cfg.quad_order)
    out = _prepare_output_dir(cfg)
    _atomic_write(out / "history.csv", adaptivity.format_history_csv(history))
    _write_grid_txt(out, "grid.txt", tgrid)
    if cfg.snapshots:
        for rec in history.cycles:
            snap = mesh.build_time_grid(rec.taus)
            _write_grid_txt(out, f"grid_cycle{rec.cycle:03d}.txt", snap)
    if cfg.record_reference:
        counts = [rec.n_intervals for rec in history.cycles]
        uniform = adaptivity.uniform_initial_errors(
            spec, smesh, counts, 4 * cfg.n_max, quad_order=cfg.quad_order
        )
        lines = ["N,eta_total,adaptive_error,uniform_error"]
        for rec, ue in zip(history.cycles, uniform):
            lines.append(
                f"{rec.n_intervals},{_fmt(rec.eta_total)},{_fmt(rec.true_error)},{_fmt(ue)}"
            )
        _atomic_write(out / "error_vs_N.csv", "\n".join(lines) + "\n")
    print(f"adapted {cfg.name}: N={tgrid.N} after {len(history.cycles) - 1} cycles -> {out}")
    return EXIT_OK


def _reproduce_table1(cfg: RunConfig, out: Path) -> Path:
    rows: list[tuple[str, float | None, float]] = []
    for name in ("example1i", "example1ii"):
        targets = _TABLE1_TARGETS[name]
        variant_cfg = replace(cfg, name=name, alpha=None, eps=None, m=None)
        spec, _ = resolve_problem(variant_cfg)
        smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
        tgrid = mesh.build_uniform_time_grid(spec.T, cfg.N)
        baseline = _baseline_state(spec, smesh, tgrid, cfg)
        rows.append((f"{name} baseline", targets["baseline"], assimilation.rmse(baseline, spec.y_d)))
        for alpha in _TABLE1_ALPHAS:
            spec_a, _ = resolve_problem(replace(variant_cfg, alpha=alpha))
            result = assimilation.assimilate(
                spec_a, smesh, tgrid, quad_order=cfg.quad_order, theta=cfg.theta_scheme
            )
            rows.append((f"{name} alpha={alpha:g}", targets[alpha], result.rmse))
    path = out / "table1.csv"
    _atomic_write(path, _comparison_csv(rows))
    return path


def _reproduce_example2(cfg: RunConfig, out: Path) -> Path:
    alpha = _EXAMPLE2_ALPHA if cfg.alpha is None else cfg.alpha
    spec, _ = resolve_problem(replace(cfg, name="example2", alpha=alpha, m=None))
    smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
    tgrid = mesh.build_uniform_time_grid(spec.T, cfg.N)
    baseline = _baseline_state(spec, smesh, tgrid, cfg)
    result = assimilation.assimilate(
        spec, smesh, tgrid, quad_order=cfg.quad_order, theta=cfg.theta_scheme
    )
    rows = [
        ("example2 rmse_before", _EXAMPLE2_TARGETS["rmse_before"], assimilation.rmse(baseline, spec.y_d)),
        ("example2 rmse_after", _EXAMPLE2_TARGETS["rmse_after"], result.rmse),
        ("example2 e_max_before", _EXAMPLE2_TARGETS["e_max_before"], _max_misfit(baseline, spec.y_d)),
        ("example2 e_max_after", _EXAMPLE2_TARGETS["e_max_after"], _max_misfit(result.y, spec.y_d)),
    ]
    path = out / "example2.csv"
    _atomic_write(path, _comparison_csv(rows))
    return path


def _reproduce_example3(cfg: RunConfig, out: Path) -> Path:
    rows: list[tuple[str, float | None, float]] = []
    for eps in _EXAMPLE3_EPS:
        spec, exact_p = problems.example3(eps=eps)
        smesh = mesh.build_spatial_mesh(*spec.domain, cfg.d)
        acfg = adaptivity.AdaptConfig(strategy="MAX", n_initial=5, n_max=30)
        tgrid, _ = adaptivity.adapt_loop(spec, smesh, acfg, quad_order=cfg.quad_order)
        _write_grid_txt(out, f"grid_eps{eps:g}.txt", tgrid)
        exact0 = exact_p(0.0, smesh.nodes)
        sol = elliptic.solve_sparse(
            elliptic.assemble(spec, smesh, tgrid, quad_order=cfg.quad_order)
        )
        rows.append(
            (f"example3 eps={eps:g} mse_adaptive_N30", None,
             assimilation.mse_initial(sol.p.values[0], exact0))
        )
        uniform_grid = mesh.build_uniform_time_grid(spec.T, 30)
        sol_u = elliptic.solve_sparse(
            elliptic.assemble(spec, smesh, uniform_grid, quad_order=cfg.quad_order)
        )
        rows.append(
            (f"example3 eps={eps:g} mse_uniform_N30", None,
             assimilation.mse_initial(sol_u.p.values[0], exact0))
        )
    path = out / "example3.csv"
    _atomic_write(path, _comparison_csv(rows))
    return path


def cmd_reproduce(target: str, cfg: RunConfig) -> int:
    out = _prepare_output_dir(cfg)
    if target == "table1":
        path = _reproduce_table1(cfg, out)
    elif target == "example2":
        path = _reproduce_example2(cfg, out)
    elif target == "example3":
        path = _reproduce_example3(cfg, out)
    else:
        raise CliError(f"unknown reproduce target {target!r}; pick table1, example2 or example3")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    for n in cfg.levels:
        dense_size = (n + 1) * (n - 1)
        if dense_size > forward.ORACLE_SIZE_CAP:
            raise CliError(
                f"oracle level d=N={n} needs a dense map of {dense_size} columns, "
                f"above the cap of {forward.ORACLE_SIZE_CAP}"
            )
    base_spec, _ = resolve_problem(cfg)
    diffs: list[float] = []
    for n in cfg.levels:
        smesh = mesh.build_spatial_mesh(*base_spec.domain, n)
        tgrid = mesh.build_uniform_time_grid(base_spec.T, n)
        result = assimilation.assimilate(
            base_spec, smesh, tgrid, quad_order=cfg.quad_order, theta=cfg.theta_scheme
        )
        u_oracle = forward.kkt_oracle(base_spec, smesh, tgrid, quad_order=cfg.quad_order)
        diffs.append(
            float(np.linalg.norm(result.u - u_oracle) / np.linalg.norm(u_oracle))
        )
    orders = [
        float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)
    ]
    observed = min(orders) if orders else float("nan")
    out = _prepare_output_dir(cfg)
    lines = ["d,N,relative_control_difference,order"]
    for i, n in enumerate(cfg.levels):
        order_cell = "" if i == 0 else _fmt(orders[i - 1])
        lines.append(f"{n},{n},{_fmt(diffs[i])},{order_cell}")
    _atomic_write(out / "oracle_check.csv", "\n".join(lines) + "\n")
    for n, diff in zip(cfg.levels, diffs):
        print(f"d=N={n}: relative control difference {_fmt(diff)}")
    print(f"observed order {_fmt(observed)}")
    if not observed >= 0.8:
        raise CliError(
            f"observed convergence order {observed:.3f} is below the 0.8 threshold",
            EXIT_THRESHOLD,
        )
    return EXIT_OK


def _merge_pairs(args: argparse.Namespace) -> RunConfig:
    pairs: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        pairs.update(parse_config_text(path.read_text(), source=str(path)))
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        pairs["output_dir"] = env_dir
    for item in args.overrides:
        if "=" not in item:
            raise CliError(f"expected key=value override, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    if args.output_dir is not None:
        pairs["output_dir"] = args.output_dir
    return build_config(pairs)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--output-dir", help="where to write artifacts")
    sub.add_argument(
        "overrides",
        nargs="*",
        metavar="KEY=VALUE",
        help=f"config overrides; keys: {KEY_HELP}",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varda",
        description="Initial-condition assimilation for 1-D parabolic problems "
        "via one space-time solve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("assimilate", help="solve one problem and dump the fields"))
    _add_common(sub.add_parser("adapt", help="run the adaptive time-grid loop"))
    rep = sub.add_parser("reproduce", help="re-run a published sweep")
    rep.add_argument("target", help="table1, example2 or example3")
    _add_common(rep)
    _add_common(sub.add_parser("oracle-check", help="cross-validate against the dense optimizer"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _merge_pairs(args)
        if args.command == "assimilate":
            return cmd_assimilate(cfg)
        if args.command == "adapt":
            return cmd_adapt(cfg)
        if args.command == "reproduce":
            return cmd_reproduce(args.target, cfg)
        return cmd_oracle_check(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (elliptic.EllipticSolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
