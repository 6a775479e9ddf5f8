"""Command line driver: config parsing, experiment runs, CSV emission.

Four subcommands cover the workflows the library supports: `assimilate`
solves one problem and dumps the fields, `adapt` runs the refinement loop,
`reproduce` re-runs the published sweeps and tabulates computed against
published numbers, and `oracle-check` cross-validates the space-time solver
against the closed-form discrete optimizer.

Configuration is flat key=value text (section prefixes like `grid.N`),
overridable from the command line; see KEY_HELP for the full key set.  All
files are written atomically and numbers carry 17 significant digits, so
reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
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
    default; problems.build checks those that are set, so a stray eps on
    example1i is rejected rather than silently dropped.
    """

    name: str = "example1i"
    alpha: float | None = None
    nu: float | None = None
    eps: float | None = None
    m: float | None = None
    d: int = 40
    N: int = 40
    strategy: str = adaptivity.AdaptConfig.strategy
    adapt_theta: float = adaptivity.AdaptConfig.theta_mark
    n_initial: int = adaptivity.AdaptConfig.n_initial
    n_max: int = adaptivity.AdaptConfig.n_max
    snapshots: bool = False
    record_reference: bool = False
    quad_order: int = 3
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
    if cfg.d < 2:
        raise CliError(f"grid.d must be at least 2, got {cfg.d}")
    if cfg.N < 1:
        raise CliError(f"grid.N must be at least 1, got {cfg.N}")
    if cfg.quad_order not in (1, 2, 3):
        raise CliError(f"quad_order must be 1, 2 or 3, got {cfg.quad_order}")
    if len(cfg.levels) < 2 or any(n < 2 for n in cfg.levels):
        raise CliError(f"oracle.levels must list at least two integers >= 2, got {cfg.levels}")
    if any(a >= b for a, b in zip(cfg.levels, cfg.levels[1:])):
        raise CliError(f"oracle.levels must increase, got {cfg.levels}")


def resolve_problem(cfg: RunConfig):
    """(spec, exact_p or None) of the configured problem, from problems.build: the one check of the problem.* keys."""
    values = {attr: getattr(cfg, attr) for key, (attr, _) in _KEYS.items() if key.startswith("problem.")}
    kwargs = {attr: value for attr, value in values.items() if attr != "name" and value is not None}
    try:
        return problems.build(cfg.name, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: Path, text: str | Iterable[bytes]) -> None:
    """Write text, or an iterable's bytes blocks, to a temp file, then rename it to path; on error remove it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as file:
            file.writelines([text.encode()] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _prepare_output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


class FieldCsv:
    """Field dumps, columns t,x,value, time-major, in blocks of whole time rows of about CHUNK cells.

    A block is a table of 75 bytes per cell: t at bytes 0-23, x at 25-48 and the value at 50-73,
    each the text b"%.17g" % v NUL-padded to 24 bytes, commas at 24 and 49 and a newline at 74.
    Its bytes are the table's without the NULs.  `cells` computes the text:

    - digits: D in [10^16, 10^17) and the exponent E give round(|v| * 10^(16-E)), half to even.
      10^k is held as hi + lo and |v| * hi split exactly by Dekker's TwoProduct, so D is the exact
      product rounded where 10^k is a double (0 <= k <= 22), and elsewhere comes from a product
      known to within 1e-14.  E moves while D falls outside its range; D = 10^17 carries.
    - layout: %g's fixed notation for -4 <= E < 17 and d.ddde[+-]XX otherwise, trailing zeros and a
      bare point stripped, "-" from the sign bit (so -0.0 gives "-0"): each value's text is
      gathered from a row of its digits and punctuation by one of 2 x 22 x 17 index rows, one per
      sign, notation and number of significant digits.

    A value keeps the per-value % path when its digits are not proven: it is not finite, lies
    outside LOW <= |v| < HIGH, or, where 10^k is not a double, lies within 1e-13 of a tie.
    % writes into the same 24 bytes: no %.17g text is longer than a sign, 17 digits, "." and e-XXX.
    """

    CHUNK = 8192
    # The window keeps E in [-99, 98] (99 after a carry), so the exponent has two digits.  10^k
    # is tabled for k = 16 - E with E within one of that, where log10 puts the first guess.
    LOW, HIGH = 1e-98, 1e99
    K_MIN, K_MAX = 16 - 99, 16 + 100
    SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
    # A value's source row of 32 bytes, named: "A" and "B".."Q" are its 17 digits, "s", "X" and
    # "Y" the exponent's sign and digits, "_" the NULs that pad a text to 24 bytes.
    SOURCE = "A0.-esXYBCDEFGHIJKLMNOPQ_"

    def __init__(self) -> None:
        hi, lo = [], []
        for k in range(self.K_MIN, self.K_MAX + 1):
            num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
            hi.append(num / den)  # int / int rounds correctly
            h_num, h_den = hi[-1].as_integer_ratio()
            lo.append((num * h_den - h_num * den) / (den * h_den))
        self.pow10 = np.array([hi, *self._split(np.array(hi)), lo])
        # Bytes 0-7 of a source row by E, the first digit left out.
        self.word0 = np.array(
            [int.from_bytes(b"\x000.-e" + b"%+03d" % e, "little") for e in range(-99, 100)], dtype=np.uint64
        )
        # Row (sign * 22 + form) * 17 + n - 1 names the source bytes of the text with n significant
        # digits in notation `form`: E + 4 for fixed notation, 21 for d.ddde[+-]XX.
        digits, layouts = self.SOURCE[0] + self.SOURCE[8:24], []
        for sign in ("", "-"):
            for form in range(22):
                for n in range(1, 18):
                    if form == 21:
                        body = digits[0] + ("." + digits[1:n] if n > 1 else "") + "esXY"
                    elif form < 4:
                        body = "0." + "0" * (3 - form) + digits[:n]
                    else:
                        point = form - 3  # E + 1 digits before it
                        body = digits[:point] + ("." + digits[point:n] if n > point else "")
                    layouts.append((sign + body).ljust(24, "_"))
        names = bytes.maketrans(self.SOURCE.encode(), bytes(range(len(self.SOURCE))))
        layouts = np.frombuffer("".join(layouts).encode().translate(names), np.uint8)
        self.layouts = layouts.reshape(-1, 24).astype(np.intp)

    @classmethod
    def _split(cls, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = cls.SPLIT * a
        high = c - (c - a)
        return high, a - high

    def _scaled(self, a: np.ndarray, e10: np.ndarray):
        """round(a * 10^(16 - e10)) half to even, the fraction rounded off, and whether the
        product lies below 1e16, so that e10 is too large."""
        hi, hi_high, hi_low, lo = np.take(self.pow10, 16 - self.K_MIN - e10, axis=1)
        p = a * hi
        a_high, a_low = self._split(a)
        r = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low + a * lo
        # p >= 1e16 > 2^53 is an even integer, so rint's tie to even is the product's.
        n = np.rint(r)
        below = (p < 1e16) | ((p == 1e16) & (r < 0.0))
        return p.astype(np.int64) + n.astype(np.int64), r - n, below

    @staticmethod
    def _digit_bytes(x: np.ndarray) -> np.ndarray:
        """The 8 decimal digits of each x < 10^8, one per byte, the first in the lowest byte."""
        high = x // 10000
        x = high | ((x - high * 10000) << 32)
        q = ((x * 5243) >> 19) & 0x0000007F0000007F  # x // 100 in each 32-bit lane
        x = q | ((x - q * 100) << 16)
        q = ((x * 103) >> 10) & 0x000F000F000F000F  # x // 10 in each 16-bit lane
        return q | ((x - q * 10) << 8)

    def cells(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(text, slow) for a 1-d float64 array: text[i] holds b"%.17g" % values[i], left-aligned
        in 24 NUL-padded bytes, wherever slow[i] is False."""
        a = np.abs(values)
        zero = a == 0.0
        slow = ~((a >= self.LOW) & (a < self.HIGH) | zero)
        a[slow | zero] = 1.0  # stands in; a zero's digits are set below
        e10 = np.floor(np.log10(a)).astype(np.int64)
        D, frac, below = self._scaled(a, e10)
        while True:  # log10 may be one off near a power of ten
            step = (D > 10**17).astype(np.int64) - below
            redo = np.flatnonzero(step)
            if not redo.size:
                break
            e10[redo] += step[redo]
            D[redo], frac[redo], below[redo] = self._scaled(a[redo], e10[redo])
        inexact = (e10 < -6) | (e10 > 16)  # 10^(16 - E) is a double for E in [-6, 16]
        slow |= inexact & (np.abs(np.abs(frac) - 0.5) < 1e-13)
        carry = D == 10**17
        D[carry] = 10**16
        e10[carry] += 1
        D[zero] = 0
        e10[zero] = 0
        D = D.view(np.uint64)
        top = D // 10**8
        first = top // 10**8
        w1 = self._digit_bytes(top - first * 10**8)
        w2 = self._digit_bytes(D - top * 10**8)
        # n = 1 + the index of the last nonzero digit; bit b of `nonzero` marks byte b of `last`.
        last = np.where(w2 != 0, w2, w1)
        last |= (last >> 1) | (last >> 2) | (last >> 3)
        nonzero = ((last & 0x0101010101010101) * 0x0102040810204080) >> 56
        n = np.where(w2 != 0, 9, 1) + np.frexp(nonzero.astype(np.float64))[1]
        form = np.where((e10 >= -4) & (e10 < 17), e10 + 4, 21)
        key = (np.signbit(values) * 22 + form) * 17 + n - 1
        rows = np.empty((values.size, 4), np.uint64)
        rows[:, 0] = np.take(self.word0, e10 + 99) | (first + 48)
        rows[:, 1] = w1 + 0x3030303030303030
        rows[:, 2] = w2 + 0x3030303030303030
        rows[:, 3] = 0
        index = np.take(self.layouts, key, axis=0)
        index += np.arange(0, 32 * values.size, 32)[:, None]
        return np.take(rows.view(np.uint8).ravel(), index), slow

    def _text(self, values: np.ndarray) -> np.ndarray:
        """`cells`' text, with b"%.17g" % v in place for each value v that it leaves."""
        text, slow = self.cells(values)
        for i in np.flatnonzero(slow).tolist():
            text.view("S24")[i] = b"%.17g" % float(values[i])  # NUL-padded to 24 bytes
        return text

    def format(self, field_: mesh.SpaceTimeField) -> Iterator[bytes]:
        """field_'s dump: the header, then its blocks."""
        yield b"t,x,value\n"
        taus, values = field_.tgrid.taus, field_.values
        block = max(1, self.CHUNK // values.shape[1])  # time rows per block
        table = np.empty((min(block, len(taus)), values.shape[1], 75), np.uint8)
        table[..., 25:49] = self._text(field_.smesh.nodes)  # x and the separators: once per dump
        table[..., [24, 49, 74]] = np.frombuffer(b",,\n", np.uint8)
        for i in range(0, len(taus), block):
            rows = table[: len(taus[i : i + block])]
            rows[..., :24] = self._text(taus[i : i + block])[:, None]
            rows[..., 50:74] = self._text(values[i : i + block].ravel()).reshape(len(rows), -1, 24)
            yield rows[rows != 0].tobytes()


def format_history_csv(history: adaptivity.AdaptHistory) -> str:
    """CSV rows cycle,N,eta_total,true_error (empty when not recorded)."""
    lines = ["cycle,N,eta_total,true_error"]
    for rec in history.cycles:
        err = "" if rec.true_error is None else _fmt(rec.true_error)
        lines.append(f"{rec.cycle},{rec.n_intervals},{_fmt(rec.eta_total)},{err}")
    return "\n".join(lines) + "\n"


def _write_nodes(path: Path, nodes: np.ndarray) -> None:
    _atomic_write(path, "".join(_fmt(v) + "\n" for v in nodes))


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


def _build_space(spec, d: int, cfg: RunConfig) -> fem1d.SpatialOperatorMatrices:
    """The spatial operator of spec on a uniform mesh of d cells; one per problem and mesh."""
    smesh = mesh.build_spatial_mesh(*spec.domain, d)
    return fem1d.assemble_spatial_matrices(smesh, spec.a, spec.a0, quad_order=cfg.quad_order)


def _baseline_state(spec, space: fem1d.SpatialOperatorMatrices, tgrid: mesh.TimeGrid):
    """March the model from the background guess without any assimilation."""
    u0 = fem1d._coefficient_at(spec.y_b, space.smesh.nodes).copy()
    u0[[0, -1]] = 0.0
    return forward.solve_state(spec, u0, tgrid, space)


def _max_misfit(field_: mesh.SpaceTimeField, y_ref) -> float:
    y_ref_nodal = fem1d.sample(y_ref, field_.tgrid.taus, field_.smesh.nodes)
    return float(np.max(np.abs(y_ref_nodal - field_.values)))


def cmd_assimilate(cfg: RunConfig) -> int:
    spec, _ = resolve_problem(cfg)
    space = _build_space(spec, cfg.d, cfg)
    smesh, tgrid = space.smesh, mesh.build_uniform_time_grid(spec.T, cfg.N)
    result = assimilation.assimilate(spec, smesh, tgrid, space=space)
    out, csv = _prepare_output_dir(cfg), FieldCsv()
    for name, field_ in (("p.csv", result.p), ("q.csv", result.q), ("y.csv", result.y)):
        _atomic_write(out / name, csv.format(field_))
    u_lines = ["x,value"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(smesh.nodes, result.u)]
    _atomic_write(out / "u.csv", "\n".join(u_lines) + "\n")
    _write_nodes(out / "grid.txt", tgrid.taus)
    _write_nodes(out / "mesh.txt", smesh.nodes)
    summary = "\n".join(
        [
            f"rmse={_fmt(result.rmse)}",
            f"alpha={_fmt(result.alpha)}",
            f"nu={_fmt(problems.parameters(cfg.name)['nu'] if cfg.nu is None else cfg.nu)}",
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
    _atomic_write(out / "history.csv", format_history_csv(history))
    _write_nodes(out / "grid.txt", tgrid.taus)
    if cfg.snapshots:
        for rec in history.cycles:
            _write_nodes(out / f"grid_cycle{rec.cycle:03d}.txt", rec.taus)
    if cfg.record_reference:
        lines = ["N,eta_total,adaptive_error,uniform_error"] + [
            f"{rec.n_intervals},{_fmt(rec.eta_total)},{_fmt(rec.true_error)},{_fmt(rec.uniform_error)}"
            for rec in history.cycles
        ]
        _atomic_write(out / "error_vs_N.csv", "\n".join(lines) + "\n")
    print(f"adapted {cfg.name}: N={tgrid.N} after {len(history.cycles) - 1} cycles -> {out}")
    return EXIT_OK


def _reproduce_table1(cfg: RunConfig, out: Path) -> Path:
    rows: list[tuple[str, float | None, float]] = []
    for name in ("example1i", "example1ii"):
        targets = _TABLE1_TARGETS[name]
        spec, _ = resolve_problem(replace(cfg, name=name, alpha=None, eps=None, m=None))
        space = _build_space(spec, cfg.d, cfg)
        tgrid = mesh.build_uniform_time_grid(spec.T, cfg.N)
        baseline = _baseline_state(spec, space, tgrid)
        rows.append((f"{name} baseline", targets["baseline"], assimilation.rmse(baseline, spec.y_d)))
        for alpha in _TABLE1_ALPHAS:
            # replace keeps the a, a0 callables, so the sweep shares one space.
            result = assimilation.assimilate(replace(spec, alpha=alpha), space.smesh, tgrid, space=space)
            rows.append((f"{name} alpha={alpha:g}", targets[alpha], result.rmse))
    path = out / "table1.csv"
    _atomic_write(path, _comparison_csv(rows))
    return path


def _reproduce_example2(cfg: RunConfig, out: Path) -> Path:
    alpha = _EXAMPLE2_ALPHA if cfg.alpha is None else cfg.alpha
    spec, _ = resolve_problem(replace(cfg, name="example2", alpha=alpha, m=None))
    space = _build_space(spec, cfg.d, cfg)
    tgrid = mesh.build_uniform_time_grid(spec.T, cfg.N)
    baseline = _baseline_state(spec, space, tgrid)
    result = assimilation.assimilate(spec, space.smesh, tgrid, space=space)
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
        space = _build_space(spec, cfg.d, cfg)
        smesh = space.smesh
        acfg = adaptivity.AdaptConfig(strategy="MAX", n_initial=5, n_max=30)
        tgrid, _ = adaptivity.adapt_loop(spec, smesh, acfg, quad_order=cfg.quad_order)
        _write_nodes(out / f"grid_eps{eps:g}.txt", tgrid.taus)
        exact0 = exact_p(0.0, smesh.nodes)
        for label, grid in (("adaptive", tgrid), ("uniform", mesh.build_uniform_time_grid(spec.T, 30))):
            system = elliptic.assemble(spec, smesh, grid, quad_order=cfg.quad_order, space=space)
            p0 = elliptic.solve_sparse(system).p0
            rows.append((f"example3 eps={eps:g} mse_{label}_N30", None, assimilation.mse_initial(p0, exact0)))
    path = out / "example3.csv"
    _atomic_write(path, _comparison_csv(rows))
    return path


def cmd_reproduce(target: str, cfg: RunConfig) -> int:
    # Each target runs its own problem (table1 example1ii too) and applies only the parameters listed.
    runs = {
        "table1": (_reproduce_table1, "example1i", ("nu",)),
        "example2": (_reproduce_example2, "example2", ("alpha", "nu", "eps")),
        "example3": (_reproduce_example3, "example3", ()),
    }
    if target not in runs:
        raise CliError(f"unknown reproduce target {target!r}; pick table1, example2 or example3")
    run, name, applied = runs[target]
    # A problem.* key is dropped unless it is unset, the default or the target's own name, or applied.
    dropped = [key for key, (attr, _) in _KEYS.items() if key.startswith("problem.") and attr not in applied
               and getattr(cfg, attr) not in (None, RunConfig.name, name)]
    if dropped:
        raise CliError(f"reproduce {target} does not apply {', '.join(dropped)}")
    # Checked before the output directory is made: the target resolves the same keys again.
    resolve_problem(replace(cfg, name=name))
    print(f"wrote {run(cfg, _prepare_output_dir(cfg))}")
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    base_spec, _ = resolve_problem(cfg)
    diffs: list[float] = []
    for n in cfg.levels:
        space = _build_space(base_spec, n, cfg)
        tgrid = mesh.build_uniform_time_grid(base_spec.T, n)
        result = assimilation.assimilate(base_spec, space.smesh, tgrid, space=space)
        u_oracle = forward.kkt_oracle(base_spec, space, tgrid)
        diffs.append(
            float(np.linalg.norm(result.u - u_oracle) / np.linalg.norm(u_oracle))
        )
    orders = [
        float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)
    ]
    observed = min(orders)
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
    _add_common(sub.add_parser("oracle-check", help="cross-validate against the closed-form optimizer"))
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
    # LinAlgError subclasses ValueError, so the solver branch comes first.
    except (elliptic.EllipticSolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
