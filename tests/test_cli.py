import re
from pathlib import Path

import numpy as np
import pytest

from varda import adaptivity, assimilation, cli, elliptic, forward, mesh, problems


def run(*argv):
    return cli.main(list(argv))


def read_grid(path):
    return mesh.build_time_grid(np.loadtxt(path, ndmin=1))


def test_parse_config_text_skips_noise_and_keeps_last_value():
    pairs = cli.parse_config_text(
        "# run setup\n\nproblem.name = example2\ngrid.N=8\ngrid.N=12\n"
    )
    assert pairs == {"problem.name": "example2", "grid.N": "12"}


def test_parse_config_text_rejects_lines_without_equals():
    with pytest.raises(cli.CliError, match="expected key=value"):
        cli.parse_config_text("grid.N 8\n", source="bad.cfg")


def test_build_config_rejects_unknown_keys_and_bad_values():
    for unknown in ({"grid.M": "8"}, {"theta_scheme": "0.5"}):
        with pytest.raises(cli.CliError, match="unknown config key"):
            cli.build_config(unknown)
    with pytest.raises(cli.CliError, match="bad value"):
        cli.build_config({"grid.N": "eight"})
    # The problem.* values are checked once, through the catalog, when the problem is resolved.
    with pytest.raises(cli.CliError, match="positive"):
        cli.resolve_problem(cli.build_config({"problem.alpha": "-2"}))
    with pytest.raises(cli.CliError, match="does not take"):
        cli.resolve_problem(cli.build_config({"problem.name": "example1i", "problem.eps": "0.1"}))
    cfg = cli.build_config({"problem.name": "example3", "problem.m": "0.5"})
    assert cfg.m == 0.5
    assert cli.resolve_problem(cfg)[1] is not None


def test_every_catalog_parameter_has_a_problem_key():
    # resolve_problem passes each problem.* key on under its RunConfig attribute.
    keys = {key: attr for key, (attr, _) in cli._KEYS.items() if key.startswith("problem.")}
    assert keys.pop("problem.name") == "name"
    assert all(key == f"problem.{attr}" for key, attr in keys.items())
    taken = set().union(*(problems.parameters(name) for name in problems.CATALOG))
    assert set(keys.values()) == taken


def test_summary_nu_is_the_set_value_or_the_constructors_default(tmp_path):
    for name, extra, nu in (
        ("example1i", (), "0.10000000000000001"),
        ("example3", (), "0.10000000000000001"),
        ("example1i", ("problem.nu=0.2",), "0.20000000000000001"),
    ):
        out = tmp_path / f"{name}{len(extra)}"
        assert run("assimilate", f"problem.name={name}", "grid.d=4", "grid.N=4", *extra, f"output_dir={out}") == 0
        assert f"\nnu={nu}\n" in (out / "summary.txt").read_text()
    assert problems.parameters("example1i")["nu"] == 0.1


def test_history_csv_shape():
    spec = problems.example2()
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    _, history = adaptivity.adapt_loop(spec, sm, adaptivity.AdaptConfig(n_initial=4, n_max=6))
    text = cli.format_history_csv(history)
    lines = text.strip().splitlines()
    assert lines[0] == "cycle,N,eta_total,true_error"
    assert len(lines) == len(history.cycles) + 1
    # Without reference recording the error column stays empty.
    assert all(line.endswith(",") for line in lines[1:])


def test_readme_lists_exactly_the_config_keys():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(block for block in text.split("\n\n") if block.startswith("Keys:"))
    listed = set(re.findall(r"`([^`]+)`", paragraph))
    assert set(cli._KEYS) <= listed
    assert listed <= set(cli._KEYS) | set(problems.CATALOG) | set(adaptivity._STRATEGIES)


def test_assimilate_writes_the_documented_files(tmp_path):
    out = tmp_path / "run"
    code = run(
        "assimilate", "problem.name=consistent", "grid.d=8", "grid.N=6",
        f"output_dir={out}",
    )
    assert code == 0
    for name in ("p.csv", "q.csv", "y.csv", "u.csv", "grid.txt", "mesh.txt", "summary.txt"):
        assert (out / name).is_file()
    assert not list(out.glob("*.tmp"))

    p_lines = (out / "p.csv").read_text().splitlines()
    assert p_lines[0] == "t,x,value"
    assert len(p_lines) == 1 + 7 * 9
    # Time-major: the first block shares t = 0 and walks the mesh.
    first = p_lines[1].split(",")
    second = p_lines[2].split(",")
    assert first[0] == second[0] == "0"
    assert float(second[1]) == pytest.approx(0.125, abs=0.0)

    u_lines = (out / "u.csv").read_text().splitlines()
    assert u_lines[0] == "x,value"
    assert len(u_lines) == 1 + 9

    summary = dict(
        line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    assert set(summary) == {"rmse", "alpha", "nu", "d", "N", "solver_residual"}
    assert summary["d"] == "8" and summary["N"] == "6"
    assert float(summary["rmse"]) <= 5e-3

    grid = read_grid(out / "grid.txt")
    assert grid.N == 6
    assert len((out / "mesh.txt").read_text().splitlines()) == 9


def test_reruns_are_byte_identical(tmp_path):
    runs = {
        "assimilate": ("assimilate", "problem.name=example1i", "grid.d=10", "grid.N=8"),
        # A second in-process run must not see anything the first one left.
        "adapt": ("adapt", "problem.name=example3", "grid.d=10", "adapt.n_max=8",
                  "adapt.snapshots=true", "adapt.record_reference=true"),
    }
    for name, argv in runs.items():
        out_a, out_b = tmp_path / name / "a", tmp_path / name / "b"
        for out in (out_a, out_b):
            assert run(*argv, f"output_dir={out}") == 0
        files = sorted(path.name for path in out_a.iterdir())
        assert files == sorted(path.name for path in out_b.iterdir())
        for file in files:
            assert (out_a / file).read_bytes() == (out_b / file).read_bytes()


def per_cell_csv(field_):
    """The reference field dump, written cell by cell with f-strings."""
    lines = ["t,x,value"] + [
        f"{t:.17g},{x:.17g},{field_.values[i, j]:.17g}"
        for i, t in enumerate(field_.tgrid.taus)
        for j, x in enumerate(field_.smesh.nodes)
    ]
    return "\n".join(lines) + "\n"


def dump(field_):
    """field_'s FieldCsv blocks joined into one text."""
    return b"".join(cli.FieldCsv().format(field_)).decode("ascii")


# Signed zero, the subnormal, normal and overflow ends, both sides of %g's
# switches to exponent form, an integral float, the non-finite values, a tie
# decided half to even (...0.125 gives ...0.12) and a carry to the next power of
# ten (1e-14 is 9.99999999999999998819e-15).
EDGE_VALUES = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 9.9999999999999995e-5,
    1e16, 1e17, 3.0, np.inf, -np.inf, np.nan, 1e-4, 1e14 + 0.125, 1e-14,
]


def test_field_csv_matches_the_per_cell_format():
    tgrid = mesh.build_time_grid([0.0, 0.1, 1.0 / 3.0, 0.35, 0.9, 1.0])
    smesh = mesh.build_spatial_mesh(-0.3, 0.7, 7)
    values = np.random.default_rng(5).standard_normal((6, 8)) * 10.0 ** np.arange(-8, 8, 2)
    edges = values.copy()
    edges.ravel()[: 2 * len(EDGE_VALUES)] = EDGE_VALUES + [-v for v in EDGE_VALUES]
    for cells in (values, edges):
        field_ = mesh.SpaceTimeField(tgrid, smesh, cells)
        assert dump(field_) == per_cell_csv(field_)


def percent_g17(values):
    return [b"%.17g" % v for v in values.tolist()]


def test_field_csv_cells_equal_percent_on_random_bit_patterns():
    csv = cli.FieldCsv()
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    # Half keep every exponent; half get one that spans the kernel's window.
    exponents = rng.integers(1023 - 330, 1023 + 333, size=10000).astype(np.uint64)
    bits[10000:] = bits[10000:] & np.uint64(0x800FFFFFFFFFFFFF) | exponents << np.uint64(52)
    values = bits.view(np.float64)
    text, slow = csv.cells(values)
    outside = ~((np.abs(values) >= csv.LOW) & (np.abs(values) < csv.HIGH)) & (values != 0.0)
    assert np.array_equal(slow, outside) and 5000 < np.count_nonzero(~slow) < 15000
    got = text.view("S24").ravel().tolist()
    assert [g for g, s in zip(got, slow) if not s] == [e for e, s in zip(percent_g17(values), slow) if not s]


def test_field_csv_cells_on_the_switches_ties_carries_and_window_ends():
    csv = cli.FieldCsv()
    sides = lambda v: [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    fast = [
        0.0, -0.0, 3.0, 0.5, 1234.5, 100.0,
        *sides(9.9999999999999995e-5), *sides(1e-4), *sides(1e16), *sides(1e17),
        # 17 digits that carry to the next power of ten; 10^k is not a double for any of them.
        1e-14, 1e-70, 1e98,
        # Exact ties with 10^k a double, decided half to even: 100000000000000.12 and ...62.
        1e14 + 0.125, 1e14 + 0.375, 1e14 + 0.625, 1e14 + 0.875, 1.0 + 2.0**-17,
        csv.LOW, np.nextafter(csv.HIGH, 0.0),
    ]
    slow = [
        np.nextafter(csv.LOW, 0.0), csv.HIGH, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        np.inf, np.nan,
        3.0 * 2.0**-24,  # 1.78813934326171875e-07: a tie, and 10^23 is not a double
    ]
    values = np.array(fast + slow)
    values = np.concatenate([values, -values])
    text, on_slow_path = csv.cells(values)
    expected = np.tile(np.arange(len(fast) + len(slow)) >= len(fast), 2)
    assert np.array_equal(on_slow_path, expected)
    got = text.view("S24").ravel().tolist()
    assert [g for g, s in zip(got, expected) if not s] == [e for e, s in zip(percent_g17(values), expected) if not s]
    tgrid, smesh = mesh.build_uniform_time_grid(1.0, 3), mesh.build_spatial_mesh(0.0, 1.0, values.size // 4 - 1)
    field_ = mesh.SpaceTimeField(tgrid, smesh, values.reshape(4, -1))
    assert dump(field_) == per_cell_csv(field_)


def test_field_csv_blocks_join_to_the_per_cell_text(monkeypatch):
    monkeypatch.setattr(cli.FieldCsv, "CHUNK", 16)  # two time rows of 8 cells per block
    tgrid, smesh = mesh.build_uniform_time_grid(1.0, 6), mesh.build_spatial_mesh(0.0, 1.0, 7)
    values = np.random.default_rng(7).standard_normal((7, 8))
    values[3, 2], values[6, 7] = np.nan, 1e300  # the per-value path inside later blocks
    field_ = mesh.SpaceTimeField(tgrid, smesh, values)
    # The header, then blocks of two time rows.
    assert [len(b.splitlines()) for b in cli.FieldCsv().format(field_)] == [1, 16, 16, 16, 8]
    assert dump(field_) == per_cell_csv(field_)


def test_field_csv_blocks_hold_one_time_row_when_chunk_is_smaller(monkeypatch):
    monkeypatch.setattr(cli.FieldCsv, "CHUNK", 4)  # half of one time row of 8 cells
    tgrid, smesh = mesh.build_uniform_time_grid(1.0, 6), mesh.build_spatial_mesh(0.0, 1.0, 7)
    values = np.random.default_rng(9).standard_normal((7, 8))
    values[2, 5] = -np.inf
    field_ = mesh.SpaceTimeField(tgrid, smesh, values)
    assert [len(b.splitlines()) for b in cli.FieldCsv().format(field_)] == [1] + [8] * 7
    assert dump(field_) == per_cell_csv(field_)


def test_field_csv_writes_t_and_x_outside_the_kernel_window_with_percent():
    # Every tau but 0 at or above HIGH; every node but 0 below LOW.
    tgrid, smesh = mesh.build_uniform_time_grid(1e100, 3), mesh.build_spatial_mesh(0.0, 1e-100, 4)
    assert np.all(tgrid.taus[1:] >= cli.FieldCsv.HIGH) and np.all(smesh.nodes[1:] < cli.FieldCsv.LOW)
    values = np.random.default_rng(11).standard_normal((4, 5))
    field_ = mesh.SpaceTimeField(tgrid, smesh, values)
    assert dump(field_) == per_cell_csv(field_)


def test_field_csv_percent_text_fills_the_whole_slot(monkeypatch):
    cells = cli.FieldCsv.cells

    def cells_with_full_slow_slots(self, values):
        text, slow = cells(self, values)
        text[slow] = ord("9")  # what the kernel leaves where it gives up must not show
        return text, slow

    monkeypatch.setattr(cli.FieldCsv, "cells", cells_with_full_slow_slots)
    tgrid, smesh = mesh.build_uniform_time_grid(1.0, 2), mesh.build_spatial_mesh(0.0, 1e-100, 3)
    field_ = mesh.SpaceTimeField(tgrid, smesh, np.array([[np.nan, 1e300, -np.inf, 0.5]] * 3))
    assert dump(field_) == per_cell_csv(field_)


def test_assimilate_fields_equal_the_per_cell_text_of_the_in_process_result(tmp_path):
    assert run("assimilate", "problem.name=example2", "grid.d=8", "grid.N=6", f"output_dir={tmp_path}") == 0
    spec, _ = problems.build("example2")
    result = assimilation.assimilate(
        spec, mesh.build_spatial_mesh(*spec.domain, 8), mesh.build_uniform_time_grid(spec.T, 6)
    )
    for name, field_ in (("p.csv", result.p), ("q.csv", result.q), ("y.csv", result.y)):
        assert (tmp_path / name).read_text() == per_cell_csv(field_)


def test_a_failed_atomic_write_removes_its_temp_file_and_keeps_the_target(tmp_path):
    target = tmp_path / "p.csv"
    target.write_bytes(b"t,x,value\n0,0,1\n")

    def blocks():
        yield b"t,x,value\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left"):
        cli._atomic_write(target, blocks())
    assert not list(tmp_path.glob("*.tmp"))
    assert target.read_bytes() == b"t,x,value\n0,0,1\n"


def test_config_precedence_file_env_override_flag(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem.name=consistent\ngrid.d=10\ngrid.N=12\noutput_dir=fromfile\n"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "fromenv")
    assert run("assimilate", "--config", str(cfg), "grid.N=6") == 0
    summary = (tmp_path / "fromenv" / "summary.txt").read_text()
    assert "d=10" in summary and "N=6" in summary

    assert run("assimilate", "--config", str(cfg), "--output-dir", "fromflag") == 0
    assert (tmp_path / "fromflag" / "summary.txt").is_file()
    assert not (tmp_path / "fromfile").exists()


def test_validation_failures_exit_with_code_one(tmp_path, capsys):
    (tmp_path / "a_file").write_text("kept\n")
    cases = [
        ("assimilate", "problem.name=example9"),
        ("assimilate", "grid.d=1"),
        ("assimilate", "no_equals_sign"),
        ("assimilate", "problem.name=example2", "problem.m=0.4"),
        ("assimilate", "--config", str(tmp_path / "missing.cfg")),
        ("reproduce", "figure12"),
        ("adapt", "adapt.strategy=NEWEST"),
        ("adapt", "adapt.n_initial=9", "adapt.n_max=5"),
        ("assimilate", "seed=3"),
        ("assimilate", "grid.T=1.0"),
        # The data overflow to inf at the pulse and must not reach the output.
        ("assimilate", "problem.name=example2", "problem.eps=1e-300", "grid.N=3", "grid.d=10",
         f"output_dir={tmp_path / 'nan'}"),
        # The data residual is finite but its square overflows.
        ("adapt", "problem.name=example3", "problem.nu=1e100", "adapt.n_max=8",
         f"output_dir={tmp_path / 'overflow'}"),
        # The load is finite but its squared norm overflows.
        ("assimilate", "problem.name=example3", "problem.nu=1e100", "grid.d=10", "grid.N=5",
         f"output_dir={tmp_path / 'load'}"),
        ("adapt", "problem.name=example3", "problem.nu=1e100", "adapt.n_max=8",
         "adapt.record_reference=true", f"output_dir={tmp_path / 'load'}"),
        # The output directory is an existing file.
        ("assimilate", "grid.d=4", "grid.N=4", "--output-dir", str(tmp_path / "a_file")),
        # Each reproduce target builds its own problems, yet the configured one is checked.
        ("reproduce", "table1", "problem.alpha=-1", f"output_dir={tmp_path / 'rep'}"),
        ("reproduce", "example3", "problem.nu=-1", f"output_dir={tmp_path / 'rep'}"),
        # Levels that do not increase have no convergence order to observe.
        ("oracle-check", "oracle.levels=20,20", f"output_dir={tmp_path / 'oc'}"),
        ("oracle-check", "oracle.levels=40,20,10", f"output_dir={tmp_path / 'oc'}"),
    ]
    for argv in cases:
        assert run(*argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "nan" / "summary.txt").exists()
    assert not (tmp_path / "overflow" / "history.csv").exists()
    assert not (tmp_path / "load").exists()
    assert not (tmp_path / "rep").exists() and not (tmp_path / "oc").exists()
    assert (tmp_path / "a_file").read_text() == "kept\n"
    # Messages name the config key or the parameter that was set.
    named = [
        (("adapt", "adapt.strategy=DOERFLER", "adapt.theta=1.0"),
         "error: adapt.theta must lie in (0, 1), got 1.0\n"),
        # One message per parameter, whatever its bad value.
        (("assimilate", "problem.name=example2", "problem.nu=inf"),
         "error: nu must be finite and positive, got inf\n"),
        (("assimilate", "problem.name=example2", "problem.nu=-1"),
         "error: nu must be finite and positive, got -1.0\n"),
        (("assimilate", "problem.name=example1i", "problem.m=0.5", "problem.eps=0.1"),
         "error: problem 'example1i' does not take problem.eps\n"),
        # One level has no convergence order to observe.
        (("oracle-check", "oracle.levels=10"),
         "error: oracle.levels must list at least two integers >= 2, got (10,)\n"),
    ]
    for argv, message in named:
        assert run(*argv) == 1, argv
        assert capsys.readouterr().err == message


def test_solver_failures_exit_with_code_two(tmp_path, monkeypatch, capsys):
    def explode(system):
        raise elliptic.EllipticSolverError("factorization fell apart")

    monkeypatch.setattr(elliptic, "solve_sparse", explode)
    code = run("assimilate", "problem.name=consistent", f"output_dir={tmp_path}")
    assert code == 2
    assert "solver error" in capsys.readouterr().err

    # LinAlgError subclasses ValueError, yet it is a solver failure.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.undo()
    monkeypatch.setattr(forward, "kkt_oracle", singular)
    code = run("oracle-check", "oracle.levels=4,6", f"output_dir={tmp_path}")
    assert code == 2
    assert capsys.readouterr().err == "solver error: Singular matrix\n"


def test_oracle_check_writes_levels_and_orders(tmp_path):
    out = tmp_path / "oc"
    code = run(
        "oracle-check", "problem.name=example1i", "oracle.levels=10,20",
        f"output_dir={out}",
    )
    assert code == 0
    lines = (out / "oracle_check.csv").read_text().splitlines()
    assert lines[0] == "d,N,relative_control_difference,order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "10" and first[3] == ""
    assert float(lines[2].split(",")[3]) >= 0.8


def test_oracle_check_runs_above_the_old_dense_size(tmp_path):
    # d=N=60 has 61 * 59 trajectory values, which the dense oracle refused.
    out = tmp_path / "oc"
    code = run(
        "oracle-check", "problem.name=example1i", "oracle.levels=20,60",
        f"output_dir={out}",
    )
    assert code == 0
    lines = (out / "oracle_check.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[:2] == ["60", "60"]


def test_oracle_check_below_threshold_exits_three(tmp_path, monkeypatch, capsys):
    # An oracle 1% off leaves a control difference that stops shrinking with the levels.
    exact = forward.kkt_oracle
    monkeypatch.setattr(forward, "kkt_oracle", lambda *args: 1.01 * exact(*args))
    out = tmp_path / "oc"
    code = run(
        "oracle-check", "problem.name=example1i", "oracle.levels=10,20,40",
        f"output_dir={out}",
    )
    assert code == 3
    assert "below the 0.8 threshold" in capsys.readouterr().err
    # The table is still written so the refusal can be inspected.
    assert (out / "oracle_check.csv").is_file()


def test_adapt_on_consistent_data_writes_a_single_row(tmp_path):
    out = tmp_path / "adapt"
    code = run("adapt", "problem.name=consistent", "grid.d=8", f"output_dir={out}")
    assert code == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,5,0")
    assert read_grid(out / "grid.txt").N == 5


def test_grid_file_round_trip(tmp_path):
    out = tmp_path / "adapt"
    assert run("adapt", "problem.name=example2", "grid.d=8", "adapt.n_max=9", f"output_dir={out}") == 0
    smesh = mesh.build_spatial_mesh(0.0, 1.0, 8)
    tg, _ = adaptivity.adapt_loop(problems.example2(), smesh, adaptivity.AdaptConfig(n_max=9))
    back = read_grid(out / "grid.txt")
    np.testing.assert_array_equal(back.taus, tg.taus)


def test_grid_format_is_full_precision(tmp_path):
    out = tmp_path / "run"
    assert run("assimilate", "problem.name=consistent", "grid.d=3", "grid.N=3", f"output_dir={out}") == 0
    for name in ("grid.txt", "mesh.txt"):
        text = (out / name).read_text()
        assert text.splitlines()[1] == f"{1.0 / 3.0:.17g}"


def test_adapt_snapshots_and_reference_errors(tmp_path):
    out = tmp_path / "adapt"
    code = run(
        "adapt", "problem.name=example2", "grid.d=8", "adapt.n_initial=4",
        "adapt.n_max=7", "adapt.snapshots=true", "adapt.record_reference=true",
        f"output_dir={out}",
    )
    assert code == 0
    snaps = sorted(out.glob("grid_cycle*.txt"))
    assert [s.name for s in snaps] == [f"grid_cycle{i:03d}.txt" for i in range(4)]
    assert read_grid(snaps[0]).N == 4
    assert read_grid(snaps[-1]).N == 7

    lines = (out / "error_vs_N.csv").read_text().splitlines()
    assert lines[0] == "N,eta_total,adaptive_error,uniform_error"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4, 5, 6, 7]
    assert all(float(r[2]) >= 0.0 and float(r[3]) >= 0.0 for r in rows)

    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 5
    assert not history[1].endswith(",")
    # The adaptive column is history's true_error; the uniform one the uniform grids' errors.
    assert [r[2] for r in rows] == [line.split(",")[3] for line in history[1:]]
    smesh = mesh.build_spatial_mesh(0.0, 1.0, 8)
    uniform = adaptivity.uniform_initial_errors(problems.example2(), smesh, [4, 5, 6, 7], 4 * 7)
    assert [float(r[3]) for r in rows] == uniform.tolist()


def test_adapt_with_reference_errors_builds_one_spatial_operator(tmp_path, spatial_builds):
    out = tmp_path / "adapt"
    code = run(
        "adapt", "problem.name=example2", "grid.d=8", "adapt.n_initial=4", "adapt.n_max=7",
        "adapt.record_reference=true", f"output_dir={out}",
    )
    assert code == 0
    # The reference solve, every cycle's solve and every uniform solve share one space.
    assert spatial_builds == {"assemble_spatial_matrices": 1, "eigenbasis": 1}
    assert len((out / "error_vs_N.csv").read_text().splitlines()) == 5


def test_reproduce_table1_builds_one_spatial_operator_per_problem(tmp_path, spatial_builds):
    assert run("reproduce", "table1", "grid.d=10", "grid.N=10", f"output_dir={tmp_path}") == 0
    # Each problem's baseline and 7-alpha sweep share one space and one eigenbasis.
    assert spatial_builds == {"assemble_spatial_matrices": 2, "eigenbasis": 2}
    assert len((tmp_path / "table1.csv").read_text().splitlines()) == 17


def test_reproduce_example2_rows(tmp_path):
    out = tmp_path / "rep"
    assert run("reproduce", "example2", f"output_dir={out}") == 0
    lines = (out / "example2.csv").read_text().splitlines()
    assert lines[0] == "setting,paper_value,computed_value,relative_difference"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "example2 rmse_before",
        "example2 rmse_after",
        "example2 e_max_before",
        "example2 e_max_after",
    ]
    before = lines[1].split(",")
    assert float(before[1]) == pytest.approx(0.7301, abs=0.0)
    assert float(before[3]) == pytest.approx(
        (float(before[2]) - 0.7301) / 0.7301, rel=1e-12
    )
    rmse_after, e_max_after = lines[2].split(","), lines[4].split(",")
    assert abs(float(rmse_after[3])) <= 0.15
    assert abs(float(e_max_after[3])) <= 0.20


def test_reproduce_example2_honours_an_explicit_alpha(tmp_path):
    out = tmp_path / "rep"
    argv = ("problem.alpha=0.01", "grid.d=10", "grid.N=10", f"output_dir={out}")
    assert run("reproduce", "example2", *argv) == 0
    rmse_after = float((out / "example2.csv").read_text().splitlines()[2].split(",")[2])
    spec = problems.example2(alpha=0.01)
    smesh = mesh.build_spatial_mesh(0.0, 1.0, 10)
    tgrid = mesh.build_uniform_time_grid(1.0, 10)
    assert rmse_after == pytest.approx(
        assimilation.assimilate(spec, smesh, tgrid).rmse, rel=1e-12
    )


def test_bool_keys_accept_the_usual_spellings():
    for text, expected in (("yes", True), ("0", False), ("TRUE", True), ("off", False)):
        cfg = cli.build_config({"adapt.snapshots": text})
        assert cfg.snapshots is expected
    with pytest.raises(cli.CliError):
        cli.build_config({"adapt.snapshots": "maybe"})
