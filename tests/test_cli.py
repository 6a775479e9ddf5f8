import numpy as np
import pytest

from varda import assimilation, cli, elliptic, mesh, problems


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
    with pytest.raises(cli.CliError, match="unknown config key"):
        cli.build_config({"grid.M": "8"})
    with pytest.raises(cli.CliError, match="bad value"):
        cli.build_config({"grid.N": "eight"})
    with pytest.raises(cli.CliError, match="positive"):
        cli.build_config({"problem.alpha": "-2"})
    with pytest.raises(cli.CliError, match="does not take"):
        cli.build_config({"problem.name": "example1i", "problem.eps": "0.1"})
    cfg = cli.build_config({"problem.name": "example3", "problem.m": "0.5"})
    assert cfg.m == 0.5


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
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(
            "assimilate", "problem.name=example1i", "grid.d=10", "grid.N=8",
            f"output_dir={out}",
        ) == 0
    for path_a in sorted(out_a.iterdir()):
        assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()


def test_field_csv_matches_the_per_cell_format():
    tgrid = mesh.build_time_grid([0.0, 0.1, 1.0 / 3.0, 0.35, 0.9, 1.0])
    smesh = mesh.build_spatial_mesh(-0.3, 0.7, 7)
    values = np.random.default_rng(5).standard_normal((6, 8)) * 10.0 ** np.arange(-8, 8, 2)
    field_ = mesh.SpaceTimeField(tgrid, smesh, values)
    expected = ["t,x,value"] + [
        f"{t:.17g},{x:.17g},{values[i, j]:.17g}"
        for i, t in enumerate(tgrid.taus)
        for j, x in enumerate(smesh.nodes)
    ]
    assert cli.format_field_csv(field_) == "\n".join(expected) + "\n"


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
    cases = [
        ("assimilate", "problem.name=example9"),
        ("assimilate", "grid.d=1"),
        ("assimilate", "no_equals_sign"),
        ("assimilate", "problem.name=example2", "problem.m=0.4"),
        ("assimilate", "--config", str(tmp_path / "missing.cfg")),
        ("reproduce", "figure12"),
        ("oracle-check", "oracle.levels=10,200"),
        ("adapt", "adapt.strategy=NEWEST"),
        ("adapt", "adapt.n_initial=9", "adapt.n_max=5"),
        ("assimilate", "seed=3"),
        ("assimilate", "grid.T=1.0"),
        # The data overflow to inf at the pulse and must not reach the output.
        ("assimilate", "problem.name=example2", "problem.eps=1e-300", "grid.N=3", "grid.d=10",
         f"output_dir={tmp_path / 'nan'}"),
    ]
    for argv in cases:
        assert run(*argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "nan" / "summary.txt").exists()
    # Messages name the config key or the parameter that was set.
    named = [
        (("adapt", "adapt.strategy=DOERFLER", "adapt.theta=1.0"),
         "error: adapt.theta must lie in (0, 1), got 1.0\n"),
        (("assimilate", "problem.name=example2", "problem.nu=inf"),
         "error: nu must be finite and positive, got inf\n"),
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


def test_oracle_check_below_threshold_exits_three(tmp_path, capsys):
    out = tmp_path / "oc"
    code = run(
        "oracle-check", "problem.name=example1i", "oracle.levels=40,20,10",
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
