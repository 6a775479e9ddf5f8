import numpy as np
import pytest

from varda import mesh


def test_spatial_mesh_nodes_and_width():
    sm = mesh.build_spatial_mesh(0.0, 1.0, 8)
    assert sm.d == 8
    assert sm.h == pytest.approx(0.125, abs=0.0)
    assert sm.nodes[0] == 0.0 and sm.nodes[-1] == 1.0
    np.testing.assert_allclose(np.diff(sm.nodes), sm.h, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(sm.interior, np.arange(1, 8))


def test_spatial_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        mesh.build_spatial_mesh(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        mesh.build_spatial_mesh(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        mesh.SpatialMesh(0.0, 1.0, 2, np.array([0.0, 0.7, 1.0]), 0.5)


def test_uniform_time_grid():
    tg = mesh.build_uniform_time_grid(1.0, 5)
    assert tg.N == 5
    np.testing.assert_allclose(tg.taus, np.linspace(0.0, 1.0, 6), atol=0.0)
    np.testing.assert_allclose(tg.deltas, 0.2, atol=1e-15)
    assert tg.deltas.sum() == pytest.approx(tg.T, abs=1e-15)


def test_time_grid_rejects_bad_nodes():
    with pytest.raises(ValueError):
        mesh.build_time_grid([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        mesh.build_time_grid([0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        mesh.build_time_grid([0.0])
    with pytest.raises(ValueError):
        mesh.build_uniform_time_grid(-1.0, 4)


def test_grids_are_immutable():
    tg = mesh.build_uniform_time_grid(1.0, 4)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        tg.taus[0] = 0.5
    with pytest.raises(ValueError):
        sm.nodes[1] = 0.9


def test_bisect_inserts_midpoints_only_where_marked():
    tg = mesh.build_uniform_time_grid(1.0, 4)
    out = mesh.bisect_intervals(tg, {1, 3})
    np.testing.assert_allclose(
        out.taus, [0.0, 0.25, 0.375, 0.5, 0.75, 0.875, 1.0], atol=0.0
    )
    # Original nodes survive refinement.
    assert set(tg.taus) <= set(out.taus)


def test_bisect_empty_marks_is_identity():
    tg = mesh.build_time_grid([0.0, 0.3, 1.0])
    out = mesh.bisect_intervals(tg, set())
    np.testing.assert_array_equal(out.taus, tg.taus)


def test_bisect_rejects_out_of_range_marks():
    tg = mesh.build_uniform_time_grid(1.0, 4)
    with pytest.raises(ValueError):
        mesh.bisect_intervals(tg, {4})
    with pytest.raises(ValueError):
        mesh.bisect_intervals(tg, {-1})


def test_field_shape_is_validated():
    tg = mesh.build_uniform_time_grid(1.0, 3)
    sm = mesh.build_spatial_mesh(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        mesh.SpaceTimeField(tg, sm, np.zeros((3, 6)))
    field = mesh.SpaceTimeField(tg, sm, np.zeros((4, 6)))
    assert field.values.shape == (4, 6)


def test_grid_file_round_trip(tmp_path):
    tg = mesh.build_time_grid([0.0, 1.0 / 3.0, 0.5, 1.0])
    path = tmp_path / "grid.txt"
    path.write_text(mesh.format_time_grid(tg))
    back = mesh.read_time_grid(path)
    np.testing.assert_array_equal(back.taus, tg.taus)


def test_grid_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# refined grid\n0.0\n\n0.5\n1.0\n")
    tg = mesh.read_time_grid(path)
    assert tg.N == 2
    short = tmp_path / "short.txt"
    short.write_text("# only one node\n1.0\n")
    with pytest.raises(ValueError, match="fewer than two"):
        mesh.read_time_grid(short)


def test_grid_file_rejects_garbage(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("0.0\nnot-a-number\n1.0\n")
    with pytest.raises(ValueError, match="bad grid line"):
        mesh.read_time_grid(path)


def test_grid_format_is_full_precision():
    tg = mesh.build_time_grid([0.0, 1.0 / 3.0, 1.0])
    text = mesh.format_time_grid(tg)
    assert text.splitlines()[1] == f"{1.0 / 3.0:.17g}"
