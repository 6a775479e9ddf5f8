import numpy as np
import pytest

from varda import adaptivity, mesh, problems


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
        mesh.SpatialMesh(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        mesh.SpatialMesh(float("nan"), 1.0, 4)
    with pytest.raises(ValueError):
        mesh.SpatialMesh(0.0, float("nan"), 4)


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
        mesh.build_time_grid([[0.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        mesh.build_time_grid([0.0, float("nan"), 1.0])
    with pytest.raises(ValueError):
        mesh.build_uniform_time_grid(-1.0, 4)
    with pytest.raises(ValueError):
        mesh.build_uniform_time_grid(0.0, 4)
    with pytest.raises(ValueError):
        mesh.build_uniform_time_grid(1.0, 0)


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


def test_grids_derive_their_values_from_what_defines_them():
    # Every grid of an example2 5->40 adapt run, then grids bisected at random marks.
    _, history = adaptivity.adapt_loop(
        problems.example2(), mesh.build_spatial_mesh(0.0, 1.0, 20), adaptivity.AdaptConfig(n_max=40)
    )
    grids = [mesh.TimeGrid(rec.taus) for rec in history.cycles]
    rng, grid = np.random.default_rng(0), mesh.build_uniform_time_grid(2.5, 3)
    for _ in range(6):
        grid = mesh.bisect_intervals(grid, set(rng.integers(0, grid.N, size=3).tolist()))
        grids.append(grid)
    assert len(grids) == 36 + 6
    for grid in grids:
        assert grid.deltas.tobytes() == np.diff(grid.taus).tobytes()
        assert grid.T == grid.taus[-1]
        assert grid.intervals == tuple(zip(grid.taus[:-1].tolist(), grid.taus[1:].tolist()))
        assert not grid.taus.flags.writeable and not grid.deltas.flags.writeable
    for x_left, x_right, d in ((0.0, 1.0, 40), (0.1, 0.7, 3), (-2.0, 3.3, 7), (0.3, 1.9, 200)):
        sm = mesh.SpatialMesh(x_left, x_right, d)
        assert sm.nodes.tobytes() == np.linspace(x_left, x_right, d + 1).tobytes()
        assert sm.h == (x_right - x_left) / d
        assert not sm.nodes.flags.writeable
