from dataclasses import replace

import numpy as np
import pytest

from varda import elliptic, fem1d, mesh, problems


@pytest.fixture(scope="session")
def ex1i():
    return problems.example1("i")


@pytest.fixture(scope="session")
def smesh40():
    return mesh.build_spatial_mesh(0.0, 1.0, 40)


@pytest.fixture(scope="session")
def tgrid40():
    return mesh.build_uniform_time_grid(1.0, 40)


@pytest.fixture(scope="session")
def ex1i_system(ex1i, smesh40, tgrid40):
    return elliptic.assemble(ex1i, smesh40, tgrid40)


@pytest.fixture(scope="session")
def ex1i_solution(ex1i_system):
    return elliptic.solve_sparse(ex1i_system)


@pytest.fixture
def spatial_builds(monkeypatch):
    """Live counts of fem1d.assemble_spatial_matrices and fem1d.eigenbasis calls."""
    calls = {"assemble_spatial_matrices": 0, "eigenbasis": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(fem1d, "assemble_spatial_matrices")
    count(fem1d, "eigenbasis")
    return calls


def nodal(fun, taus, nodes):
    """Sample a (t, x) callback on a tensor grid, time-major."""
    return np.array(
        [np.broadcast_to(np.asarray(fun(t, nodes), dtype=float), nodes.shape) for t in taus]
    )


def _zero(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def variable_coefficient_problem():
    """example1 with variable a(x) and a0(x); y_d = 0 keeps y_d_t and Ay_d consistent."""
    return replace(
        problems.example1("i"),
        a=lambda x: 0.05 + 0.1 * np.asarray(x, dtype=float) ** 2,
        a0=lambda x: 2.0 + np.sin(3.0 * np.asarray(x, dtype=float)),
        y_d=_zero,
        y_d_t=_zero,
        Ay_d=_zero,
    )


def unfactored_data(name, nu=0.1, eps=0.01):
    """example1's, example2's or example3's (m = 0.5) y_d, y_d_t and Ay_d as products taken left to right.

    The catalog's closed forms, written without factoring: each product is a
    pass over the tensor grid, y_d_t and Ay_d reuse y_d, and example2's y_d_t
    adds its inflow.  They agree with the catalog's one-product callbacks to
    a few ulps, so tests use them as an independent reference.  example3's
    Ay_d is rate * (s1 * sine), with s1 the ramp's first derivative.
    """
    rate = np.pi * np.pi * nu
    if name == "example3":
        def y_d(t, x):
            return problems.bump_sigma_dt(t, 0.5, eps) * np.sin(np.pi * x)

        def y_d_t(t, x):
            return problems.bump_sigma_dtt(t, 0.5, eps) * np.sin(np.pi * x)
    elif name == "example1":
        def y_d(t, x):
            return np.sin(np.pi * x) * np.exp(-rate * t)

        def y_d_t(t, x):
            return -rate * y_d(t, x)
    else:
        def y_d(t, x):
            ramp = (1.0 / np.pi) * np.arctan((t - 1.0 / 6.0) / eps) + 1.0
            return 2.0 * np.sin(np.pi * x) * np.exp(-rate * t) * ramp

        def inflow(t, x):
            pulse = (1.0 / np.pi) * eps / (eps * eps + (t - 1.0 / 6.0) ** 2)
            return 2.0 * np.sin(np.pi * x) * np.exp(-rate * t) * pulse

        def y_d_t(t, x):
            return -rate * y_d(t, x) + inflow(t, x)

    def ay_d(t, x):
        return rate * y_d(t, x)

    return {"y_d": y_d, "y_d_t": y_d_t, "Ay_d": ay_d}
