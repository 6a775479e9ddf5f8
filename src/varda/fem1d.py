"""1-D linear finite element building blocks.

Element matrices have closed forms for hat functions, so only the
coefficient-weighted matrices need quadrature.  Coefficients are callables
evaluated at Gauss points, which keeps constant-coefficient runs exact and
avoids interpolating the coefficient onto the mesh first.

Problem callbacks are evaluated only through two samplers: _coefficient_at
for x-only callbacks and sample, which calls a (t, x) callback once for a
whole tensor grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import SpatialMesh, TimeGrid

__all__ = [
    "ElementMatrices",
    "SpatialOperatorMatrices",
    "element_matrices",
    "gauss_rule",
    "sample",
    "SpatialQuadrature",
    "spatial_quadrature",
    "time_quadrature",
    "assemble_spatial_matrices",
    "assemble_line_matrices",
]

_GAUSS_RULES = {
    1: (np.array([0.0]), np.array([2.0])),
    2: (
        np.array([-1.0, 1.0]) / np.sqrt(3.0),
        np.array([1.0, 1.0]),
    ),
    3: (
        np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]),
        np.array([5.0, 8.0, 5.0]) / 9.0,
    ),
}


@dataclass(frozen=True)
class ElementMatrices:
    """Mass and stiffness of one linear element."""

    mass: np.ndarray
    stiffness: np.ndarray


@dataclass(frozen=True)
class SpatialOperatorMatrices:
    """Global sparse matrices for the spatial operator on one mesh.

    M is the plain mass matrix and K the stiffness of -(a v')' + a0 v: the
    diffusion stiffness weighted by a(x) plus the mass matrix weighted by
    the reaction coefficient a0(x).  Both are symmetric.
    """

    M: sp.csr_array
    K: sp.csr_array


def element_matrices(length: float) -> ElementMatrices:
    """Closed-form mass and stiffness of a linear element of given length."""
    length = float(length)
    if length <= 0.0:
        raise ValueError(f"element length must be positive, got {length}")
    mass = (length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    stiffness = (1.0 / length) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return ElementMatrices(mass=mass, stiffness=stiffness)


def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1] for order in {1, 2, 3}."""
    try:
        points, weights = _GAUSS_RULES[int(order)]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"unsupported quadrature order {order!r}") from exc
    return points.copy(), weights.copy()


def _finite(fun: Callable, vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"callback {getattr(fun, '__qualname__', fun)} returned non-finite values")
    return vals


# Both samplers evaluate callbacks with numpy's floating-point warnings off:
# _finite turns a non-finite result into an error that names the callback.
def _coefficient_at(fun: Callable, x: np.ndarray) -> np.ndarray:
    # Accepts scalar-valued or vectorized callables.
    with np.errstate(all="ignore"):
        vals = np.asarray(fun(x), dtype=float)
    return _finite(fun, np.broadcast_to(vals, x.shape))


def sample(fun: Callable, t, x) -> np.ndarray:
    """Values of a (t, x) callback on the tensor grid t x x, from one call.

    The callback gets t reshaped to t.shape + (1,) * x.ndim and x with t.ndim
    leading unit axes; its result, which may also be a scalar or x-shaped,
    is broadcast to t.shape + x.shape.  Non-finite values raise ValueError.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        vals = fun(t.reshape(t.shape + (1,) * x.ndim), x.reshape((1,) * t.ndim + x.shape))
    return _finite(fun, np.broadcast_to(np.asarray(vals, dtype=float), t.shape + x.shape))


@dataclass(frozen=True)
class SpatialQuadrature:
    """Gauss points x, shape (d, q), on the cells of a uniform mesh.

    gw is the reference rule's weights and w = h gw / 2 the physical ones;
    phi, shape (2, q), holds a cell's left and right hat at the points.
    """

    gw: np.ndarray
    x: np.ndarray
    w: np.ndarray
    phi: np.ndarray

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Integrals of values (..., d, q) at x against each hat: (..., d + 1)."""
        nodal = np.zeros(values.shape[:-2] + (values.shape[-2] + 1,))
        nodal[..., :-1] += (values * (self.w * self.phi[0])).sum(axis=-1)
        nodal[..., 1:] += (values * (self.w * self.phi[1])).sum(axis=-1)
        return nodal


def spatial_quadrature(smesh: SpatialMesh, quad_order: int) -> SpatialQuadrature:
    """Lay out a Gauss rule of the given order on every cell of smesh."""
    gp, gw = gauss_rule(quad_order)
    centers = 0.5 * (smesh.nodes[:-1] + smesh.nodes[1:])
    xg = centers[:, None] + 0.5 * smesh.h * gp[None, :]
    phi = np.stack([(1.0 - gp) / 2.0, (1.0 + gp) / 2.0])
    return SpatialQuadrature(gw, xg, 0.5 * smesh.h * gw, phi)


def time_quadrature(tgrid: TimeGrid, quad_order: int, panels: int = 1):
    """Composite Gauss rule over equal sub-panels of every time interval.

    Returns the nodes t, their weights, and lam = (t - t0) / dt, their place
    in the interval; each has shape (N, panels * q), one row per interval.
    """
    gp, gw = gauss_rule(quad_order)
    t0 = tgrid.taus[:-1, None, None]
    dt = tgrid.deltas[:, None, None]
    panel_dt = dt / panels
    panel_mid = t0 + (np.arange(panels)[None, :, None] + 0.5) * panel_dt
    t = panel_mid + 0.5 * panel_dt * gp
    w = np.broadcast_to(0.5 * panel_dt * gw, t.shape)
    lam = (t - t0) / dt
    return t.reshape(tgrid.N, -1), w.reshape(tgrid.N, -1), lam.reshape(tgrid.N, -1)


def assemble_line_matrices(nodes) -> tuple[sp.csr_array, sp.csr_array]:
    """Coefficient-free mass and stiffness on an arbitrary ascending node set.

    Used for the temporal direction, where the adaptive grids are
    non-uniform and each interval contributes its own element matrices.
    """
    nodes = np.asarray(nodes, dtype=float)
    lengths = np.diff(nodes)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(lengths <= 0.0):
        raise ValueError("need a strictly increasing 1-D node array")
    n = nodes.size
    ne = n - 1
    left = np.arange(ne)
    rows = np.concatenate([left, left, left + 1, left + 1])
    cols = np.concatenate([left, left + 1, left, left + 1])
    m_data = np.concatenate(
        [lengths / 3.0, lengths / 6.0, lengths / 6.0, lengths / 3.0]
    )
    k_data = np.concatenate(
        [1.0 / lengths, -1.0 / lengths, -1.0 / lengths, 1.0 / lengths]
    )
    mass = sp.coo_array((m_data, (rows, cols)), shape=(n, n)).tocsr()
    stiffness = sp.coo_array((k_data, (rows, cols)), shape=(n, n)).tocsr()
    return mass, stiffness


def assemble_spatial_matrices(
    smesh: SpatialMesh,
    a: Callable,
    a0: Callable,
    quad_order: int = 3,
) -> SpatialOperatorMatrices:
    """Assemble M and K for the operator -(a v')' + a0 v.

    The diffusion coefficient must be positive at every quadrature point;
    that is the discrete counterpart of uniform ellipticity and is checked
    here rather than trusted.
    """
    quad = spatial_quadrature(smesh, quad_order)
    gw, xg, phi = quad.gw, quad.x, quad.phi
    h = smesh.h

    a_vals = _coefficient_at(a, xg)
    if np.any(a_vals <= 0.0):
        bad = xg[a_vals <= 0.0].ravel()[0]
        raise ValueError(f"diffusion coefficient is not positive at x={bad}")
    a0_vals = _coefficient_at(a0, xg)

    ne = smesh.d
    left = np.arange(ne)
    conn = np.stack([left, left + 1])

    m_el = element_matrices(h).mass
    k_scale = (a_vals @ gw) / (2.0 * h)
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])

    rows, cols, m_data, k_data, m0_data = [], [], [], [], []
    for i in range(2):
        for j in range(2):
            rows.append(conn[i])
            cols.append(conn[j])
            m_data.append(np.full(ne, m_el[i, j]))
            k_data.append(k_scale * sign[i, j])
            m0_data.append((h / 2.0) * (a0_vals * phi[i] * phi[j]) @ gw)

    n = smesh.d + 1
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)

    def _build(data) -> sp.csr_array:
        return sp.coo_array((np.concatenate(data), (rows, cols)), shape=(n, n)).tocsr()

    return SpatialOperatorMatrices(M=_build(m_data), K=_build(k_data) + _build(m0_data))
