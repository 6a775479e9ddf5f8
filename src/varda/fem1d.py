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
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .mesh import SpatialMesh

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    "eigenbasis",
    "tridiag_dense",
    "tridiag_dot",
    "tridiag_factor",
    "tridiag_solve",
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
    """The spatial discretization of one run: global bands, interior blocks, modes.

    M is the plain mass matrix and K the stiffness of -(a v')' + a0 v: the
    diffusion stiffness weighted by a(x) plus the mass matrix weighted by
    the reaction coefficient a0(x).  Both are symmetric tridiagonal and kept
    as their (diag, off) bands m_band and k_band.  The space keeps its mesh,
    Gauss rule quad and a, a0 callables, is built once per run and is shared
    by every solve, replay and oracle on its mesh.  The interior bands and
    the eigenbasis modes are built on first read, and so are the sparse
    views M, K, m_inner and k_inner (M_I and K_I), which no run reads.
    The interior rows of M's and K's boundary columns, which the solver
    lifts the q trace through, hold one entry each: an end of the off band.
    """

    smesh: SpatialMesh
    quad: SpatialQuadrature
    a: Callable
    a0: Callable
    m_band: tuple[np.ndarray, np.ndarray]
    k_band: tuple[np.ndarray, np.ndarray]

    @cached_property
    def M(self) -> sp.csr_array:
        return _band_matrix(*self.m_band)

    @cached_property
    def K(self) -> sp.csr_array:
        return _band_matrix(*self.k_band)

    @cached_property
    def m_inner(self) -> sp.csr_array:
        return _band_matrix(*self.inner_bands[0])

    @cached_property
    def k_inner(self) -> sp.csr_array:
        return _band_matrix(*self.inner_bands[1])

    @cached_property
    def inner_bands(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """((diag, off), (diag, off)) bands of M_I and K_I, for tridiag_dot."""
        return tuple((diag[1:-1], off[1:-1]) for diag, off in (self.m_band, self.k_band))

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, V) with K_I V = M_I V diag(lam), V^T M_I V = I; LinAlgError unless M_I is SPD."""
        return eigenbasis(*self.inner_bands)


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


def _finite(fun: Callable, vals: np.ndarray, shape: tuple) -> np.ndarray:
    """vals broadcast to shape; ValueError if vals holds a non-finite entry and the shape is not empty."""
    out = np.broadcast_to(vals, shape)
    if out.size and not np.all(np.isfinite(vals)):
        raise ValueError(f"callback {getattr(fun, '__qualname__', fun)} returned non-finite values")
    return out


# Both samplers evaluate callbacks with numpy's floating-point warnings off:
# _finite turns a non-finite result into an error that names the callback.
def _coefficient_at(fun: Callable, x: np.ndarray) -> np.ndarray:
    # Accepts scalar-valued or vectorized callables.
    with np.errstate(all="ignore"):
        vals = np.asarray(fun(x), dtype=float)
    return _finite(fun, vals, x.shape)


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
    return _finite(fun, np.asarray(vals, dtype=float), t.shape + x.shape)


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

    @property
    def order(self) -> int:
        return self.gw.size

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Integrals of values (..., d, q) at x against each hat, (..., d + 1), adding the q points in order."""
        nodal = np.zeros(values.shape[:-2] + (values.shape[-2] + 1,))
        for cells, c in ((nodal[..., :-1], self.w * self.phi[0]), (nodal[..., 1:], self.w * self.phi[1])):
            acc = values[..., 0] * c[0]
            for k in range(1, self.order):
                acc += values[..., k] * c[k]
            cells += acc
        return nodal


def spatial_quadrature(smesh: SpatialMesh, quad_order: int) -> SpatialQuadrature:
    """Lay out a Gauss rule of the given order on every cell of smesh."""
    gp, gw = gauss_rule(quad_order)
    centers = 0.5 * (smesh.nodes[:-1] + smesh.nodes[1:])
    xg = centers[:, None] + 0.5 * smesh.h * gp[None, :]
    phi = np.stack([(1.0 - gp) / 2.0, (1.0 + gp) / 2.0])
    return SpatialQuadrature(gw, xg, 0.5 * smesh.h * gw, phi)


def time_quadrature(starts: np.ndarray, lengths: np.ndarray, quad_order: int, panels: int = 1):
    """Composite Gauss rule over equal sub-panels of the time intervals [t0, t0 + dt].

    starts and lengths hold the n intervals' t0 and dt, as a TimeGrid's
    taus[:-1] and deltas do.  Returns the nodes t, their weights, and
    lam = (t - t0) / dt, their place in the interval; each has shape
    (n, panels * q), one row per interval, and a row depends on its own
    interval only.
    """
    gp, gw = gauss_rule(quad_order)
    t0 = np.asarray(starts, dtype=float)[:, None, None]
    dt = np.asarray(lengths, dtype=float)[:, None, None]
    panel_dt = dt / panels
    panel_mid = t0 + (np.arange(panels)[None, :, None] + 0.5) * panel_dt
    t = panel_mid + 0.5 * panel_dt * gp
    w = np.broadcast_to(0.5 * panel_dt * gw, t.shape)
    lam = (t - t0) / dt
    return t.reshape(len(t0), -1), w.reshape(len(t0), -1), lam.reshape(len(t0), -1)


def _bands(e00: np.ndarray, e01: np.ndarray, e11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bands (diag, off) from each element's entries, along the last axis; element i joins nodes i and i + 1."""
    shape = np.shape(e00)[:-1] + (np.shape(e00)[-1] + 1,)
    left, right = np.zeros(shape), np.zeros(shape)
    left[..., :-1], right[..., 1:] = e00, e11
    return left + right, e01


def _band_matrix(diag: np.ndarray, off: np.ndarray) -> sp.csr_array:
    """The symmetric tridiagonal matrix with these bands, as CSR: a view for checks, off the run path."""
    import scipy.sparse as sp

    return sp.diags_array([off, diag, off], offsets=(-1, 0, 1), format="csr")


def assemble_line_matrices(nodes):
    """Coefficient-free mass and stiffness on ascending node sets, one per row along the last axis.

    Used for the temporal direction, where the adaptive grids are
    non-uniform and each interval contributes its own element matrices.
    Both are symmetric tridiagonal and returned as bands,
    ((m_diag, m_off), (k_diag, k_off)), along the last axis, for
    tridiag_dot.  A row may end in repeats of its last node, so that node
    sets of different sizes lie side by side: those empty elements add zero
    entries, and a set's bands are bitwise the ones it gets alone.
    """
    nodes = np.asarray(nodes, dtype=float)
    lengths = np.diff(nodes)
    real = lengths > 0.0
    # No NaN, no step back, and no empty element before a real one.
    valid = nodes.shape[-1] >= 2 and real[..., 0].all() and (lengths >= 0.0).all()
    if not (valid and (real[..., :-1] >= real[..., 1:]).all()):
        raise ValueError("need strictly increasing node rows, each padded only by repeating its last node")
    m_el, k_el = lengths / 3.0, np.divide(1.0, lengths, out=np.zeros_like(lengths), where=real)
    return _bands(m_el, lengths / 6.0, m_el), _bands(k_el, -k_el, k_el)


def tridiag_dot(diag: np.ndarray, off: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with these bands times Y along axis 0; one per lane if (m, lanes...)."""
    lanes = (...,) + (None,) * (np.ndim(Y) - np.ndim(diag))
    diag, off = diag[lanes], off[lanes]
    out = diag * Y
    out[1:] += off * Y[:-1]
    out[:-1] += off * Y[1:]
    return out


def tridiag_dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with these bands, as a dense array."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


# The LDL^T kernel (Golub & Van Loan, Matrix Computations, 4th ed., 4.3):
# rows run along the first axis and every other axis holds independent
# lanes, each one matrix, so a lane's result does not depend on its
# neighbours.  A lane shorter than the array is padded after its last row
# with identity rows, which a zero off entry leaves uncoupled.
def tridiag_factor(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, l) with A = L D L^T per lane: D = diag(d) and L unit lower bidiagonal, l below its diagonal.

    diag (m, lanes...) and off (m - 1, lanes...), with at least one lane
    axis, are the bands of symmetric tridiagonal matrices in tridiag_dot's
    layout.  Every row is factored first, with numpy's floating-point
    warnings off, and the pivots are checked once after: a pivot that is
    not positive, or NaN, raises LinAlgError naming the first such row.
    Row j's pivots follow from rows 0..j alone, so that is the row a check
    before each division would stop at.
    """
    d, l = np.array(diag, dtype=float, order="C"), np.empty(np.shape(off))
    buf = np.empty_like(d[0])
    with np.errstate(all="ignore"):
        for j in range(len(d) - 1):
            np.divide(off[j], d[j], out=l[j])
            np.subtract(d[j + 1], np.multiply(l[j], off[j], out=buf), out=d[j + 1])
    positive = (d > 0.0).reshape(len(d), -1).all(axis=1)
    if not positive.all():
        j = int(np.argmin(positive))
        raise np.linalg.LinAlgError(f"matrix is not positive definite: pivot {j} is {d[j].min()}")
    return d, l


def _sweep_down(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r <- L^-1 r in place, L unit lower bidiagonal with l below its diagonal."""
    buf = np.empty_like(r[0])
    for j in range(1, len(r)):
        np.subtract(r[j], np.multiply(l[j - 1], r[j - 1], out=buf), out=r[j])
    return r


def _sweep_up(l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r <- L^-T r in place."""
    buf = np.empty_like(r[0])
    for j in range(len(r) - 2, -1, -1):
        np.subtract(r[j], np.multiply(l[j], r[j + 1], out=buf), out=r[j])
    return r


def tridiag_solve(d: np.ndarray, l: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r <- A^-1 r in place, from tridiag_factor's (d, l) of A; r has d's shape."""
    _sweep_down(l, r)
    r /= d
    return _sweep_up(l, r)


def eigenbasis(m_band: tuple[np.ndarray, np.ndarray], k_band: tuple[np.ndarray, np.ndarray]):
    """(lam, V) with K V = M V diag(lam) and V^T M V = I, ascending lam, for tridiagonal SPD M.

    Reduces the symmetric-definite pencil by M's Cholesky factor
    L = L_1 D^(1/2) (Golub & Van Loan, 8.7): W diagonalizes the symmetrized
    L^-1 K L^-T, and V = L^-T W.  Raises LinAlgError unless M is positive
    definite.
    """
    (diag, off), K = m_band, tridiag_dense(*k_band)
    d, l = tridiag_factor(diag[:, None], off[:, None])
    scale = 1.0 / np.sqrt(d)
    # L_1^-1 K L_1^-T, then D^(-1/2) on both sides.
    half = _sweep_down(l, K)
    c = _sweep_down(l, np.ascontiguousarray(half.T)) * scale * scale.T
    lam, W = np.linalg.eigh(0.5 * (c + c.T))
    return lam, _sweep_up(l, W * scale)


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

    m_el = element_matrices(h).mass
    k_scale = (a_vals @ gw) / (2.0 * h)
    pairs = ((0, 0), (0, 1), (1, 1))
    m_band = _bands(*(np.full(smesh.d, m_el[ij]) for ij in pairs))
    k_diag, k_off = _bands(k_scale, -k_scale, k_scale)
    # Banding diffusion and reaction apart fixes the rounding order of K's diagonal.
    r_diag, r_off = _bands(*((h / 2.0) * (a0_vals * (phi[i] * phi[j])) @ gw for i, j in pairs))
    return SpatialOperatorMatrices(smesh, quad, a, a0, m_band, (k_diag + r_diag, k_off + r_off))
