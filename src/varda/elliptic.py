"""Space-time solver for the coupled adjoint system.

The optimality conditions of the assimilation problem reduce to one
fourth-order boundary value problem in space-time for the adjoint state p.
Introducing the auxiliary field q (the spatial operator applied to p)
splits it into two second-order equations that continuous piecewise-linear
elements can handle on the tensor grid.  Trial functions for q carry the
inhomogeneous lateral trace (minus the data on the spatial boundary) while
every test function is homogeneous, so trial and test spaces differ and the
assembled matrix is nonsymmetric.  Its symmetric part is positive definite
on the free unknowns.

The free unknowns are p on time nodes 0..N-1 and q on time nodes 0..N, both
on the interior spatial nodes; p comes first, each block time-major.  Stack
the 2N + 1 time rows the same way (N rows of p, then N + 1 rows of q) and
the whole operator is two Kronecker products,

    A = T_M (x) M_I  +  T_K (x) K_I,

    T_M = [[Kt_NN + (1/alpha) e0 e0^T, 0 ], [0,            Mt]],
    T_K = [[e0 e0^T,                Mt_N:], [-Mt_:N,       0 ]],

with Mt, Kt the temporal mass and stiffness on the (possibly non-uniform)
time grid, Kt_NN its leading N x N block, Mt_N: its first N rows and Mt_:N
its first N columns, e0 the t = 0 node, and M_I, K_I the spatial mass and
stiffness K_hat (fem1d's K, diffusion plus reaction) on the interior nodes.
The known q boundary values Q_B (one column per spatial end) are lifted to
the right-hand side through the same two time factors and the interior-row,
boundary-column blocks of M and K_hat.

The system stores the (diag, off) bands of the tridiagonal Mt and Kt,
alpha, and the fem1d.SpatialOperatorMatrices that holds the bands of M_I,
K_I and their eigenbasis: the space, built once per run and shared by every
solve, replay and oracle on its mesh.  No sparse matrix is built on the way
to a solution; A is built only when read.  solve_sparse never forms A: its
residuals use vec(T_M X M_I + T_K X K_I), X the time-major reshape of x,
T_M X and T_K X taken block by block from the bands, and since A
is a sum of two Kronecker products the tensor-product direct method of
Lynch, Rice & Thomas (Numer. Math. 6, 1964) applies exactly.  One
generalized eigenproblem K_I V = M_I V diag(lam) with V^T M_I V = I turns
both spatial factors diagonal, so the system splits
into one time problem T_M + lam T_K per spatial mode.  In mode k, the q rows
read Mt q = b_q + lam Mt_:N p, so q = Mt^-1 b_q + lam [p; 0].  Substituting
it into the p rows leaves

    (Kt_NN + lam^2 Mt_NN + (lam + 1/alpha) e0 e0^T) p = b_p - lam b_q[:N],

with Mt_NN the leading N x N block of Mt.  Kt_NN and Mt_NN are symmetric
positive definite tridiagonal matrices, so for lam > -1/alpha (always, when
a > 0 and a0 >= 0 make K_hat positive definite) every mode matrix is SPD and
tridiagonal.  Cholesky needs no pivoting on SPD matrices and is backward
stable, unlike the nonsymmetric 2 x 2 block form of each mode.  All modes are
factored at once as one block-diagonal band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from . import fem1d
from .mesh import SpaceTimeField, SpatialMesh, TimeGrid

if TYPE_CHECKING:
    from .assimilation import ProblemSpec

__all__ = [
    "DofMap",
    "AssembledSystem",
    "EllipticSolution",
    "EllipticSolverError",
    "assemble",
    "hat_rows",
    "solve_sparse",
]


class EllipticSolverError(RuntimeError):
    """Raised when the linear solve cannot meet the residual contract."""


@dataclass(frozen=True)
class DofMap:
    """Free values of the adjoint pair on the tensor grid.

    Field p is fixed to zero on the lateral boundary and on the final time
    slice; field q is fixed to q_boundary, shape (N+1, 2), on the two
    spatial ends and free elsewhere.  The free values are p[:N, 1:-1] and
    then q[:, 1:-1], each flattened time-major.
    """

    tgrid: TimeGrid
    smesh: SpatialMesh
    q_boundary: np.ndarray

    @property
    def n_p(self) -> int:
        return self.tgrid.N * (self.smesh.d - 1)

    @property
    def n_q(self) -> int:
        return (self.tgrid.N + 1) * (self.smesh.d - 1)

    @property
    def size(self) -> int:
        return self.n_p + self.n_q

    def scatter(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand a free-dof vector into full nodal (p, q) arrays."""
        if x.shape != (self.size,):
            raise ValueError(f"expected {self.size} free values, got {x.shape}")
        N, d = self.tgrid.N, self.smesh.d
        p = np.zeros((N + 1, d + 1))
        q = np.zeros((N + 1, d + 1))
        p[:N, 1:-1] = x[: self.n_p].reshape(N, d - 1)
        q[:, 1:-1] = x[self.n_p :].reshape(N + 1, d - 1)
        q[:, [0, -1]] = self.q_boundary
        return p, q

    def gather(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Collect the free-dof vector back out of full nodal arrays."""
        N = self.tgrid.N
        return np.concatenate(
            [np.asarray(p)[:N, 1:-1].ravel(), np.asarray(q)[:, 1:-1].ravel()]
        )


@dataclass(frozen=True)
class AssembledSystem:
    """A's time bands Mt, Kt and alpha, its spatial operator, the free-dof load and dof map."""

    mt: tuple[np.ndarray, np.ndarray]
    kt: tuple[np.ndarray, np.ndarray]
    alpha: float
    space: fem1d.SpatialOperatorMatrices
    b: np.ndarray
    dofmap: DofMap

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x without forming A: T_M X and T_K X block by block, then M_I and K_I."""
        N, (md, mo), (kd, ko) = self.dofmap.tgrid.N, self.mt, self.kt
        X = x.reshape(2 * N + 1, -1)
        x_p, x_q = X[:N], X[N:]
        mt_q = fem1d.tridiag_dot(md, mo, x_q)
        mt_p = fem1d.tridiag_dot(md, mo, np.vstack([x_p, np.zeros_like(x_q[:1])]))
        kd_p = np.concatenate(([kd[0] + 1.0 / self.alpha], kd[1:N]))
        tm_x = np.vstack([fem1d.tridiag_dot(kd_p, ko[: N - 1], x_p), mt_q])
        tk_x = np.vstack([mt_q[:N], -mt_p])
        # Sum row 0 in column order, e0 first, like every other row, so that each
        # row rounds as a row-by-row sparse product of T_M and T_K would.
        tk_x[0] = x_p[0] + md[0] * x_q[0] + mo[0] * x_q[1]
        m_i, k_i = self.space.inner_bands
        return (fem1d.tridiag_dot(*m_i, tm_x.T) + fem1d.tridiag_dot(*k_i, tk_x.T)).T.ravel()

    @cached_property
    def A(self) -> sp.csr_array:
        """The global sparse operator T_M (x) M_I + T_K (x) K_I, built on first read."""
        N, (kd, ko), space = self.dofmap.tgrid.N, self.kt, self.space
        mt, e0 = fem1d.band_matrix(*self.mt), sp.coo_array(([1.0], ([0], [0])), shape=(N, N))
        t_m = sp.block_diag([fem1d.band_matrix(kd[:N], ko[: N - 1]) + e0 / self.alpha, mt], format="csr")
        t_k = sp.block_array([[e0, mt[:N]], [-mt[:, :N], None]], format="csr")
        return (sp.kron(t_m, space.m_inner) + sp.kron(t_k, space.k_inner)).tocsr()


@dataclass(frozen=True)
class EllipticSolution:
    """Adjoint pair on the grids and the relative residual of the solve."""

    p: SpaceTimeField
    q: SpaceTimeField
    solver_residual: float


def hat_rows(quad: fem1d.SpatialQuadrature, g: np.ndarray, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Left and right time-hat loads (n, 2, d+1) of n intervals, from g at time_quadrature's nodes."""
    nodal = quad.gather(g)
    return np.stack([np.einsum("ik,ikj->ij", w * hat, nodal) for hat in (1.0 - lam, lam)], axis=1)


def _data_load(
    problem: "ProblemSpec",
    space: fem1d.SpatialOperatorMatrices,
    tgrid: TimeGrid,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Load against every p test function, shape (N+1, d+1), time-major.

    Space-time term: integral of (f - dt y_d - A y_d) against each hat
    function, summed from the intervals' hat_rows (sampled unless given).
    Initial term: integral of (y_b - y_d(0)) against the t=0 hats.
    """
    quad = space.quad
    if rows is None:
        t, w, lam = fem1d.time_quadrature(tgrid, quad.order)
        rows = hat_rows(quad, problem.data_residual(t, quad.x), w, lam)

    # Interval i feeds the time hats of its nodes i and i + 1.
    load = np.zeros((tgrid.N + 1, space.smesh.d + 1))
    load[:-1] += rows[:, 0]
    load[1:] += rows[:, 1]

    g0 = fem1d._coefficient_at(problem.y_b, quad.x) - fem1d.sample(problem.y_d, 0.0, quad.x)
    load[0] += quad.gather(g0)
    return load


def assemble(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
    *,
    space: fem1d.SpatialOperatorMatrices | None = None,
    rows: np.ndarray | None = None,
) -> AssembledSystem:
    """Assemble A = T_M (x) M_I + T_K (x) K_I as factors, and its free-dof load.

    space is the run's spatial operator and rows the intervals' hat_rows,
    each built here when not given.  Raises ValueError for a spatial mesh
    without an interior node, for a space that does not match smesh,
    quad_order and problem's a, a0, and for a load whose squared norm
    overflows.  alpha and the time grid need no check: ProblemSpec requires
    alpha > 0 and every TimeGrid has an interval.
    """
    if smesh.d < 2:
        raise ValueError("need at least one interior spatial node")
    if space is None:
        space = fem1d.assemble_spatial_matrices(smesh, problem.a, problem.a0, quad_order=quad_order)
    elif not (np.array_equal(space.smesh.nodes, smesh.nodes) and space.quad.order == quad_order):
        raise ValueError("spatial operator was built on another mesh or at another quad_order")
    elif space.a is not problem.a or space.a0 is not problem.a0:
        raise ValueError("spatial operator was built from other a, a0 callables than the problem's")

    N = tgrid.N
    mt, kt = fem1d.assemble_line_matrices(tgrid.taus)

    # Lift the known q boundary values through the same two factors: T_M's
    # q block is Mt and T_K's p-row q block Mt_N:.
    ends = np.array([smesh.x_left, smesh.x_right])
    q_boundary = -fem1d.sample(problem.y_d, tgrid.taus, ends)
    m_b, k_b = space.boundary_columns
    mq = fem1d.tridiag_dot(*mt, q_boundary)
    b_p = _data_load(problem, space, tgrid, rows)[:N, 1:-1] - mq[:N] @ k_b.T
    b = np.concatenate([b_p, -mq @ m_b.T]).ravel()
    # np.sum, not a BLAS dot, whose threads would spin against the next eigh.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(b * b)):
            raise ValueError(f"load overflows: |b|^2 is not finite (max |b_i| {np.abs(b).max():.3g})")
    return AssembledSystem(
        mt=mt,
        kt=kt,
        alpha=problem.alpha,
        space=space,
        b=b,
        dofmap=DofMap(tgrid=tgrid, smesh=smesh, q_boundary=q_boundary),
    )


def _factor(system: AssembledSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Fast-diagonalization factors of the system's operator, as a solve for A x = r.

    See the module docstring for the per-mode reduction.  Raises LinAlgError
    when a factorization meets a matrix that is not positive definite.
    """
    lam, V = system.space.modes
    N, n = system.dofmap.tgrid.N, lam.size
    (md, mo), (kd, ko) = system.mt, system.kt

    # Upper band of every mode matrix, modes one after another; the first
    # superdiagonal slot of each mode stays zero, which decouples the modes.
    diag = np.concatenate(([kd[0] + 1.0 / system.alpha], kd[1:N])) + np.outer(lam * lam, md[:N])
    diag[:, 0] += lam
    sup = np.zeros((n, N))
    sup[:, 1:] = ko[: N - 1] + np.outer(lam * lam, mo[: N - 1])
    modes = la.cholesky_banded(np.stack([sup.ravel(), diag.ravel()]))
    mass = la.cholesky_banded(np.stack([np.concatenate(([0.0], mo)), md]))

    def solve(r: np.ndarray) -> np.ndarray:
        r_p = r[: N * n].reshape(N, n) @ V
        r_q = r[N * n :].reshape(N + 1, n) @ V
        rhs = (r_p - lam * r_q[:N]).T.ravel()
        p = la.cho_solve_banded((modes, False), rhs, check_finite=False).reshape(n, N).T
        q = la.cho_solve_banded((mass, False), r_q, check_finite=False)
        q[:N] += lam * p
        return np.concatenate([(p @ V.T).ravel(), (q @ V.T).ravel()])

    return solve


def solve_sparse(system: AssembledSystem) -> EllipticSolution:
    """Direct tensor-product solve with one step of iterative refinement.

    The contract is a relative residual of at most 1e-10 (absolute 1e-12
    for a zero load), measured with the matrix-free product system.apply;
    anything worse, or a residual that is not a number, raises
    EllipticSolverError instead of returning a silently inaccurate solution.
    """
    b = system.b
    try:
        solve = _factor(system)
    except la.LinAlgError as exc:
        raise EllipticSolverError(f"tensor factorization failed: {exc}") from exc
    x = solve(b)
    x += solve(b - system.apply(x))

    residual = float(np.linalg.norm(b - system.apply(x))) / (float(np.linalg.norm(b)) or 1.0)
    contract = 1e-10 if np.any(b) else 1e-12
    if not residual <= contract:
        raise EllipticSolverError(
            f"linear solve achieved residual {residual:.3e}, contract is {contract:g}"
        )

    p_vals, q_vals = system.dofmap.scatter(x)
    tgrid, smesh = system.dofmap.tgrid, system.dofmap.smesh
    return EllipticSolution(
        p=SpaceTimeField(tgrid, smesh, p_vals),
        q=SpaceTimeField(tgrid, smesh, q_vals),
        solver_residual=residual,
    )
