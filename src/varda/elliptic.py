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

Only the four 1-D factors are stored; A is built when something reads it.
solve_sparse never forms A: its residuals use vec(T_M X M_I^T + T_K X K_I^T),
X the time-major reshape of x, and since A is a sum of two Kronecker products
the tensor-product direct method of Lynch, Rice & Thomas (Numer. Math. 6,
1964) applies exactly.  One generalized eigenproblem K_I V = M_I V diag(lam)
with V^T M_I V = I turns both spatial factors diagonal, so the system splits
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
    """A's 1-D factors T_M, T_K, M_I, K_I, the load on the free dofs, and their dof map."""

    t_m: sp.csr_array
    t_k: sp.csr_array
    m_inner: sp.csr_array
    k_inner: sp.csr_array
    b: np.ndarray
    dofmap: DofMap

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x without forming A."""
        X = x.reshape(self.t_m.shape[0], self.m_inner.shape[0])
        return (self.t_m @ X @ self.m_inner.T + self.t_k @ X @ self.k_inner.T).ravel()

    @cached_property
    def A(self) -> sp.csr_array:
        """The global sparse operator T_M (x) M_I + T_K (x) K_I, built on first read."""
        return (sp.kron(self.t_m, self.m_inner) + sp.kron(self.t_k, self.k_inner)).tocsr()


@dataclass(frozen=True)
class EllipticSolution:
    """Adjoint pair on the grids and the relative residual of the solve."""

    p: SpaceTimeField
    q: SpaceTimeField
    solver_residual: float


def _data_load(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int,
) -> np.ndarray:
    """Load against every p test function, shape (N+1, d+1), time-major.

    Space-time term: integral of (f - dt y_d - A y_d) against each hat
    function.  Initial term: integral of (y_b - y_d(0)) against the t=0
    hats.  Tensor Gauss quadrature with quad_order points per direction.
    """
    quad = fem1d.spatial_quadrature(smesh, quad_order)
    t, w, lam = fem1d.time_quadrature(tgrid, quad_order)
    nodal = quad.gather(problem.data_residual(t, quad.x))

    # Interval i feeds the time hats of its nodes i and i + 1.
    load = np.zeros((tgrid.N + 1, smesh.d + 1))
    load[:-1] += np.einsum("ik,ikj->ij", w * (1.0 - lam), nodal)
    load[1:] += np.einsum("ik,ikj->ij", w * lam, nodal)

    g0 = fem1d._coefficient_at(problem.y_b, quad.x) - fem1d.sample(problem.y_d, 0.0, quad.x)
    load[0] += quad.gather(g0)
    return load


def assemble(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
) -> AssembledSystem:
    """Assemble the 1-D factors of A = T_M (x) M_I + T_K (x) K_I and its free-dof load.

    Raises ValueError for a spatial mesh without an interior node.  The
    trust coefficient and the time grid need no check here: ProblemSpec
    requires alpha > 0 and every TimeGrid has at least one interval.
    """
    if smesh.d < 2:
        raise ValueError("need at least one interior spatial node")

    N, d = tgrid.N, smesh.d
    mats = fem1d.assemble_spatial_matrices(
        smesh, problem.a, problem.a0, quad_order=quad_order
    )
    m, k_hat = mats.M, mats.K
    mt, kt = fem1d.assemble_line_matrices(tgrid.taus)

    e0 = sp.coo_array(([1.0], ([0], [0])), shape=(N, N))
    t_m = sp.block_diag([kt[:N, :N] + e0 / problem.alpha, mt], format="csr")
    t_k = sp.block_array([[e0, mt[:N]], [-mt[:, :N], None]], format="csr")

    # Lift the known q boundary values through the same two factors; the
    # column slice ::d keeps the two boundary columns 0 and d.
    ends = np.array([smesh.x_left, smesh.x_right])
    q_boundary = -fem1d.sample(problem.y_d, tgrid.taus, ends)
    b = -(
        t_m[:, N:] @ q_boundary @ m[1:-1, ::d].T
        + t_k[:, N:] @ q_boundary @ k_hat[1:-1, ::d].T
    )
    b[:N] += _data_load(problem, smesh, tgrid, quad_order)[:N, 1:-1]
    return AssembledSystem(
        t_m=t_m,
        t_k=t_k,
        m_inner=m[1:-1, 1:-1],
        k_inner=k_hat[1:-1, 1:-1],
        b=b.ravel(),
        dofmap=DofMap(tgrid=tgrid, smesh=smesh, q_boundary=q_boundary),
    )


def _factor(system: AssembledSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Fast-diagonalization factors of the system's operator, as a solve for A x = r.

    See the module docstring for the per-mode reduction.  Raises LinAlgError
    when a factorization meets a matrix that is not positive definite.
    """
    lam, V = la.eigh(system.k_inner.toarray(), system.m_inner.toarray())
    N, n = system.dofmap.tgrid.N, lam.size
    t_m, mt = system.t_m, system.t_m[N:, N:]

    # Upper band of every mode matrix, modes one after another; the first
    # superdiagonal slot of each mode stays zero, which decouples the modes.
    # The p block of t_m is Kt_NN with 1/alpha already on its first diagonal entry.
    diag = t_m.diagonal()[:N] + np.outer(lam * lam, mt.diagonal()[:N])
    diag[:, 0] += lam
    sup = np.zeros((n, N))
    sup[:, 1:] = t_m.diagonal(1)[: N - 1] + np.outer(lam * lam, mt.diagonal(1)[: N - 1])
    modes = la.cholesky_banded(np.stack([sup.ravel(), diag.ravel()]))
    mass = la.cholesky_banded(np.stack([np.r_[0.0, mt.diagonal(1)], mt.diagonal()]))

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
