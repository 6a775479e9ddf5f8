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

Block layout of the free unknowns: all free p values first, then all free q
values, each block time-major.  In tensor form the blocks are

    A_pp = Kt (x) M  +  E00 (x) (K_a + M_a0 + (1/alpha) M)
    A_pq =  Mt (x) (K_a + M_a0)
    A_qp = -Mt (x) (K_a + M_a0)   (negative transpose of A_pq)
    A_qq =  Mt (x) M

with Mt, Kt the temporal mass/stiffness on the (possibly non-uniform) time
grid, M, K_a, M_a0 the spatial matrices, and E00 picking the t=0 node.
Constrained values are eliminated; the known q boundary columns move to the
right-hand side.

solve_sparse never factors A.  Because every block is a Kronecker product,
the tensor-product direct method of Lynch, Rice & Thomas (Numer. Math. 6,
1964) applies exactly.  On the interior spatial nodes, one generalized
eigenproblem K_hat V = M V diag(lam) with K_hat = K_a + M_a0 and V^T M V = I
turns every spatial matrix diagonal, so the system splits into one
independent time problem per spatial mode k.  In mode k, with the final-time
row of p removed (p(T) = 0), the q equation reads Mt q = b_q + lam Mt[:, :N] p,
so q = Mt^-1 b_q + lam [p; 0].  Substituting it into the p equation leaves

    (Kt_NN + lam^2 Mt_NN + (lam + 1/alpha) e0 e0^T) p = b_p - lam b_q[:N],

with Kt_NN, Mt_NN the leading N x N blocks.  Kt_NN and Mt_NN are symmetric
positive definite tridiagonal matrices, so for lam > -1/alpha (always, when
a > 0 and a0 >= 0 make K_hat positive definite) every mode matrix is SPD and
tridiagonal.  Cholesky needs no pivoting on SPD matrices and is backward
stable, unlike the nonsymmetric 2 x 2 block form of each mode.  All modes are
factored at once as one block-diagonal band.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "build_dofmap",
    "assemble",
    "solve_sparse",
    "residual_check",
]


class EllipticSolverError(RuntimeError):
    """Raised when the linear solve cannot meet the residual contract."""


@dataclass(frozen=True)
class DofMap:
    """Free/fixed classification of every (field, time node, space node).

    Field p is fixed to zero on the lateral boundary and on the final time
    slice; field q is fixed to minus the data trace on the lateral boundary
    and free elsewhere.  Flat node ids are time-major, i * (d+1) + j.
    """

    tgrid: TimeGrid
    smesh: SpatialMesh
    p_free: np.ndarray
    q_free: np.ndarray
    q_fixed: np.ndarray
    q_fixed_values: np.ndarray

    @property
    def n_p(self) -> int:
        return self.p_free.size

    @property
    def n_q(self) -> int:
        return self.q_free.size

    @property
    def size(self) -> int:
        return self.n_p + self.n_q

    def scatter(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand a free-dof vector into full nodal (p, q) arrays."""
        if x.shape != (self.size,):
            raise ValueError(f"expected {self.size} free values, got {x.shape}")
        shape = (self.tgrid.N + 1, self.smesh.d + 1)
        p = np.zeros(shape)
        q = np.zeros(shape)
        p.ravel()[self.p_free] = x[: self.n_p]
        q.ravel()[self.q_free] = x[self.n_p :]
        q.ravel()[self.q_fixed] = self.q_fixed_values
        return p, q

    def gather(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Collect the free-dof vector back out of full nodal arrays."""
        return np.concatenate(
            [np.asarray(p).ravel()[self.p_free], np.asarray(q).ravel()[self.q_free]]
        )


@dataclass(frozen=True)
class AssembledSystem:
    """Sparse operator and load over the free dofs, plus their dof map.

    The 1-D factors of A's Kronecker blocks come along for the solver:
    k_hat_inner and m_inner are K_a + M_a0 and M on the interior spatial
    nodes (dense), mt and kt the temporal mass and stiffness.
    """

    A: sp.csr_array
    b: np.ndarray
    dofmap: DofMap
    k_hat_inner: np.ndarray
    m_inner: np.ndarray
    mt: sp.csr_array
    kt: sp.csr_array
    alpha: float


@dataclass(frozen=True)
class EllipticSolution:
    """Adjoint pair on the grids and the relative residual of the solve."""

    p: SpaceTimeField
    q: SpaceTimeField
    solver_residual: float


def build_dofmap(problem: "ProblemSpec", smesh: SpatialMesh, tgrid: TimeGrid) -> DofMap:
    """Classify dofs and tabulate the fixed boundary values of q."""
    n_x = smesh.d + 1
    inner = np.arange(1, smesh.d)
    p_rows = np.arange(tgrid.N) * n_x
    q_rows = np.arange(tgrid.N + 1) * n_x
    p_free = (p_rows[:, None] + inner[None, :]).ravel()
    q_free = (q_rows[:, None] + inner[None, :]).ravel()
    q_fixed = (q_rows[:, None] + np.array([0, smesh.d])[None, :]).ravel()
    trace = fem1d.sample(problem.y_d, tgrid.taus, np.array([smesh.x_left, smesh.x_right]))
    q_fixed_values = -trace.ravel()
    return DofMap(
        tgrid=tgrid,
        smesh=smesh,
        p_free=p_free,
        q_free=q_free,
        q_fixed=q_fixed,
        q_fixed_values=q_fixed_values,
    )


def _data_load(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int,
) -> np.ndarray:
    """Load vector over all p test functions (full node set, time-major).

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
    return load.ravel()


def assemble(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
) -> AssembledSystem:
    """Assemble the free-dof system for the adjoint pair.

    Raises ValueError for a non-positive trust coefficient or degenerate
    grids (the coupled system needs at least one interval in time and one
    interior node in space).
    """
    if not problem.alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {problem.alpha}")
    if tgrid.N < 1:
        raise ValueError("need at least one time interval")
    if smesh.d < 2:
        raise ValueError("need at least one interior spatial node")

    dofmap = build_dofmap(problem, smesh, tgrid)
    mats = fem1d.assemble_spatial_matrices(
        smesh, problem.a, problem.a0, quad_order=quad_order
    )
    k_hat = (mats.K_a + mats.M_a0).tocsr()
    s0 = (k_hat + (1.0 / problem.alpha) * mats.M).tocsr()

    mt, kt = fem1d.assemble_line_matrices(tgrid.taus)
    n_t = tgrid.N + 1
    e00 = sp.coo_array(([1.0], ([0], [0])), shape=(n_t, n_t))

    a_pp_full = (sp.kron(kt, mats.M) + sp.kron(e00, s0)).tocsr()
    coupling_full = sp.kron(mt, k_hat).tocsr()
    a_qq_full = sp.kron(mt, mats.M).tocsr()

    pf, qf, qx = dofmap.p_free, dofmap.q_free, dofmap.q_fixed
    a_pp = a_pp_full[pf][:, pf]
    a_pq = coupling_full[pf][:, qf]
    a_qp = -coupling_full[qf][:, pf]
    a_qq = a_qq_full[qf][:, qf]
    A = sp.block_array([[a_pp, a_pq], [a_qp, a_qq]]).tocsr()

    b_p = _data_load(problem, smesh, tgrid, quad_order)[pf]
    b_q = np.zeros(qf.size)
    if np.any(dofmap.q_fixed_values):
        # Lift the known q boundary columns onto the right-hand side.
        b_p -= coupling_full[pf][:, qx] @ dofmap.q_fixed_values
        b_q -= a_qq_full[qf][:, qx] @ dofmap.q_fixed_values
    b = np.concatenate([b_p, b_q])
    return AssembledSystem(
        A=A,
        b=b,
        dofmap=dofmap,
        k_hat_inner=k_hat[1:-1, 1:-1].toarray(),
        m_inner=mats.M[1:-1, 1:-1].toarray(),
        mt=mt,
        kt=kt,
        alpha=float(problem.alpha),
    )


def _relative_residual(A: sp.csr_array, x: np.ndarray, b: np.ndarray) -> float:
    r = b - A @ x
    norm_b = float(np.linalg.norm(b))
    norm_r = float(np.linalg.norm(r))
    return norm_r / norm_b if norm_b > 0.0 else norm_r


def _factor(system: AssembledSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Fast-diagonalization factors of system.A, as a solve for A x = r.

    See the module docstring for the per-mode reduction.  Raises LinAlgError
    when a factorization meets a matrix that is not positive definite.
    """
    lam, V = la.eigh(system.k_hat_inner, system.m_inner)
    N, n = system.dofmap.tgrid.N, lam.size
    mt, kt = system.mt, system.kt

    # Upper band of every mode matrix, modes one after another; the first
    # superdiagonal slot of each mode stays zero, which decouples the modes.
    diag = kt.diagonal()[:N] + np.outer(lam * lam, mt.diagonal()[:N])
    diag[:, 0] += lam + 1.0 / system.alpha
    sup = np.zeros((n, N))
    sup[:, 1:] = kt.diagonal(1)[: N - 1] + np.outer(lam * lam, mt.diagonal(1)[: N - 1])
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
    for a zero load), measured against the assembled A; anything worse, or
    a residual that is not a number, raises EllipticSolverError instead of
    returning a silently inaccurate solution.
    """
    A, b = system.A, system.b
    try:
        solve = _factor(system)
    except la.LinAlgError as exc:
        raise EllipticSolverError(f"tensor factorization failed: {exc}") from exc
    x = solve(b)
    x += solve(b - A @ x)

    residual = _relative_residual(A, x, b)
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


def residual_check(system: AssembledSystem, sol: EllipticSolution) -> float:
    """Relative algebraic residual of a solution against its system.

    This is the fully discrete counterpart of Galerkin orthogonality: a
    converged solution leaves no component of the load in the test space.
    """
    x = system.dofmap.gather(sol.p.values, sol.q.values)
    return _relative_residual(system.A, x, system.b)
