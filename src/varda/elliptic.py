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
to a solution; A is built only when read.  The solver never forms A: its
residuals use vec(T_M X M_I + T_K X K_I), with X's p rows and q rows on
lanes side by side (see _Batch) and T_M X, T_K X taken lane by lane from the
time bands.  Since A is a sum of two Kronecker products, the tensor-product
direct method of Lynch, Rice & Thomas (Numer. Math. 6, 1964) applies
exactly.  One generalized eigenproblem K_I V = M_I V diag(lam) with
V^T M_I V = I turns both spatial factors diagonal, so the system splits
into one time problem T_M + lam T_K per spatial mode.  In mode k, the q rows
read Mt q = b_q + lam Mt_:N p, so q = Mt^-1 b_q + lam [p; 0].  Substituting
it into the p rows leaves

    (Kt_NN + lam^2 Mt_NN + (lam + 1/alpha) e0 e0^T) p = b_p - lam b_q[:N],

with Mt_NN the leading N x N block of Mt.  Kt_NN and Mt_NN are symmetric
positive definite tridiagonal matrices, so for lam > -1/alpha (always, when
a > 0 and a0 >= 0 make K_hat positive definite) every mode matrix is SPD and
tridiagonal.  Its LDL^T factorization needs no pivoting and is backward
stable, unlike the nonsymmetric 2 x 2 block form of each mode.  Every mode
matrix and the time mass of each system are the lanes of one tridiagonal
kernel (fem1d.tridiag_factor), laid side by side and padded after their
last rows, so one loop over the time rows factors them all, for one system
or for the many systems on one space and alpha that solve_batch takes.
One solve meets the residual contract except on steeply graded time grids,
so a step of iterative refinement (Skeel, 1980) runs only where it misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import fem1d
from .mesh import SpaceTimeField, SpatialMesh, TimeGrid

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .assimilation import ProblemSpec

__all__ = [
    "DofMap",
    "AssembledSystem",
    "EllipticSolution",
    "EllipticSolverError",
    "assemble",
    "assemble_batch",
    "solve_batch",
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

    @cached_property
    def A(self) -> sp.csr_array:
        """The global sparse operator T_M (x) M_I + T_K (x) K_I, built on first read; no run reads it."""
        import scipy.sparse as sp

        N, (kd, ko), space = self.dofmap.tgrid.N, self.kt, self.space
        mt, e0 = fem1d._band_matrix(*self.mt), sp.coo_array(([1.0], ([0], [0])), shape=(N, N))
        t_m = sp.block_diag([fem1d._band_matrix(kd[:N], ko[: N - 1]) + e0 / self.alpha, mt], format="csr")
        t_k = sp.block_array([[e0, mt[:N]], [-mt[:, :N], None]], format="csr")
        return (sp.kron(t_m, space.m_inner) + sp.kron(t_k, space.k_inner)).tocsr()


@dataclass(frozen=True)
class EllipticSolution:
    """The solved free values x in dofmap's order and the relative residual of the solve.

    The adjoint pair p, q is scattered from x on first read, each field on
    its own; p0 reads p(0) alone and builds neither.
    """

    dofmap: DofMap
    x: np.ndarray
    solver_residual: float

    @cached_property
    def p(self) -> SpaceTimeField:
        """p on the grids: zero on the two spatial ends and on the final time slice."""
        (N, d), dofmap = (self.dofmap.tgrid.N, self.dofmap.smesh.d), self.dofmap
        p = np.zeros((N + 1, d + 1))
        p[:N, 1:-1] = self.x[: dofmap.n_p].reshape(N, d - 1)
        return SpaceTimeField(dofmap.tgrid, dofmap.smesh, p)

    @property
    def p0(self) -> np.ndarray:
        """p.values[0] read straight off x, without building p: x's first d - 1 values between zero ends."""
        return np.concatenate(([0.0], self.x[: self.dofmap.smesh.d - 1], [0.0]))

    @cached_property
    def q(self) -> SpaceTimeField:
        """q on the grids, with q_boundary on the two spatial ends."""
        (N, d), dofmap = (self.dofmap.tgrid.N, self.dofmap.smesh.d), self.dofmap
        q = np.zeros((N + 1, d + 1))
        q[:, 1:-1] = self.x[dofmap.n_p :].reshape(N + 1, d - 1)
        q[:, [0, -1]] = dofmap.q_boundary
        return SpaceTimeField(dofmap.tgrid, dofmap.smesh, q)


def _hat_rows(quad: fem1d.SpatialQuadrature, g: np.ndarray, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Left and right time-hat loads (n, 2, d+1) of n intervals, from g at time_quadrature's nodes."""
    nodal = quad.gather(g)
    return np.stack([np.einsum("ik,ikj->ij", w * hat, nodal) for hat in (1.0 - lam, lam)], axis=1)


def _data_loads(problem: "ProblemSpec", space: fem1d.SpatialOperatorMatrices, tgrids, rows=None) -> np.ndarray:
    """Loads against every p test function, shape (S, n + 1, d + 1), n the largest N of the S grids.

    Row s holds grid s's (N+1, d+1) time-major load, zero after it.
    Space-time term: integral of (f - dt y_d - A y_d) against each hat
    function, summed from the intervals' _hat_rows, which rows maps from each
    key of TimeGrid.intervals.  The distinct intervals that rows lacks are
    sampled here, in one call, and added to it.  An interval's rows depend on
    its t0 and t1 only (t1 - t0 is bitwise deltas), so rows changes no bit of
    a load.  Initial term: integral of (y_b - y_d(0)) against the t=0 hats,
    sampled once per dict and kept in it under the key "initial".
    """
    quad, rows = space.quad, {} if rows is None else rows
    keys = [g.intervals for g in tgrids]
    missing = [key for key in dict.fromkeys(key for grid in keys for key in grid) if key not in rows]
    if missing:
        t0, t1 = np.array(missing).T
        t, w, lam = fem1d.time_quadrature(t0, t1 - t0, quad.order)
        rows.update(zip(missing, _hat_rows(quad, problem.data_residual(t, quad.x), w, lam)))

    if "initial" not in rows:
        y_b = fem1d._coefficient_at(problem.y_b, quad.x)
        rows["initial"] = quad.gather(y_b - fem1d.sample(problem.y_d, 0.0, quad.x))
    Ns = np.array([len(grid) for grid in keys])
    # Interval i of grid s in slot (s, i); the slots after its N stay zero.
    r = np.zeros((len(keys), Ns.max(), 2, space.smesh.d + 1))
    r[np.arange(Ns.max()) < Ns[:, None]] = [rows[key] for grid in keys for key in grid]
    loads = np.zeros((len(keys), Ns.max() + 1, space.smesh.d + 1))
    # Interval i feeds the time hats of its nodes i and i + 1.
    loads[:, :-1] += r[:, :, 0]
    loads[:, 1:] += r[:, :, 1]
    loads[:, 0] += rows["initial"]
    return loads


def assemble(
    problem: "ProblemSpec",
    smesh: SpatialMesh,
    tgrid: TimeGrid,
    quad_order: int = 3,
    *,
    space: fem1d.SpatialOperatorMatrices | None = None,
) -> AssembledSystem:
    """Assemble A = T_M (x) M_I + T_K (x) K_I as factors, and its free-dof load.

    space is the run's spatial operator, built here when not given.  Raises
    ValueError for a spatial mesh without an interior node, for a space that
    does not match smesh, quad_order and problem's a, a0, and for a load
    whose squared norm overflows.  alpha and the time grid need no check:
    ProblemSpec requires alpha > 0 and every TimeGrid has an interval.
    """
    if smesh.d < 2:
        raise ValueError("need at least one interior spatial node")
    if space is None:
        space = fem1d.assemble_spatial_matrices(smesh, problem.a, problem.a0, quad_order=quad_order)
    elif not (np.array_equal(space.smesh.nodes, smesh.nodes) and space.quad.order == quad_order):
        raise ValueError("spatial operator was built on another mesh or at another quad_order")
    return assemble_batch(problem, space, [tgrid])[0]


def assemble_batch(
    problem: "ProblemSpec", space: fem1d.SpatialOperatorMatrices, tgrids: list[TimeGrid], rows: dict | None = None
) -> list[AssembledSystem]:
    """assemble on each of tgrids and one space; rows, if given, is _data_loads' interval dict.

    The grids lie side by side, grid s in row s of each array and padded
    after its last node, so the time bands, the lifted trace, the loads and
    b are each a few array passes over the whole batch.  No pad enters a
    grid's values, so each system is bitwise the one a lone assemble gives.
    Calls on one problem and space that pass one dict sample each interval
    and the initial term once, and the systems are bitwise the same with or
    without it.  The data of the intervals that rows lacks and the lateral
    trace of y_d at the grids' own nodes are each sampled in one call for
    the whole batch.  Raises ValueError as assemble does.
    """
    if space.a is not problem.a or space.a0 is not problem.a0:
        raise ValueError("spatial operator was built from other a, a0 callables than the problem's")

    smesh, n = space.smesh, space.smesh.d - 1
    Ns = np.array([g.N for g in tgrids])
    slots = np.arange(2 * Ns.max() + 1)
    nodes, intervals = slots[: Ns.max() + 1] <= Ns[:, None], slots[: Ns.max()] < Ns[:, None]
    taus, padded = np.concatenate([g.taus for g in tgrids]), np.zeros(nodes.shape)
    padded[nodes] = taus
    # Nodes start at 0 and increase, so the running maximum repeats each last node.
    (md, mo), (kd, ko) = fem1d.assemble_line_matrices(np.maximum.accumulate(padded, axis=1))

    # Lift the known q boundary values through the same two factors: T_M's
    # q block is Mt and T_K's p-row q block Mt_N:.  Pad traces are -0.0, so
    # each pad product (a zero off band times -0.0) adds -0.0, which leaves
    # every value's bits as they are.
    traces = np.full(nodes.shape + (2,), -0.0)
    traces[nodes] = -fem1d.sample(problem.y_d, taus, np.array([smesh.x_left, smesh.x_right]))
    mq = fem1d.tridiag_dot(md.T, mo.T, traces.transpose(1, 0, 2)).transpose(1, 0, 2)
    # The interior rows of M's and K_hat's boundary columns hold one entry each, an end of the off band.
    (_, m_off), (_, k_off) = space.m_band, space.k_band
    b_p = _data_loads(problem, space, tgrids, rows)[:, :-1, 1:-1]
    b_p[..., 0] -= mq[:, :-1, 0] * k_off[0]
    b_p[..., -1] -= mq[:, :-1, 1] * k_off[-1]
    # Each system's b is its N rows of b_p and then its N + 1 rows of b_q, in one row of b.
    b = np.zeros((len(tgrids), len(slots), n))
    b[slots < Ns[:, None]] = b_p[intervals]
    q_rows = (slots >= Ns[:, None]) & (slots <= 2 * Ns[:, None])
    b[..., 0][q_rows] -= mq[..., 0][nodes] * m_off[0]
    b[..., -1][q_rows] -= mq[..., 1][nodes] * m_off[-1]
    # np.sum, not a BLAS dot, whose threads would spin against the next eigh.
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.sum(b * b, axis=(1, 2)))
    if not finite.all():
        worst = np.abs(b[np.argmin(finite)]).max()
        raise ValueError(f"load overflows: |b|^2 is not finite (max |b_i| {worst:.3g})")
    return [
        AssembledSystem(mt=(md[s, : N + 1], mo[s, :N]), kt=(kd[s, : N + 1], ko[s, :N]), alpha=problem.alpha,
                        space=space, b=b[s, : 2 * N + 1].ravel(),
                        dofmap=DofMap(tgrid=tgrid, smesh=smesh, q_boundary=traces[s, : N + 1]))
        for s, (tgrid, N) in enumerate(zip(tgrids, Ns.tolist()))
    ]


class _Batch:
    """The time bands of S systems on one space and alpha, side by side, and the lanes they act on.

    side holds one column per system: the diagonal and upper bands kd, ko of
    T_M's p block Kt_NN + (1/alpha) e0 e0^T, zero after its N rows, and md,
    mo of Mt, identity rows after its N + 1; an off band's slot i couples
    rows i and i + 1.  Lanes, shape (steps, 2S, n), hold system s's N rows
    of p in lane s and its N + 1 rows of q in lane S + s, each zero after its
    last row; apply's p lanes hold garbage there, which nothing reads.
    """

    def __init__(self, systems: list[AssembledSystem]) -> None:
        self.space, alpha = systems[0].space, systems[0].alpha
        if any(s.space is not self.space or s.alpha != alpha for s in systems):
            raise ValueError("a batch needs systems on one space and with one alpha")
        self.Ns, self.n = [s.dofmap.tgrid.N for s in systems], self.space.smesh.d - 1
        self.S = len(systems)
        self.side = np.zeros((4, max(self.Ns) + 1, self.S))  # kd, ko, md, mo
        self.side[2] = 1.0
        for s, N, kd, ko, md, mo in zip(systems, self.Ns, *self.side.transpose(0, 2, 1)):
            kd[0], kd[1:N], ko[: N - 1] = s.kt[0][0] + 1.0 / alpha, s.kt[0][1:N], s.kt[1][: N - 1]
            md[: N + 1], mo[:N] = s.mt

    def lanes(self, xs: list[np.ndarray]) -> np.ndarray:
        """The systems' free-value vectors, one per system in order, put on the lanes."""
        L = np.zeros((len(self.side[0]), 2 * self.S, self.n))
        for s, (N, x) in enumerate(zip(self.Ns, xs)):
            L[:N, s], L[: N + 1, self.S + s] = np.split(x.reshape(-1, self.n), [N])
        return L

    def vector(self, L: np.ndarray) -> list[np.ndarray]:
        """Each system's free-value vector, in DofMap order, taken back off the lanes."""
        return [np.concatenate([L[:N, s], L[: N + 1, self.S + s]]).ravel() for s, N in enumerate(self.Ns)]

    def apply(self, L: np.ndarray) -> np.ndarray:
        """A @ x on the lanes, every system at once: T_M X and T_K X from the side bands, then M_I and K_I."""
        S, (kd, ko, md, mo) = self.S, self.side
        P, Q = L[:, :S], L[:, S:]
        mt_q = fem1d.tridiag_dot(md, mo[:-1], Q)
        tm = np.concatenate([fem1d.tridiag_dot(kd, ko[:-1], P), mt_q], axis=1)
        # P is zero after its N rows, so Mt P is Mt_:N p.
        tk = np.concatenate([mt_q, -fem1d.tridiag_dot(md, mo[:-1], P)], axis=1)
        # Sum each first p row in column order, e0 first, like every other row, so that
        # each row rounds as a row-by-row sparse product of T_M and T_K would.
        tk[0, :S] = P[0] + md[0, :, None] * Q[0] + mo[0, :, None] * Q[1]
        m_i, k_i = self.space.inner_bands
        return (fem1d.tridiag_dot(*m_i, tm.T) + fem1d.tridiag_dot(*k_i, tk.T)).T

    def factor(self) -> Callable[[np.ndarray], np.ndarray]:
        """Fast-diagonalization factors of the batch's operator, as a solve for A x = r on the lanes.

        See the module docstring for the per-mode reduction.  Lane (s, k)
        holds system s's mode-k matrix and lane (S + s, k) its time mass, for
        the q rows' column k; masking the p lanes to N rows cuts Mt to Mt_NN,
        and identity rows pad every lane after its last row.  Raises
        LinAlgError on a matrix that is not positive definite.
        """
        (lam, V), n, (_, steps, S) = self.space.modes, self.n, self.side.shape
        kd, ko, md, mo = (band[:, :, None] for band in self.side)
        keep, lam2 = (np.arange(steps)[:, None] < self.Ns)[:, :, None], lam * lam
        diag = np.concatenate([np.where(keep, kd + lam2 * md, 1.0), np.broadcast_to(md, (steps, S, n))], axis=1)
        diag[0, :S] += lam
        off = np.concatenate([np.where(keep[1:], ko[:-1] + lam2 * mo[:-1], 0.0),
                              np.broadcast_to(mo[:-1], (steps - 1, S, n))], axis=1)
        d, l = fem1d.tridiag_factor(diag, off)

        def solve(R: np.ndarray) -> np.ndarray:
            # The eigenbasis transforms go system by system: one product over all
            # lanes makes BLAS pick other kernels, which round differently.
            x = np.zeros((steps, 2 * S, n))
            for s, N in enumerate(self.Ns):
                r_q = R[: N + 1, S + s] @ V
                x[: N + 1, S + s], x[:N, s] = r_q, R[:N, s] @ V - lam * r_q[:N]
            fem1d.tridiag_solve(d, l, x)
            # The p lanes are zero after their N rows, so this adds lam [p; 0] to q.
            x[:, S:] += lam * x[:, :S]
            out = np.zeros_like(x)
            for s, N in enumerate(self.Ns):
                np.matmul(x[:N, s], V.T, out=out[:N, s])
                np.matmul(x[: N + 1, S + s], V.T, out=out[: N + 1, S + s])
            return out

        return solve


def solve_batch(systems: list[AssembledSystem]) -> list[EllipticSolution]:
    """Solve systems that share one space and one alpha as one block-diagonal system.

    The loads go on _Batch's lanes once, where every mode of every system,
    and every system's time mass, is one lane of one tridiagonal LDL^T
    factorization; one solve and one apply serve the whole batch, and one
    refinement step runs only on the lanes of the systems whose residual
    misses solve_sparse's contract.  Since each lane's arithmetic is
    elementwise, each solution is bitwise the one its system gets alone.
    Each system must meet the contract on its own vector, or
    EllipticSolverError is raised.  Systems on another space or with another
    alpha raise ValueError.
    """
    batch = _Batch(systems)
    try:
        solve = batch.factor()
    except np.linalg.LinAlgError as exc:
        raise EllipticSolverError(f"tensor factorization failed: {exc}") from exc
    b = batch.lanes([system.b for system in systems])
    scale = np.array([float(np.linalg.norm(system.b)) or 1.0 for system in systems])
    contracts = np.array([1e-10 if np.any(system.b) else 1e-12 for system in systems])

    def residuals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = b - batch.apply(x)
        return r, np.array([np.linalg.norm(r_s) for r_s in batch.vector(r)]) / scale

    x = solve(b)
    r, relative = residuals(x)
    passed = relative <= contracts
    if not passed.all():
        # Refine only the misses: the passed systems' residual lanes solve to exactly zero.
        r[:, np.tile(passed, 2)] = 0.0
        x += solve(r)
        relative = residuals(x)[1]

    for residual, contract in zip(relative.tolist(), contracts):
        if not residual <= contract:
            raise EllipticSolverError(
                f"linear solve achieved residual {residual:.3e}, contract is {contract:g}"
            )
    return [EllipticSolution(system.dofmap, x_s, residual)
            for system, x_s, residual in zip(systems, batch.vector(x), relative.tolist())]


def solve_sparse(system: AssembledSystem) -> EllipticSolution:
    """Direct tensor-product solve, refined once only if it misses the contract: solve_batch of one.

    The contract is a relative residual of at most 1e-10 (absolute 1e-12
    for a zero load) on the system's own vector, from the matrix-free product
    on the batch's lanes (see _Batch.apply); anything worse, or a residual
    that is not a number, raises EllipticSolverError instead of an
    inaccurate solution.
    """
    return solve_batch([system])[0]
