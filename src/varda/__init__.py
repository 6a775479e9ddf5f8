"""Variational data assimilation for 1-D parabolic equations.

The optimal initial state of a 4D-var problem is recovered by solving one
space-time boundary value problem for the adjoint state instead of
iterating forward and backward sweeps.  Residual-based indicators on the
time grid drive adaptive bisection of the assimilation window.
"""

from .adaptivity import (
    AdaptConfig,
    AdaptHistory,
    ErrorIndicators,
    adapt_loop,
    compute_indicators,
    mark,
)
from .assimilation import (
    AssimilationResult,
    ProblemSpec,
    assimilate,
    mse_initial,
    project_box,
    rmse,
)
from .elliptic import (
    AssembledSystem,
    DofMap,
    EllipticSolution,
    EllipticSolverError,
    assemble,
    residual_check,
    solve_sparse,
)
from .fem1d import (
    ElementMatrices,
    SpatialOperatorMatrices,
    assemble_spatial_matrices,
    element_matrices,
    gauss_rule,
)
from .forward import (
    ThetaSchemeConfig,
    kkt_oracle,
    optimality_residual,
    solve_adjoint_classic,
    solve_state,
)
from .mesh import (
    SpaceTimeField,
    SpatialMesh,
    TimeGrid,
    bisect_intervals,
    build_spatial_mesh,
    build_time_grid,
    build_uniform_time_grid,
    read_time_grid,
)
from .problems import (
    consistent_problem,
    example1,
    example2,
    example2_data,
    example2_inflow,
    example3,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptHistory",
    "AssembledSystem",
    "AssimilationResult",
    "DofMap",
    "ElementMatrices",
    "EllipticSolution",
    "EllipticSolverError",
    "ErrorIndicators",
    "ProblemSpec",
    "SpaceTimeField",
    "SpatialMesh",
    "SpatialOperatorMatrices",
    "ThetaSchemeConfig",
    "TimeGrid",
    "adapt_loop",
    "assemble",
    "assemble_spatial_matrices",
    "assimilate",
    "bisect_intervals",
    "build_spatial_mesh",
    "build_time_grid",
    "build_uniform_time_grid",
    "compute_indicators",
    "consistent_problem",
    "element_matrices",
    "example1",
    "example2",
    "example2_data",
    "example2_inflow",
    "example3",
    "gauss_rule",
    "kkt_oracle",
    "mark",
    "mse_initial",
    "optimality_residual",
    "project_box",
    "read_time_grid",
    "residual_check",
    "rmse",
    "solve_adjoint_classic",
    "solve_sparse",
    "solve_state",
    "__version__",
]
