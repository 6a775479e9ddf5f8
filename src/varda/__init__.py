"""Variational data assimilation for 1-D parabolic equations.

The optimal initial state of a 4D-var problem is recovered by solving one
space-time boundary value problem for the adjoint state instead of
iterating forward and backward sweeps.  Residual-based indicators on the
time grid drive adaptive bisection of the assimilation window.

The package root exports the two pipelines and their inputs; everything
else lives in the submodules (mesh, fem1d, elliptic, forward, assimilation,
adaptivity, problems, cli).
"""

from .adaptivity import AdaptConfig, adapt_loop
from .assimilation import ProblemSpec, assimilate

__version__ = "0.1.0"

__all__ = ["AdaptConfig", "ProblemSpec", "adapt_loop", "assimilate", "__version__"]
