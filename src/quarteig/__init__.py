"""quarteig: complete solution of the quartic eigenvalue problem.

Scales and balances the coefficients, deflates zero and infinite eigenvalues
through the structure of a quadratification-based linearization before the
generalized Schur backend runs, recovers left and right eigenvectors, and
reports per-eigenpair backward errors.

The package root holds what a caller of the solver needs. The stages of the
pipeline are imported from their own modules: ``quarteig.scaling``,
``quarteig.pencil``, ``quarteig.deflate``, ``quarteig.gevp`` and
``quarteig.diagnostics``.
"""

# the one version string; set before the submodules import it
__version__ = "0.1.0"

from .pencil import EigenSolution, QuarticPencil
from .probio import ProblemBundle, read_bundle, write_bundle, write_report
from .solver import SolveConfig, SolveResult, build_report, solve_bundle, solve_pencil

__all__ = [
    "EigenSolution",
    "ProblemBundle",
    "QuarticPencil",
    "SolveConfig",
    "SolveResult",
    "build_report",
    "read_bundle",
    "solve_bundle",
    "solve_pencil",
    "write_bundle",
    "write_report",
]
