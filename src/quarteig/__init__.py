"""quarteig: complete solution of the quartic eigenvalue problem.

Scales and balances the coefficients, deflates zero and infinite eigenvalues
through the structure of a quadratification-based linearization before the
generalized Schur backend runs, recovers left and right eigenvectors, and
reports per-eigenpair backward errors.
"""

from .deflate import (
    DeflationResult,
    RankProfile,
    SecondLevel,
    analyze_ranks,
    deflate,
    second_level,
)
from .diagnostics import PairDiagnostics, SummaryReport, summarize
from .gevp import GevpSolution, solve_gevp
from .pencil import (
    EigenSolution,
    HomogeneousEig,
    LinearPencil,
    QuarticPencil,
    linearize,
    reverse,
)
from .probio import (
    ProblemBundle,
    gen_jordan_chain,
    gen_mirror_like,
    gen_planted,
    grade_rows,
    read_bundle,
    write_bundle,
    write_report,
)
from .scaling import ScalingRecord, balance, descale, param_scale
from .solver import SolveConfig, SolveResult, build_report, solve_bundle, solve_pencil

__version__ = "0.1.0"

__all__ = [
    "DeflationResult",
    "EigenSolution",
    "GevpSolution",
    "HomogeneousEig",
    "LinearPencil",
    "PairDiagnostics",
    "ProblemBundle",
    "QuarticPencil",
    "RankProfile",
    "ScalingRecord",
    "SecondLevel",
    "SolveConfig",
    "SolveResult",
    "SummaryReport",
    "analyze_ranks",
    "balance",
    "build_report",
    "deflate",
    "descale",
    "gen_jordan_chain",
    "gen_mirror_like",
    "gen_planted",
    "grade_rows",
    "linearize",
    "param_scale",
    "read_bundle",
    "reverse",
    "second_level",
    "solve_bundle",
    "solve_gevp",
    "solve_pencil",
    "summarize",
    "write_bundle",
    "write_report",
]
