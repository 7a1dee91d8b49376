import quarteig

# The public surface of the package root. Growing or shrinking it is an API
# change, so it is meant to show up here as a diff.
PUBLIC = [
    "DeflationResult",
    "EigenSolution",
    "GevpSolution",
    "LinearPencil",
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


def test_all_is_pinned():
    assert quarteig.__all__ == PUBLIC


def test_every_name_imports():
    # a star import raises AttributeError for a listed name that is missing
    namespace = {}
    exec("from quarteig import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
