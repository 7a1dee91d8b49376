"""Vector handling of the solve pipeline: unit norms, no left vectors in a
right-only solve, one batched lift per solve, and per-pair flags instead of
exceptions."""

import numpy as np
import pytest
from oracles import random_regular_quartic

import quarteig.eigvec
import quarteig.numkit
from quarteig import SolveConfig, solve_pencil
from quarteig.pencil import EIG_FINITE
from problems import gen_jordan_chain, gen_mirror_like, gen_planted
from support import from_lambda

PROBLEMS = {
    "planted": lambda: gen_planted(8, 3, 2, seed=50).pencil,
    "mirror": lambda: gen_mirror_like(2).pencil,
    "jordan": lambda: gen_jordan_chain(5, 3, "zero", seed=51).pencil,
    "regular": lambda: random_regular_quartic(np.random.default_rng(52), 6),
}
CONFIGS = {
    "default": SolveConfig(),
    "right_only": SolveConfig(want_left=False),
    "deflate_off": SolveConfig(deflate=False),
    "no_scaling": SolveConfig(scale=False, balance=False),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_returned_vectors_are_unit(kind, config):
    res = solve_pencil(PROBLEMS[kind](), CONFIGS[config])
    sol = res.solution
    assert sol.has_right.all()
    if CONFIGS[config].want_left:
        assert sol.has_left.any()
    else:  # no pair, deflated or not, gets a left vector
        assert not sol.has_left.any()
    vectors = np.hstack([sol.x[:, sol.has_right], sol.y[:, sol.has_left]])
    assert np.all(np.abs(np.linalg.norm(vectors, axis=0) - 1.0) <= 1e-14)
    assert not sol.y[:, ~sol.has_left].any()
    # the per-pair views read the same arrays
    assert [v is not None for v in sol.left] == sol.has_left.tolist()
    assert all(np.array_equal(v, x) for v, x in zip(sol.right, sol.x.T))


# the recovery labels of each pair: a finite pair's winning candidate (z1 or
# the E solve, which needs E of full rank, so never on planted or mirror-like
# problems), the class of an undeflated zero or infinite pair, or the
# deflated null space
METHODS = {
    "default": {"planted": {"deflated_nullspace", "z1"},
                "mirror": {"deflated_nullspace", "z1"},
                "regular": {"z1", "z4_esolve"}},
    "deflate_off": {"planted": {"inf_class_z1", "z1", "zero_class_z1"},
                    "mirror": {"inf_class_z1", "z1", "zero_class_z1"},
                    "regular": {"z1", "z4_esolve"}},
    "right_only": {"planted": {"deflated_nullspace", "z1"},
                   "mirror": {"deflated_nullspace", "z1"},
                   "regular": {"z1", "z4_esolve"}},
    "least_squares": {"planted": {"deflated_nullspace", "least_squares"},
                      "mirror": {"deflated_nullspace", "least_squares"},
                      "regular": {"least_squares"}},
}


@pytest.mark.parametrize("config", sorted(METHODS))
def test_recovery_methods_are_pinned(config):
    cfg = CONFIGS.get(config) or SolveConfig(eigvec_mode=config)
    for kind, expected in METHODS[config].items():
        methods = solve_pencil(PROBLEMS[kind](), cfg).solution.methods
        assert set(methods.tolist()) == expected, kind


@pytest.mark.parametrize("kind", ["planted", "mirror"])
def test_one_lift_and_no_triangular_solve_per_eigenvalue(kind, monkeypatch):
    table = quarteig.numkit.lapack()
    if table is None:
        pytest.skip("no loaded OpenBLAS exports LAPACKE")
    calls = {"lift_left": 0, "solve_triangular": 0, "qz": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(quarteig.eigvec, "lift_left",
                        counted("lift_left", quarteig.eigvec.lift_left))
    # every QZ and triangular solve runs in the LAPACKE table
    monkeypatch.setattr(table, "ztrtrs", counted("solve_triangular", table.ztrtrs))
    monkeypatch.setattr(table, "zggev3", counted("qz", table.zggev3))
    res = solve_pencil(PROBLEMS[kind]())
    d = res.deflation
    assert d.size < d.full_size
    blocks = sum(1 for s in d.steps if s.deflated)
    finite = int(np.sum(res.solution.cls == EIG_FINITE))
    # one lift; the eigensolve of the deflated pencil is the only QZ
    assert calls["lift_left"] == 1 and calls["qz"] == 1
    assert 1 <= calls["solve_triangular"] <= blocks < finite
    # the lift's triangular solves do not grow with the eigenvalue count
    rng = np.random.default_rng(53)
    for k in (1, finite):
        calls["solve_triangular"] = 0
        e = from_lambda(rng.standard_normal(k) + 1j * rng.standard_normal(k))
        ws = rng.standard_normal((d.size, k)) + 1j * rng.standard_normal((d.size, k))
        _, ok = quarteig.eigvec.lift_left(ws, e.alpha, e.beta, d)
        assert ok.all()
        assert calls["solve_triangular"] == blocks


def test_degenerate_left_vector_is_flagged(monkeypatch):
    lift = quarteig.eigvec.lift_left

    def zero_first_column(ws, alpha, beta, d):
        w, ok = lift(ws, alpha, beta, d)
        w[:, 0] = 0.0
        return w, ok

    monkeypatch.setattr(quarteig.eigvec, "lift_left", zero_first_column)
    res = solve_pencil(PROBLEMS["planted"]())
    bad = [f for f in res.flags if f.startswith("recover_left_degenerate_index_")]
    assert len(bad) == 1
    i = int(bad[0].rsplit("_", 1)[1])
    sol = res.solution
    assert sol.cls[i] == EIG_FINITE
    assert not sol.has_left[i] and np.isnan(sol.eta_left[i])
    assert sol.has_right[i] and np.isfinite(sol.eta_right[i])
    assert np.sum(~sol.has_left) == 1
