"""Vector handling of the solve pipeline: unit norms, no left vectors in a
right-only solve, one batched lift per solve, and per-pair flags instead of
exceptions."""

import numpy as np
import pytest
import scipy.linalg
from oracles import random_regular_quartic

import quarteig.eigvec
from quarteig import SolveConfig, gen_jordan_chain, gen_mirror_like, gen_planted, solve_pencil
from quarteig.pencil import from_lambda

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
    rights = [v for v in sol.right if v is not None]
    lefts = [v for v in sol.left if v is not None]
    assert len(rights) == len(sol.eigs)
    if CONFIGS[config].want_left:
        assert lefts
    else:  # no pair, deflated or not, gets a left vector
        assert not lefts
    for v in rights + lefts:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", ["planted", "mirror"])
def test_one_lift_and_no_triangular_solve_per_eigenvalue(kind, monkeypatch):
    calls = {"lift_left": 0, "solve_triangular": 0, "qz": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(quarteig.eigvec, "lift_left",
                        counted("lift_left", quarteig.eigvec.lift_left))
    monkeypatch.setattr(scipy.linalg, "solve_triangular",
                        counted("solve_triangular", scipy.linalg.solve_triangular))
    monkeypatch.setattr(scipy.linalg, "qz", counted("qz", scipy.linalg.qz))
    res = solve_pencil(PROBLEMS[kind]())
    d = res.deflation
    assert d.size < d.full_size
    blocks = sum(1 for s in d.steps if s.deflated)
    finite = sum(e.cls == "finite" for e in res.solution.eigs)
    # one lift; the only QZ besides the 4n eigensolver is the recovery context's
    assert calls["lift_left"] == 1 and calls["qz"] == 1
    assert 1 <= calls["solve_triangular"] <= blocks < finite
    # the lift's triangular solves do not grow with the eigenvalue count
    rng = np.random.default_rng(53)
    for k in (1, finite):
        calls["solve_triangular"] = 0
        eigs = [from_lambda(complex(*rng.standard_normal(2))) for _ in range(k)]
        ws = rng.standard_normal((d.size, k)) + 1j * rng.standard_normal((d.size, k))
        _, ok = quarteig.eigvec.lift_left(ws, eigs, d)
        assert ok.all()
        assert calls["solve_triangular"] == blocks


def test_degenerate_left_vector_is_flagged(monkeypatch):
    lift = quarteig.eigvec.lift_left

    def zero_first_column(ws, eigs, d):
        w, ok = lift(ws, eigs, d)
        w[:, 0] = 0.0
        return w, ok

    monkeypatch.setattr(quarteig.eigvec, "lift_left", zero_first_column)
    res = solve_pencil(PROBLEMS["planted"]())
    bad = [f for f in res.flags if f.startswith("recover_left_degenerate_index_")]
    assert len(bad) == 1
    i = int(bad[0].rsplit("_", 1)[1])
    assert res.solution.eigs[i].cls == "finite"
    assert res.solution.left[i] is None and res.solution.diags[i].eta_left is None
    assert res.solution.right[i] is not None
    assert sum(v is None for v in res.solution.left) == 1
