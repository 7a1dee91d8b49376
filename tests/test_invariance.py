"""The solver commutes with the problem's scale relations.

s*P(lambda) has the eigenpairs of P, and P(t*mu) those of P with every
eigenvalue divided by t. So for each problem below, every multiple s*P
(under the default config, with scaling off, and with scaling and
balancing off) and every lambda-scaling (default config) must give the
class counts of P under the default config, with every backward error at
roundoff and no flag. The problems are the generators of ``problems.py``
and random quartics whose A, E or both are zero, the cases where the
parameter scaling's gamma comes from inner coefficients.
"""

import functools

import numpy as np
import pytest

from oracles import rand_complex
from problems import gen_jordan_chain, gen_mirror_like, gen_planted, grade_rows
from quarteig import QuarticPencil, SolveConfig, solve_pencil


def _random(seed, n=6, zero=()):
    """Five random complex n x n coefficients, those named in ``zero``
    (letters of "abcde") set to 0."""
    rng = np.random.default_rng(seed)
    mats = [rand_complex(rng, (n, n)) for _ in range(5)]
    return QuarticPencil.from_matrices(*(0 * m if k in zero else m for k, m in zip("abcde", mats)))


PROBLEMS = {
    "planted": lambda: gen_planted(6, 1, 1, seed=7).pencil,
    "planted_8": lambda: gen_planted(8, 2, 3, seed=1).pencil,
    "only_a_singular": lambda: gen_planted(6, 0, 2, seed=21).pencil,
    "only_e_singular": lambda: gen_planted(6, 2, 0, seed=5).pencil,
    "jordan_zero": lambda: gen_jordan_chain(6, 3, "zero", seed=1).pencil,
    "jordan_infinity": lambda: gen_jordan_chain(6, 2, "infinity", seed=2).pencil,
    "mirror_like": lambda: gen_mirror_like(1).pencil,
    "mirror_like_12": lambda: gen_mirror_like(3, n=12).pencil,
    "graded_planted": lambda: grade_rows(gen_planted(6, 1, 1, seed=3)).pencil,
    "random": lambda: _random(0),
    "e_zero": lambda: _random(0, zero="e"),
    "a_zero": lambda: _random(1, zero="a"),
    "a_e_zero": lambda: _random(2, zero="ae"),
    "d_e_zero": lambda: _random(3, zero="de"),
    "a_b_zero": lambda: _random(4, zero="ab"),
    "only_c": lambda: _random(5, zero="abde"),
}

CONFIGS = {
    "default": SolveConfig(),
    "scale_off": SolveConfig(scale=False),
    "scale_balance_off": SolveConfig(scale=False, balance=False),
}

MULTIPLES = [2.0**-40, 2.0**40, 1e-16, 1e16, 1e-300, 1e300]

CASES = [pytest.param(p, "times", s, c, id=f"{p}-times_{s:.0e}-{c}")
         for p in PROBLEMS for s in MULTIPLES for c in CONFIGS]
CASES += [pytest.param(p, "lambda", t, "default", id=f"{p}-lambda_{t:.0e}-default")
          for p in PROBLEMS for t in (2.0**-20, 2.0**20)]


@functools.cache
def _pencil(problem):
    return PROBLEMS[problem]()


@functools.cache
def _counts(problem):
    return solve_pencil(_pencil(problem)).summary.counts


@pytest.mark.parametrize("problem, relation, factor, config", CASES)
def test_scale_relations_keep_classes(problem, relation, factor, config):
    q = _pencil(problem)
    if relation == "times":
        mats = [factor * m for m in q.coeffs]
    else:  # P(t mu): A_k times t^k, exact for a power of two t
        mats = [factor ** (4 - i) * m for i, m in enumerate(q.coeffs)]
    res = solve_pencil(QuarticPencil.from_matrices(*mats), CONFIGS[config])
    assert res.summary.counts == _counts(problem)
    assert not res.flags
    sol = res.solution
    for eta in (sol.eta_right, sol.eta_left):
        assert np.all(eta <= 1e-14), float(np.max(eta))


def test_mirror_like_tiny_unscaled_counts():
    # unscaled, 1e-16 times this quartic once gave 36 zero, 0 finite and 12
    # infinite pairs with every backward error at roundoff: no flag told it
    q = gen_mirror_like(3, n=12).pencil
    res = solve_pencil(QuarticPencil.from_matrices(*(1e-16 * m for m in q.coeffs)),
                       SolveConfig(scale=False))
    assert res.summary.counts == {"zero": 12, "finite": 24, "infinite": 12}
