"""Class counts of small integer quartics against exact arithmetic.

The corpus follows one recipe (ROADMAP item 29): for a seed, ``rng =
np.random.default_rng(seed)``; then per trial n = ``rng.integers(1, 5)``,
p = ``rng.uniform(0.3, 0.9)`` and five matrices, A first,
``np.where(rng.random((n, n)) < p, 0, rng.integers(-2, 3, (n, n)))``. Such
sparse quartics are full of exact zeros, chains at 0 and at infinity, and
singular coefficients, with their exact counts known from
:func:`oracles.exact_counts`.

The test takes the regular quartics among seed 1's trials 0-129 and
pinned trials with long chains at 0 or infinity, and asks each config for
the exact counts. A singular quartic (det P identically zero)
is left out, since it has no 4n eigenvalues to count; its typed outcome
is ROADMAP item 5's.
"""

import functools

import numpy as np
import pytest

from quarteig import QuarticPencil, SolveConfig, solve_pencil
from oracles import exact_counts

CONFIGS = {"default": SolveConfig(), "unscaled": SolveConfig(scale=False, balance=False)}
CORPUS_SEED, CORPUS_TRIALS = 1, 130

# (seed, trial): why it is pinned
PINNED = {
    (1, 144): "A = B = C = 0, D = [[0, -1], [0, 0]], E = 2I: 8 infinities, the last "
              "of which a relative rank rule leaves as a 1x1 block",
    (0, 150): "det P = -2 lambda^2; wrong unscaled before the staircase floor",
    (0, 166): "4 zeros, 1 finite, 3 infinities",
    (2, 78): "2 zeros, 10 infinities; wrong in both configs before the floor",
    (2, 154): "6 zeros, 10 infinities; wrong in both configs before the floor",
    (2, 207): "7 zeros, 5 finite, 4 infinities",
    (2, 263): "det P = -2 lambda^2 (lambda - 1)",
    (2, 297): "det P = 4 lambda^3: 9 infinities",
}
# the staircase floor is fixed; these need one that grows with the layers
GROWING_FLOOR = {((2, 207), "default"), ((2, 263), "default")}


@functools.cache
def recipe(seed):
    """The 300 trials of a seed, as lists of five integer matrices."""
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(300):
        n = int(rng.integers(1, 5))
        p = rng.uniform(0.3, 0.9)
        trials.append([np.where(rng.random((n, n)) < p, 0, rng.integers(-2, 3, (n, n)))
                       for _ in range(5)])
    return trials


def quartic(key):
    seed, trial = key
    return QuarticPencil.from_matrices(*recipe(seed)[trial])


@functools.cache
def exact(key):
    return exact_counts(quartic(key))


CORPUS = [(CORPUS_SEED, t) for t in range(CORPUS_TRIALS) if exact((CORPUS_SEED, t))]


def cases():
    for key in [*CORPUS, *sorted(PINNED)]:
        for name in CONFIGS:
            marks = ()
            if (key, name) in GROWING_FLOOR:
                marks = pytest.mark.xfail(strict=True, reason=(
                    "the roundoff of the fourth staircase layer tops the fixed floor "
                    "(ROADMAP item 30)"))
            yield pytest.param(key, name, id=f"s{key[0]}_t{key[1]}-{name}", marks=marks)


def test_corpus_covers_both_ends():
    # quartics with only A singular (infinities, no zeros) take the
    # infinite blocks alone
    counts = [exact(key) for key in CORPUS]
    assert len(CORPUS) >= 100
    assert sum(c["infinite"] > 0 and c["zero"] == 0 for c in counts) >= 15
    assert sum(c["zero"] > 0 and c["infinite"] > 0 for c in counts) >= 15
    assert exact((1, 144)) == {"zero": 0, "finite": 0, "infinite": 8}


@pytest.mark.parametrize("key, config", cases())
def test_regular_quartic_gets_its_exact_counts(key, config):
    want = exact(key)
    assert want is not None
    res = solve_pencil(quartic(key), CONFIGS[config])
    assert res.summary.counts == want, res.flags
