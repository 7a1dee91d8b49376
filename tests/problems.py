"""Synthetic quartic problems with known deflation structure, for the tests.

Each generator is deterministic per seed and returns a
:class:`quarteig.ProblemBundle` with a planted structure: exactly-zero
columns in E and A (:func:`gen_planted`), a Kronecker chain of a given
length at zero or infinity (:func:`gen_jordan_chain`), the mirror
benchmark's two-level deflation structure (:func:`gen_mirror_like`), and a
row-graded equivalent of a problem (:func:`grade_rows`). The tests check
each structure against the dense oracle of ``oracles.py``. The package
itself draws no random numbers; these live next to ``oracles.py`` and
``support.py`` so the solver ships without them.
"""

from __future__ import annotations

import numpy as np

from quarteig import ProblemBundle, QuarticPencil


def _haar(rng, rows, cols):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))[None, :]


def _random_dense(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)


def _with_zero_columns(rng, n, k, cond=10.0):
    """Random n x n matrix with k exactly-zero columns; the rest has the
    prescribed condition number as a set."""
    if k >= n:
        return np.zeros((n, n), dtype=np.complex128), np.arange(n)
    u = _haar(rng, n, n - k)
    v = _haar(rng, n - k, n - k)
    s = np.logspace(0.0, -np.log10(cond), n - k)
    sub = u @ (s[:, None] * v.conj().T)
    cols = np.sort(rng.choice(n, size=k, replace=False)) if k else np.empty(0, dtype=int)
    m = np.zeros((n, n), dtype=np.complex128)
    keep = np.setdiff1d(np.arange(n), cols)
    m[:, keep] = sub
    return m, cols


def gen_planted(n, zero_cols_e, zero_cols_a, seed) -> ProblemBundle:
    """Random quartic with exactly-zero columns planted in E and A.

    Deterministic per seed. Each zero column of E plants at least one zero
    eigenvalue, each zero column of A at least one infinite one.
    """
    if zero_cols_e > n or zero_cols_a > n:
        raise ValueError("cannot plant more zero columns than the dimension")
    rng = np.random.default_rng(seed)
    a, _ = _with_zero_columns(rng, n, zero_cols_a)
    e, _ = _with_zero_columns(rng, n, zero_cols_e)
    b = _random_dense(rng, n)
    c = _random_dense(rng, n)
    d = _random_dense(rng, n)
    return ProblemBundle(
        name=f"planted_n{n}_e{zero_cols_e}_a{zero_cols_a}_s{seed}",
        pencil=QuarticPencil.from_matrices(a, b, c, d, e),
    )


def gen_jordan_chain(n, chain_len, at, seed, complement=True) -> ProblemBundle:
    """Quartic with a planted chain of the given length at 0 or infinity.

    The designated coordinate carries the scalar monomial lambda^k (k =
    chain_len for a chain at zero, 4 - chain_len for a chain at infinity),
    which plants a single Kronecker block of that length at the requested
    end (and the complementary block at the other end). With ``complement``
    False the coordinate carries lambda^k plus the monomial of the other
    end (1 or lambda^4), which leaves only the requested chain and the
    other end's coefficient regular. The remaining coordinates are random
    regular scalar quartics; the whole problem is rotated by random
    unitaries.
    """
    if at not in ("zero", "infinity"):
        raise ValueError(f"chain location must be 'zero' or 'infinity', got {at!r}")
    if not 0 <= chain_len <= 4:
        raise ValueError("chain length must be between 0 and 4")
    rng = np.random.default_rng(seed)
    k = chain_len if at == "zero" else 4 - chain_len
    diags = np.zeros((5, n), dtype=np.complex128)  # rows: coeff of lambda^4..^0
    diags[4 - k, 0] = 1.0
    if not complement:
        diags[4 if at == "infinity" else 0, 0] += 1.0
    for j in range(1, n):
        mags = 0.5 + rng.random(5)
        phases = np.exp(2j * np.pi * rng.random(5))
        diags[:, j] = mags * phases
    u = _haar(rng, n, n)
    v = _haar(rng, n, n)
    mats = [u @ (diags[i][:, None] * v.conj().T) for i in range(5)]
    return ProblemBundle(
        name=f"jordan_{at}{chain_len}_n{n}_s{seed}",
        pencil=QuarticPencil.from_matrices(*mats),
    )


def gen_mirror_like(seed=0, n=9, rank=2, second_level_zeros=2) -> ProblemBundle:
    """Synthetic with the mirror benchmark's deflation structure.

    A and E each have n - rank exactly-zero columns; on the first
    ``second_level_zeros`` of those columns the partner coefficient (B for A,
    D for E) is zeroed as well, which makes the same number of columns of the
    second-level matrices exactly zero. With the default parameters the
    pre-QZ phase must find 9 zero and 9 infinite eigenvalues.
    """
    rng = np.random.default_rng([seed, 0])
    nz = n - rank

    def coeff_pair(rng):
        m, cols = _with_zero_columns(rng, n, nz, cond=5.0)
        partner = _random_dense(rng, n)
        for j in cols[:second_level_zeros]:
            partner[:, j] = 0.0
        return m, partner

    a, b = coeff_pair(rng)
    e, d = coeff_pair(rng)
    c = _random_dense(rng, n)
    return ProblemBundle(
        name=f"mirror_like_s{seed}",
        pencil=QuarticPencil.from_matrices(a, b, c, d, e),
    )


def grade_rows(bundle: ProblemBundle, seed=0) -> ProblemBundle:
    """Premultiply all coefficients by diag(2^sigma(i)), i = 1..n.

    Produces the graded variant used to exercise balancing: an equivalent
    problem whose rows span n powers of two.
    """
    q = bundle.pencil
    rng = np.random.default_rng(seed)
    expo = rng.permutation(np.arange(1, q.n + 1)).astype(float)
    d = 2.0**expo
    mats = [d[:, None] * m for m in q.coeffs]
    return ProblemBundle(
        name=bundle.name + "_graded",
        pencil=QuarticPencil.from_matrices(*mats),
    )
