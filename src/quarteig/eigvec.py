"""Eigenvector recovery and nullspace bases.

A right eigenvector z of the linearization partitions into four n-blocks
related to the quartic eigenvector x by

    z = (lambda x, lambda^2 (lambda A + B) x, lambda (lambda A + B) x, -E x),

so the x of a finite nonzero eigenvalue is recovered from z1, or from
E^{-1} z4 through the rank-revealing QR of E that rank analysis made,
offered only when that QR finds E of full rank; of the candidates that
exist the one with the smaller residual wins. QZ computes right vectors
only. The left vector y of such a pair comes from the quartic itself: one
step of inverse iteration, P(alpha, beta)* y = x, started from the pair's
right vector (Peters and Wilkinson, SIAM Review 21 (1979)), and where that
cannot run, the left singular vectors of P(alpha, beta) for its smallest
singular values.

The eigenvectors of lambda = 0 (infinity) are the null vectors of E (A),
P's value there. Every zero and infinite pair, found by QZ or removed by
deflation, takes both its vectors from the rank-revealing QR of that
coefficient (:func:`nullspace_vectors`).
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import diagnostics
from .deflate import RankProfile
from .numkit import (
    EPS,
    complete_orthogonal,
    safe_norm,
    solve_triangular,
    unit_columns,
)
from .pencil import QuarticPencil, affine

# the deleted shifted solves, left-vector lift, recovery context and z1 zero
# recovery, still looked up by bench/tracer.py (ROADMAP item 1)
tri_hess_reduce = shifted_hess_solve = shifted_hess_solve_many = lift_left = None
build_context = recover_right_zero = None

# eigenvalues per stack of n x n matrices in recover_left, which bounds its memory
LEFT_CHUNK = 32


def recover_right_many(zs, alpha, beta, rp: RankProfile):
    """Smallest-residual recovery of right eigenvectors of the quartic ``rp.q``.

    ``zs`` holds one lifted 4n-vector per column; ``alpha`` and ``beta`` the
    matching finite nonzero eigenvalues in homogeneous form. The candidates
    are z1 and, when the rank-revealing QR of E in ``rp`` finds full rank,
    the E solve E^-1 (-z4); each is normalized and the one with the smaller
    residual ||P(lambda) x|| wins, which is the smaller backward error, since
    both candidates of an eigenvalue share its denominator. The solve and the
    residual evaluations are vectorized across the batch. Returns a list of
    ``(x, method, residual)`` with unit-norm x, the winner's name (``z1``
    or ``z4_esolve``) and its residual norm; a column where no candidate is
    nonzero and finite comes back as ``(None, 'degenerate', inf)``.
    """
    q, n = rp.q, rp.n
    zs = np.asarray(zs, dtype=np.complex128)
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.float64)
    nj = zs.shape[1]
    if nj == 0:
        return []
    if zs.shape[0] != 4 * n or alpha.shape != (nj,) or beta.shape != (nj,):
        raise ValueError("batch shapes are inconsistent")
    if np.any(alpha == 0.0) or np.any(beta == 0.0):
        raise ValueError("recover_right_many requires finite nonzero eigenvalues")
    f = rp.qr_e if rp.r_e == n else None
    names = ("z1",) if f is None else ("z1", "z4_esolve")
    cands = np.empty((len(names), n, nj), dtype=np.complex128)
    cands[0] = zs[:n, :]
    if f is not None:
        # E Pi = Q R, so E^-1 (-z4) = Pi R^-1 Q* (-z4)
        cands[1][f.perm] = solve_triangular(f.r, f.q.conj().T @ -zs[3 * n :, :])
    norms_c = safe_norm(cands, axis=1)
    valid = np.isfinite(norms_c) & (norms_c > 0.0)
    np.divide(cands, norms_c[:, None, :], out=cands, where=valid[:, None, :])
    w = diagnostics.homogeneous_weights(alpha, beta)
    res = np.full(valid.shape, np.inf)
    for c in range(len(names)):
        if valid[c].any():
            r = diagnostics.weighted_products(q.coeffs, w, cands[c])
            res[c] = np.where(valid[c], safe_norm(r, axis=0), np.inf)
    sel = np.argmin(res, axis=0)
    cols = np.arange(nj)
    x = cands[sel, :, cols].T
    method = np.array(names, dtype=object)[sel]
    method[~valid.any(axis=0)] = "degenerate"
    return [(x[:, j] if m != "degenerate" else None, m, r)
            for j, (m, r) in enumerate(zip(method.tolist(), res[sel, cols].tolist()))]


def recover_right_ls(zs, alpha, beta, q: QuarticPencil):
    """Least-squares recovery min || [lambda I; E] x - [z1; -z4] || per column.

    ``zs`` holds one lifted 4n-vector per column, ``alpha`` and ``beta`` the
    matching finite nonzero eigenvalues. Solved through one SVD of E, then
    in O(n^2) per eigenvalue, all columns at once; the second block acts as
    a regularizer. For |lambda|>1 the system is scaled by 1/lambda to keep
    the stack balanced. Returns unit vectors as the columns of an array.
    """
    n = q.n
    u_e, sig, vh_e = np.linalg.svd(q.e)  # E is square: n values
    lam = affine(alpha, beta)
    big = np.abs(lam) > 1.0
    t1 = (vh_e @ zs[:n]) / np.where(big, lam, 1.0)
    t2 = -(u_e.conj().T @ zs[3 * n :])
    r1 = np.where(big, 1.0, lam)
    sig = sig[:, None]
    u = (np.conj(r1) * t1 + sig * t2) / (np.abs(r1) ** 2 + sig**2)
    return unit_columns(vh_e.conj().T @ u)


def recover_left(q: QuarticPencil, alpha, beta, x):
    """Left eigenvectors y, y* P(alpha, beta) ~ 0, one unit column per pair.

    ``alpha`` and ``beta`` hold the homogeneous eigenvalues and column j of
    ``x`` the right eigenvector of pair j, zero where there is none (the
    solver passes its finite pairs; zero and infinite ones take their
    vectors from :func:`nullspace_vectors`). A pair with a right vector and
    alpha, beta both nonzero takes one step of inverse iteration from it:
    P(alpha, beta)* y = x, formed and solved for ``LEFT_CHUNK`` pairs at a
    time; the vectors of a repeated eigenvalue are then separated by
    :func:`_separate_twins`. The other pairs, and those whose solve is
    exactly singular or not finite, take the left singular vectors of
    P(alpha, beta) for its smallest singular values. Pairs with an
    identical (alpha, beta) take successive ones, cycling through those of
    singular values at most n*eps times the largest (at least the smallest
    one), as a defective eigenvalue has fewer left vectors than pairs.
    """
    n, m = q.n, len(alpha)
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n, m) or np.shape(beta) != (m,):
        raise ValueError(f"expected {m} pairs and an {n} x {m} x, got {x.shape}")
    wc = diagnostics.homogeneous_weights(alpha, beta).conj().T
    coeffs_h = np.stack([c.conj().T for c in q.coeffs]).reshape(5, n * n)
    y = np.zeros((n, m), dtype=np.complex128)
    step = np.flatnonzero((alpha != 0.0) & (beta != 0.0) & x.any(axis=0))
    for start in range(0, step.size, LEFT_CHUNK):
        j = step[start : start + LEFT_CHUNK]
        p_h = (wc[j] @ coeffs_h).reshape(-1, n, n)
        try:
            y[:, j] = np.linalg.solve(p_h, x[:, j].T[..., None])[..., 0].T
        except np.linalg.LinAlgError:  # one of them is exactly singular
            for k, i in enumerate(j):
                with contextlib.suppress(np.linalg.LinAlgError):
                    y[:, i] = np.linalg.solve(p_h[k], x[:, i])
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = safe_norm(y, axis=0)
    ok = np.isfinite(nrm) & (nrm > 0.0)
    y = np.divide(y, nrm, out=np.zeros_like(y), where=ok)
    _separate_twins(y, alpha, beta, np.flatnonzero(ok),
                    lambda i: (wc[i] @ coeffs_h).reshape(n, n))
    groups = {}
    for i in np.flatnonzero(~ok).tolist():
        groups.setdefault((alpha[i], beta[i]), []).append(i)
    for idx in groups.values():
        # svd(P*) = u s vh, so P = vh* s u*: its left singular vectors are
        # the rows of vh, conjugated
        _, sig, vh = np.linalg.svd((wc[idx[0]] @ coeffs_h).reshape(n, n))
        null = max(1, int(np.sum(sig <= n * EPS * sig[0])))
        y[:, idx] = vh[n - 1 - np.arange(len(idx)) % null].conj().T
    return y


def _separate_twins(y, alpha, beta, idx, pencil_h):
    """Orthogonalize, in place, each unit column of ``y`` listed in ``idx``
    against those of the earlier pairs of ``idx`` within sqrt(eps) of its
    eigenvalue (chordal distance |alpha_i beta_j - alpha_j beta_i|).

    Inverse iteration from the independent right vectors of a repeated
    eigenvalue can return nearly parallel left vectors. The orthogonalized
    vector is kept only where its residual ||P(alpha, beta)* v|| stays
    within 10 times the larger of the old one's and n*eps*||P||_F, which
    leaves the vectors of a defective eigenvalue, that has fewer left
    vectors than pairs, as they are. ``pencil_h(i)`` forms P* of pair i.
    """
    a, b = alpha[idx], beta[idx]
    near = np.abs(np.outer(a, b) - np.outer(b, a)) <= np.sqrt(EPS)
    for k in np.flatnonzero(np.tril(near, -1).any(axis=1)):
        i, twins = idx[k], idx[:k][near[k, :k]]
        basis = np.linalg.qr(y[:, twins])[0]
        v = y[:, i] - basis @ (basis.conj().T @ y[:, i])
        p_h = pencil_h(i)
        floor = max(np.linalg.norm(p_h @ y[:, i]), len(v) * EPS * np.linalg.norm(p_h))
        v_norm = np.linalg.norm(v)
        if v_norm > 0.0 and np.linalg.norm(p_h @ v) <= 10.0 * floor * v_norm:
            y[:, i] = v / v_norm


def nullspace_vectors(rp: RankProfile, which, count):
    """Right and left eigenvectors ``(x, y)`` of ``count`` pairs of a class.

    The zero class (``which='zero_class'``) takes its right vectors from
    null(E), the leading columns of the V of its URV decomposition
    (:func:`numkit.complete_orthogonal`), and its left vectors from the
    trailing columns of Q_E; the infinite class (``'inf_class'``) takes
    those of A. Pairs cycle through the basis when there are more of them
    than its dimension, as a defective eigenvalue has fewer vectors than
    pairs. A QR that finds full rank is cut at rank n - 1, the direction
    of its smallest trailing |r_kk|, so every pair gets a vector. Returns
    two n x ``count`` arrays of unit columns.
    """
    if which not in ("zero_class", "inf_class"):
        raise ValueError(f"unknown class {which!r}")
    f = rp.qr_e if which == "zero_class" else rp.qr_a
    n = f.rows
    if count == 0:
        return np.zeros((2, n, 0), dtype=np.complex128)
    rank = min(f.rank, n - 1)
    cycle = np.arange(count) % (n - rank)
    return complete_orthogonal(f, rank).v[:, cycle], f.q[:, rank + cycle]
