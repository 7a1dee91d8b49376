"""Eigenvector recovery, lifting through deflation, and nullspace bases.

A right eigenvector z of the linearization partitions into four n-blocks
related to the quartic eigenvector x by

    z = (lambda x, lambda^2 (lambda A + B) x, lambda (lambda A + B) x, -E x),

so x is recovered from z1, or from E^{-1} z4 through the rank-revealing QR
of E that rank analysis made, offered only when that QR finds E of full
rank; of the candidates that exist the one with the smaller residual wins.
A left eigenvector is w = (lambda^3 y, lambda^2 y, lambda y, y) and y is
read off the best-scaled block. Vectors of the deflated pencil are lifted
back to the full linearization with the accumulated transformations; left
vectors also need a solve with the deflated trailing pencil. That pencil is
the staircase left by deflation, block upper triangular with one block per
deflation step, each diagonal block vanishing in one coefficient by
construction; it is solved by block forward substitution over the steps,
one QR per block shared by all eigenvalues, with no QZ of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .deflate import DeflationResult, RankProfile
from .numkit import (
    EPS,
    PivotedQR,
    complete_orthogonal,
    safe_norm,
    singular_diag,
    solve_triangular,
    unit_columns,
)
from .pencil import QuarticPencil, affine

# the deleted shifted solves, still looked up by bench/tracer.py (ROADMAP item 1)
tri_hess_reduce = shifted_hess_solve = shifted_hess_solve_many = None


@dataclass
class RecoveryContext:
    """Per-problem factorizations reused across all eigenvalue recoveries."""

    q: QuarticPencil
    qr_e: PivotedQR | None  # rank-revealing QR of E; None unless it has full rank


def build_context(rp: RankProfile) -> RecoveryContext:
    """The context of ``rp.q``: the rank-revealing QR of E from rank
    analysis is kept for the E solve when it finds full rank."""
    return RecoveryContext(q=rp.q, qr_e=rp.qr_e if rp.r_e == rp.n else None)


def recover_right_many(zs, alpha, beta, ctx: RecoveryContext):
    """Smallest-residual recovery of quartic right eigenvectors.

    ``zs`` holds one lifted 4n-vector per column; ``alpha`` and ``beta`` the
    matching finite nonzero eigenvalues in homogeneous form. The candidates
    are z1 and, when ``ctx`` holds a full-rank QR of E, the E solve
    E^-1 (-z4); each is normalized and the one with the smaller residual
    ||P(lambda) x|| wins, which is the smaller backward error, since both
    candidates of an eigenvalue share its denominator. The solve and the
    residual evaluations are vectorized across the batch. Returns a list of
    ``(x, method, residual)`` with unit-norm x, the winner's name (``z1``
    or ``z4_esolve``) and its residual norm; a column where no candidate is
    nonzero and finite comes back as ``(None, 'degenerate', inf)``.
    """
    q = ctx.q
    n = q.n
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
    f = ctx.qr_e
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


def recover_right_zero(zs, q: QuarticPencil):
    """Right eigenvectors for lambda = 0: the first blocks of the columns of zs.

    Returns ``(x, ok)`` with unit columns; ``ok`` is False, and the column
    zero, where the first block is negligible (n*eps relative to the column).
    """
    zs = np.asarray(zs)
    if zs.ndim != 2 or zs.shape[0] != 4 * q.n:
        raise ValueError(f"expected 4n-vectors as columns with n={q.n}, got shape {zs.shape}")
    return unit_columns(zs[: q.n], q.n * EPS * np.linalg.norm(zs, axis=0))


def recover_left(ws):
    """Left eigenvectors from the blocks of w = (l^3 y, l^2 y, l y, y).

    ``ws`` holds one 4n-vector per column. All four blocks are y up to the
    scale family (l^3, l^2, l, 1); the block with the largest norm carries
    the most signal relative to additive noise, so it is selected per column,
    for the whole batch at once, and normalized. Returns ``(y, ok)``:
    ``ok[j]`` is False for an all-zero or non-finite column, whose column of
    ``y`` is zero.
    """
    ws = np.asarray(ws)
    if ws.ndim != 2 or ws.shape[0] % 4:
        raise ValueError(f"expected 4n-vectors as columns, got shape {ws.shape}")
    blocks = ws.reshape(4, ws.shape[0] // 4, ws.shape[1])
    best = np.argmax(np.linalg.norm(blocks, axis=1), axis=0)
    return unit_columns(blocks[best, :, np.arange(ws.shape[1])].T)


def recover_right_ls(zs, alpha, beta, ctx: RecoveryContext):
    """Least-squares recovery min || [lambda I; E] x - [z1; -z4] || per column.

    ``zs`` holds one lifted 4n-vector per column, ``alpha`` and ``beta`` the
    matching finite nonzero eigenvalues. Solved through one SVD of E, then
    in O(n^2) per eigenvalue, all columns at once; the second block acts as
    a regularizer. For |lambda|>1 the system is scaled by 1/lambda to keep
    the stack balanced. Returns unit vectors as the columns of an array.
    """
    q = ctx.q
    n = q.n
    u_e, sig, vh_e = np.linalg.svd(q.e)  # E is square: n values
    lam = affine(alpha, beta)
    big = np.abs(lam) > 1.0
    t1 = (vh_e @ zs[:n]) / np.where(big, lam, 1.0)
    t2 = -(u_e.conj().T @ zs[3 * n :])
    r1 = np.where(big, 1.0, lam)
    sig = sig[:, None]
    u = (np.conj(r1) * t1 + sig * t2) / (np.abs(r1) ** 2 + sig**2)
    return unit_columns(vh_e.conj().T @ u)[0]


def lift_left(ws, alpha, beta, d: DeflationResult):
    """Lift deflated-pencil left eigenvectors, one per column of ``ws``,
    for the eigenvalues (``alpha``, ``beta``).

    X and Y are the coupling and trailing blocks of P(beta*AA - alpha*BB)Q;
    the lifted vector is P* (w, w2) with w2* Y = -w* X. Y is the deflation
    staircase: block upper triangular with one diagonal block per step of
    ``d.steps`` that deflated something, the first step's block last. A
    zero step leaves Wa_ii = 0, so Y_ii = -alpha Wb_ii; an infinite step
    leaves Wb_ii = 0, so Y_ii = beta Wa_ii. Y* w2 = -X* w is solved by block
    forward substitution for all eigenvalues at once: per block, two
    products with the blocks solved so far (w included), then one QR of the
    nonzero diagonal block, shared by every eigenvalue, whose shift enters
    only as the column scale -conj(alpha_j) or conj(beta_j). One product
    with P* and one column normalization follow. Returns ``(w, ok)`` with
    unit columns; ``ok`` is False (and the column zero) for every column
    when a diagonal block is numerically singular (deflation did not
    produce the claimed structure), for column j when its scale is zero,
    and where ``ws[:, j]`` is zero.
    """
    ws = np.asarray(ws, dtype=np.complex128)
    nj = len(alpha)
    if ws.shape != (d.size, nj):
        raise ValueError(f"expected {d.size}-vectors as {nj} columns, got {ws.shape}")
    ok = np.ones(nj, dtype=bool)
    alpha_c = np.asarray(alpha, dtype=np.complex128).conj()
    beta_c = np.asarray(beta, dtype=np.complex128).conj()
    v = np.zeros((d.full_size, nj), dtype=np.complex128)
    v[: d.size] = ws
    start = d.size
    for step in reversed(d.steps):
        blk = slice(start, start + step.deflated)
        # right-hand side -(Y_{:, i})* v over the rows solved so far
        rhs = (alpha_c * (d.work_b[:start, blk].conj().T @ v[:start])
               - beta_c * (d.work_a[:start, blk].conj().T @ v[:start]))
        zero_step = step.zeros > 0
        qf, rf = np.linalg.qr((d.work_b if zero_step else d.work_a)[blk, blk])
        if singular_diag(np.diagonal(rf)):
            ok[:] = False
            break
        scale = -alpha_c if zero_step else beta_c
        ok &= scale != 0.0
        # (scale M*) x = rhs with M = qf rf: x = qf rf^-* rhs / scale
        x = qf @ solve_triangular(rf, rhs, trans="C")
        v[blk] = x / np.where(scale != 0.0, scale, 1.0)
        start = blk.stop
    return unit_columns(np.where(ok, d.p.conj().T @ v, 0.0))


def nullspace_vectors(rp: RankProfile, which, side="right"):
    """Orthonormal eigenvector basis for the deflated zero/infinite classes.

    Zero-class right vectors span null(E), the leading columns of the V of
    its URV decomposition (:func:`numkit.complete_orthogonal`); the infinite
    class analogously spans null(A). Left vectors are the trailing columns
    of Q_E (resp. Q_A).
    """
    if which not in ("zero_class", "inf_class"):
        raise ValueError(f"unknown class {which!r}")
    f = rp.qr_e if which == "zero_class" else rp.qr_a
    n = f.rows
    k = n - f.rank
    if k == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    if side == "left":
        return f.q[:, f.rank :].copy()
    return complete_orthogonal(f).v[:, :k]
