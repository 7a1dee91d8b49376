"""Eigenvector recovery, lifting through deflation, and nullspace bases.

A right eigenvector z of the linearization partitions into four n-blocks
related to the quartic eigenvector x by

    z = (lambda x, lambda^2 (lambda A + B) x, lambda (lambda A + B) x, -E x),

so x can be recovered from z1, from (lambda A + B)^{-1} z2 or z3 (an O(n^2)
triangular solve on the generalized Schur form of (A, B)), or from E^{-1} z4;
all available candidates are evaluated and the one with the smallest
residual wins. A left eigenvector is w = (lambda^3 y, lambda^2 y,
lambda y, y) and y is read off the best-scaled block. Vectors of the
deflated pencil are lifted back to the full linearization with the
accumulated transformations; left vectors also need a solve with the
deflated trailing pencil. That pencil is the staircase left by deflation,
block upper triangular with one block per deflation step, each diagonal
block vanishing in one coefficient by construction; it is solved by block
forward substitution over the steps, one QR per block shared by all
eigenvalues, with no QZ of its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import diagnostics
from .deflate import DeflationResult, RankProfile
from .errors import DegenerateVectorError
from .numkit import (
    EPS,
    SVDFactors,
    TriHessPair,
    shifted_hess_solve,  # only bench/tracer.py uses it here (ROADMAP item 1)
    shifted_hess_solve_many,
    singular_diag,
    svd,
    tri_hess_reduce,
    unit,
)
from .pencil import EIG_FINITE, EIG_ZERO, HomogeneousEig, QuarticPencil


@dataclass
class RecoveryContext:
    """Per-problem factorizations reused across all eigenvalue recoveries."""

    q: QuarticPencil
    tri_hess: TriHessPair
    svd_e: SVDFactors | None = None  # computed by the first least-squares recovery
    lu_e: tuple | None = None
    _ls_cache: dict = field(default_factory=dict)


def build_context(q: QuarticPencil) -> RecoveryContext:
    pair = tri_hess_reduce(q.a, q.b)
    lu_e = None
    ne = np.linalg.norm(q.e)
    if ne > 0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu = sla.lu_factor(q.e)
        dmin = np.abs(np.diag(lu[0])).min() if q.n else 0.0
        if dmin > q.n * EPS * ne:
            lu_e = lu
    return RecoveryContext(q=q, tri_hess=pair, lu_e=lu_e)


def _split(z, n):
    z = np.asarray(z).ravel()
    if z.shape[0] != 4 * n:
        raise ValueError(f"expected a 4n-vector with n={n}, got length {z.shape[0]}")
    return z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :]


def recover_right_many(zs, eigs, ctx: RecoveryContext):
    """Smallest-residual recovery of quartic right eigenvectors.

    ``zs`` holds one lifted 4n-vector per column; ``eigs`` the matching
    finite nonzero eigenvalues. Every candidate (z1, the two shifted solves,
    the E solve) is normalized and the one with the smallest residual
    ||P(lambda) x|| wins, which is the smallest backward error, since all
    candidates of an eigenvalue share its denominator; the shifted solves
    and the residual evaluations are vectorized across the batch. Returns a
    list of ``(x, method, residual)`` with unit-norm x and its residual
    norm; when only z1 is usable the method is ``z1_fallback``, and
    degenerate entries come back as ``(None, 'degenerate', inf)``.
    """
    q = ctx.q
    n = q.n
    zs = np.asarray(zs, dtype=np.complex128)
    nj = zs.shape[1]
    if nj == 0:
        return []
    if zs.shape[0] != 4 * n or len(eigs) != nj:
        raise ValueError("batch shapes are inconsistent")
    if any(e.cls != EIG_FINITE for e in eigs):
        raise ValueError("recover_right_many requires finite nonzero eigenvalues")
    lams = np.array([e.lam for e in eigs], dtype=np.complex128)
    z1 = zs[:n, :]
    z4 = zs[3 * n :, :]
    rhs = np.stack([zs[n : 2 * n, :].T, zs[2 * n : 3 * n, :].T], axis=2)
    sols, ok = shifted_hess_solve_many(ctx.tri_hess, lams, rhs)
    names = ("z1", "z2_shifted", "z3_shifted", "z4_esolve")
    cands = np.zeros((4, n, nj), dtype=np.complex128)
    valid = np.zeros((4, nj), dtype=bool)
    cands[0] = z1
    cands[1] = sols[:, :, 0].T
    cands[2] = sols[:, :, 1].T
    valid[1] = valid[2] = ok
    if ctx.lu_e is not None:
        cands[3] = sla.lu_solve(ctx.lu_e, -z4)
        valid[3] = True
    norms_c = np.linalg.norm(cands, axis=1)
    finite_c = np.isfinite(norms_c) & (norms_c > 0.0)
    valid[0] = finite_c[0]
    valid &= finite_c
    np.divide(cands, norms_c[:, None, :], out=cands, where=finite_c[:, None, :])
    w = diagnostics.homogeneous_weights(eigs)
    res = np.full((4, nj), np.inf)
    for c in range(4):
        if not valid[c].any():
            continue
        r = np.zeros((n, nj), dtype=np.complex128)
        for k, m in enumerate(q.coeffs):
            r += w[k][None, :] * (m @ cands[c])
        res[c] = np.where(valid[c], np.linalg.norm(r, axis=0), np.inf)
    sel = np.argmin(res, axis=0)
    out = []
    nvalid = valid.sum(axis=0)
    for j in range(nj):
        if nvalid[j] == 0:
            out.append((None, "degenerate", np.inf))
            continue
        c = int(sel[j])
        name = names[c]
        if name == "z1" and nvalid[j] == 1:
            name = "z1_fallback"
        out.append((cands[c, :, j].copy(), name, float(res[c, j])))
    return out


def recover_right_zero(z, q: QuarticPencil):
    """Right eigenvector for lambda = 0: the first block of z.

    The remaining blocks should reproduce (0, Bx, Dx); their mismatch is
    returned as a consistency diagnostic.
    """
    n = q.n
    z1, z2, z3, z4 = _split(z, n)
    z = np.asarray(z).ravel()
    nz = np.linalg.norm(z)
    n1 = np.linalg.norm(z1)
    if n1 <= q.n * EPS * nz:
        raise DegenerateVectorError("leading block of the zero-class eigenvector vanishes")
    x = z1 / n1
    model = np.concatenate([z1, np.zeros(n, dtype=np.complex128), q.b @ z1, q.d @ z1])
    mismatch = float(
        np.linalg.norm(z - model) / max(np.linalg.norm(model), nz, EPS)
    )
    return x, mismatch


def recover_left(ws):
    """Left eigenvectors from the blocks of w = (l^3 y, l^2 y, l y, y).

    ``ws`` holds one 4n-vector per column. All four blocks are y up to the
    scale family (l^3, l^2, l, 1); the block with the largest norm carries
    the most signal relative to additive noise, so it is selected per column,
    for the whole batch at once, and normalized. Returns ``(y, ok)``:
    ``ok[j]`` is False for an all-zero column, whose column of ``y`` is zero.
    """
    ws = np.asarray(ws)
    if ws.ndim != 2 or ws.shape[0] % 4:
        raise ValueError(f"expected 4n-vectors as columns, got shape {ws.shape}")
    blocks = ws.reshape(4, ws.shape[0] // 4, ws.shape[1])
    norms = np.linalg.norm(blocks, axis=1)
    best = np.argmax(norms, axis=0)
    cols = np.arange(ws.shape[1])
    ny = norms[best, cols]
    ok = ny > 0.0
    y = blocks[best, :, cols].T
    return np.divide(y, ny, out=np.zeros_like(y), where=ok), ok


def recover_right_ls(z, eig: HomogeneousEig, ctx: RecoveryContext, weight=1.0):
    """Least-squares recovery min || [lambda I; E] x - [z1; -z4] ||.

    Solved through the SVD of E (computed on the first call and cached in
    the context) in O(n^2) per eigenvalue; the second block acts as a
    regularizer with the given weight. For |lambda|>1 the system is scaled
    by 1/lambda to keep the stack balanced. For lambda = 0 the stacked
    systems with B or D are used instead.
    """
    q = ctx.q
    n = q.n
    z1, z2, z3, z4 = _split(z, n)
    lam = eig.lam
    if eig.cls == EIG_ZERO or eig.alpha == 0.0:
        best = None
        for key, mat, rhs2 in (("ls_zero_b", q.b, z3), ("ls_zero_d", q.d, z4)):
            if key not in ctx._ls_cache:
                stack = np.vstack([np.eye(n, dtype=np.complex128), weight * mat])
                ctx._ls_cache[key] = stack
            stack = ctx._ls_cache[key]
            rhs = np.concatenate([z1, weight * rhs2])
            x, *_ = np.linalg.lstsq(stack, rhs, rcond=None)
            res = np.linalg.norm(stack @ x - rhs)
            if best is None or res < best[1]:
                best = (x, res)
        return unit(best[0])
    if ctx.svd_e is None:
        ctx.svd_e = svd(q.e)
    u_e, sig, v_e = ctx.svd_e.u, ctx.svd_e.sigma, ctx.svd_e.v
    sig = np.concatenate([sig, np.zeros(n - len(sig))]) if len(sig) < n else sig
    t1 = v_e.conj().T @ z1
    t2 = -(u_e.conj().T @ z4)
    if abs(lam) > 1.0:
        r1 = 1.0 + 0.0j
        rhs1 = t1 / lam
    else:
        r1 = complex(lam)
        rhs1 = t1
    r2 = weight * sig
    num = np.conj(r1) * rhs1 + r2 * (weight * t2)
    den = abs(r1) ** 2 + r2**2
    u = num / den
    return unit(v_e @ u)


def lift_left(ws, eigs, d: DeflationResult):
    """Lift deflated-pencil left eigenvectors, one per column of ``ws``.

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
    nj = len(eigs)
    if ws.shape != (d.size, nj):
        raise ValueError(f"expected {d.size}-vectors as {nj} columns, got {ws.shape}")
    ok = np.ones(nj, dtype=bool)
    if d.size < d.full_size:
        alpha_c = np.array([e.alpha for e in eigs], dtype=np.complex128).conj()
        beta_c = np.array([e.beta for e in eigs], dtype=np.complex128).conj()
        v = np.zeros((d.full_size, nj), dtype=np.complex128)
        v[: d.size] = ws
        start = d.size
        for step in reversed(d.steps):
            if not step.deflated:
                continue
            blk = slice(start, start + step.deflated)
            # right-hand side -(Y_{:, i})* v over the rows solved so far
            rhs = (alpha_c * (d.work_b[:start, blk].conj().T @ v[:start])
                   - beta_c * (d.work_a[:start, blk].conj().T @ v[:start]))
            zero_step = step.zeros > 0
            qf, rf = sla.qr((d.work_b if zero_step else d.work_a)[blk, blk])
            if singular_diag(np.diagonal(rf)):
                ok[:] = False
                break
            scale = -alpha_c if zero_step else beta_c
            ok &= scale != 0.0
            # (scale M*) x = rhs with M = qf rf: x = qf rf^-* rhs / scale
            x = qf @ sla.solve_triangular(rf, rhs, trans="C")
            v[blk] = x / np.where(scale != 0.0, scale, 1.0)
            start = blk.stop
        ws = d.p.conj().T @ v
    nrm = np.linalg.norm(ws, axis=0)
    ok &= np.isfinite(nrm) & (nrm > 0.0)
    return np.divide(ws, nrm, out=np.zeros_like(ws), where=ok), ok


def nullspace_vectors(rp: RankProfile, which, side="right"):
    """Orthonormal eigenvector basis for the deflated zero/infinite classes.

    Zero-class right vectors span null(E) (from the QR of Pi_E R_E^*), the
    infinite class analogously spans null(A); left vectors are the trailing
    columns of Q_E (resp. Q_A).
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
    if f.rank == 0:
        return np.eye(n, dtype=np.complex128)
    w = f.perm_matrix() @ f.r_hat.conj().T  # Pi * R_hat^*, n x rank
    qfull, _ = sla.qr(w)
    return qfull[:, f.rank :]
