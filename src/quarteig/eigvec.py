"""Eigenvector recovery, lifting through deflation, and nullspace bases.

A right eigenvector z of the linearization partitions into four n-blocks
related to the quartic eigenvector x by

    z = (lambda x, lambda^2 (lambda A + B) x, lambda (lambda A + B) x, -E x),

so x can be recovered from z1, from (lambda A + B)^{-1} z2 or z3 (an O(n^2)
triangular solve on the generalized Schur form of (A, B)), or from E^{-1} z4;
all available candidates are evaluated and the one with the smallest
backward error wins. A left eigenvector is w = (lambda^3 y, lambda^2 y,
lambda y, y) and y is read off the best-scaled block. Vectors of the
deflated pencil are lifted back to the full linearization with the
accumulated transformations; left vectors also need one triangular solve on
the generalized Schur form of the deflated trailing pencil.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import diagnostics
from .deflate import DeflationResult, RankProfile
from .errors import DegenerateVectorError, LiftError, SingularShiftError
from .numkit import (
    EPS,
    SVDFactors,
    TriHessPair,
    shifted_hess_solve,
    shifted_hess_solve_many,
    singular_diag,
    svd,
    tri_hess_reduce,
    unit,
)
from .pencil import EIG_ZERO, HomogeneousEig, QuarticPencil


@dataclass
class RecoveryContext:
    """Per-problem factorizations reused across all eigenvalue recoveries."""

    q: QuarticPencil
    tri_hess: TriHessPair
    norms: diagnostics.CoefficientNorms
    svd_e: SVDFactors | None = None  # computed by the first least-squares recovery
    lu_e: tuple | None = None
    _ls_cache: dict = field(default_factory=dict)


def build_context(q: QuarticPencil, norms=None) -> RecoveryContext:
    norms = norms or diagnostics.CoefficientNorms(q)
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
    return RecoveryContext(q=q, tri_hess=pair, norms=norms, lu_e=lu_e)


def _split(z, n):
    z = np.asarray(z).ravel()
    if z.shape[0] != 4 * n:
        raise ValueError(f"expected a 4n-vector with n={n}, got length {z.shape[0]}")
    return z[:n], z[n : 2 * n], z[2 * n : 3 * n], z[3 * n :]


def recover_right(z, eig: HomogeneousEig, ctx: RecoveryContext, q=None):
    """Smallest-residual recovery of the quartic right eigenvector.

    Returns (x, method, eta) with x unit-norm. Requires a finite nonzero
    eigenvalue; candidates whose solves fail are skipped, and if only the
    first block survives the method is tagged as a fallback.
    """
    q = q or ctx.q
    n = q.n
    z1, z2, z3, z4 = _split(z, n)
    lam = eig.lam
    if eig.beta == 0.0 or eig.alpha == 0.0:
        raise ValueError("recover_right requires a finite nonzero eigenvalue")
    candidates = []
    if np.linalg.norm(z1) > 0:
        candidates.append(("z1", unit(z1)))
    for name, blk in (("z2_shifted", z2), ("z3_shifted", z3)):
        try:
            x = shifted_hess_solve(ctx.tri_hess, lam, blk)
        except SingularShiftError:
            break  # the shift is the same for both blocks
        nx = np.linalg.norm(x)
        if nx > 0 and np.all(np.isfinite(x)):
            candidates.append((name, x / nx))
    if ctx.lu_e is not None and np.linalg.norm(z4) > 0:
        x = sla.lu_solve(ctx.lu_e, -z4)
        nx = np.linalg.norm(x)
        if nx > 0 and np.all(np.isfinite(x)):
            candidates.append(("z4_esolve", x / nx))
    if not candidates:
        raise DegenerateVectorError("all recovery candidates are degenerate")
    best = None
    for name, x in candidates:
        val = diagnostics.eta(eig, x, q, ctx.norms)
        if best is None or val < best[2]:
            best = (name, x, val)
    name, x, val = best
    if len(candidates) == 1 and name == "z1":
        name = "z1_fallback"
    return x, name, val


def recover_right_many(zs, eigs, ctx: RecoveryContext):
    """Batched :func:`recover_right` for finite nonzero eigenvalues.

    ``zs`` holds one lifted 4n-vector per column; ``eigs`` the matching
    eigenvalues. Candidate construction and smallest-backward-error selection
    are identical to the per-eigenvalue routine, with the shifted solves and
    the residual evaluations vectorized across the batch. Returns a list of
    ``(x, method, eta)``; degenerate entries come back as ``(None,
    'degenerate', inf)``.
    """
    q = ctx.q
    n = q.n
    zs = np.asarray(zs, dtype=np.complex128)
    nj = zs.shape[1]
    if nj == 0:
        return []
    if zs.shape[0] != 4 * n or len(eigs) != nj:
        raise ValueError("batch shapes are inconsistent")
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
    w = np.empty((5, nj), dtype=np.complex128)
    for j, e in enumerate(eigs):
        a, b = e.alpha, e.beta
        w[:, j] = (a**4, a**3 * b, a**2 * b**2, a * b**3, b**4)
    etas = np.full((4, nj), np.inf)
    den = (np.abs(w).T @ ctx.norms.two)  # unit-norm candidates
    for c in range(4):
        if not valid[c].any():
            continue
        r = np.zeros((n, nj), dtype=np.complex128)
        for k, m in enumerate(q.coeffs):
            r += w[k][None, :] * (m @ cands[c])
        num = np.linalg.norm(r, axis=0)
        vals = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
        etas[c] = np.where(valid[c], vals, np.inf)
    sel = np.argmin(etas, axis=0)
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
        out.append((cands[c, :, j].copy(), name, float(etas[c, j])))
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


def recover_left(w, eig: HomogeneousEig):
    """Left eigenvector from a block of w = (l^3 y, l^2 y, l y, y).

    All four blocks are y up to the scale family (l^3, l^2, l, 1); the block
    with the largest norm carries the most signal relative to additive noise,
    so it is selected (and logged by the caller), then normalized.
    """
    n = np.asarray(w).ravel().shape[0] // 4
    blocks = _split(w, n)
    norms = [np.linalg.norm(b) for b in blocks]
    y = blocks[int(np.argmax(norms))]
    ny = np.linalg.norm(y)
    if ny == 0.0:
        raise DegenerateVectorError("all blocks of the left eigenvector vanish")
    return y / ny


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


def lift_right(z_til, d: DeflationResult):
    """Lift a deflated-pencil right eigenvector: z = Q [z_til; 0]."""
    z_til = np.asarray(z_til).ravel()
    if z_til.shape[0] != d.size:
        raise ValueError(f"expected a {d.size}-vector, got {z_til.shape[0]}")
    full = d.full_size
    padded = np.zeros(full, dtype=np.complex128)
    padded[: d.size] = z_til
    return unit(d.q @ padded)


def lift_left(w_til, eig: HomogeneousEig, d: DeflationResult):
    """Lift a deflated-pencil left eigenvector through w2* Y = -w* X.

    X and Y are the coupling and trailing blocks of P(beta*AA - alpha*BB)Q.
    With the cached generalized Schur form Y = Qk (beta*Sa - alpha*Sb) Zk*
    of the trailing pencil, w2 = Qk (beta*Sa - alpha*Sb)^{-*} Zk* (-X* w)
    is one O(k^2) triangular solve; a numerically singular triangular
    diagonal raises :class:`LiftError`.
    """
    w_til = np.asarray(w_til).ravel()
    if w_til.shape[0] != d.size:
        raise ValueError(f"expected a {d.size}-vector, got {w_til.shape[0]}")
    if np.linalg.norm(w_til) == 0.0:
        raise ValueError("left eigenvector must be nonzero")
    if d.size == d.full_size:  # nothing deflated: identity transforms
        return unit(w_til)
    alpha, beta = eig.alpha, eig.beta
    ts = d.trailing_schur
    y_tri = beta * ts.pair.t - alpha * ts.pair.h
    if singular_diag(np.diagonal(y_tri)):
        raise LiftError(
            "trailing block is numerically singular at this eigenvalue; "
            "deflation did not produce the claimed structure"
        )
    # Zk* X* w = conj(beta) (Wa12 Zk)* w - conj(alpha) (Wb12 Zk)* w
    wc = w_til.conj()
    xw = np.conj(beta * (wc @ ts.xa) - alpha * (wc @ ts.xb))
    w2 = ts.pair.q @ sla.solve_triangular(y_tri, -xw, trans="C", check_finite=False)
    return unit(d.p_adj @ np.concatenate([w_til, w2]))


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
