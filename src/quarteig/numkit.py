"""Dense complex factorization kernels.

Everything downstream (rank analysis, deflation, eigenvector recovery) is
built on the routines here: column-pivoted rank-revealing QR with pluggable
truncation strategies, complete orthogonal (URV) decomposition, SVD, the
complex generalized Schur form of a matrix pair, and O(n^2) shifted
triangular solves built on it.

Matrices are plain ``numpy.ndarray``s promoted to complex128; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import GevpError, SingularShiftError

EPS = float(np.finfo(np.float64).eps)


def as_matrix(m) -> np.ndarray:
    """Validate and promote an array to a complex128 2-d matrix."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a.astype(np.complex128, copy=False)


def as_vector(v) -> np.ndarray:
    a = np.asarray(v).ravel()
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("vector contains NaN/Inf entries")
    return a.astype(np.complex128, copy=False)


def unit(v):
    """Return v normalized to unit 2-norm (zero vector is returned as-is)."""
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


# ---------------------------------------------------------------------------
# truncation strategies for numerical rank decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormThreshold:
    """Keep diagonal entries with |r_kk| > tau * ||m||_F.

    ``tau=None`` resolves to max(shape)*eps at decision time.
    """

    tau: float | None = None
    name = "norm"

    def decide(self, diag_abs, fro, shape):
        tau = self.tau if self.tau is not None else max(max(shape), 1) * EPS
        thr = tau * fro
        rank = int(np.sum(diag_abs > thr))
        log = {
            "strategy": "norm",
            "tau": tau,
            "threshold": thr,
            "diag": [float(d) for d in diag_abs],
            "rank": rank,
        }
        return rank, log


@dataclass(frozen=True)
class DropOff:
    """Truncate at the first drop |r_{i+1,i+1}| <= rho * |r_ii| on the diagonal."""

    rho: float = float(np.sqrt(EPS))
    name = "dropoff"

    def decide(self, diag_abs, fro, shape):
        k = len(diag_abs)
        rank = k
        if k == 0 or diag_abs[0] == 0.0:
            rank = 0
        else:
            for i in range(k):
                if diag_abs[i] == 0.0:
                    rank = i
                    break
                if i + 1 < k and diag_abs[i + 1] <= self.rho * diag_abs[i]:
                    rank = i + 1
                    break
        ratios = [
            float(diag_abs[i + 1] / diag_abs[i]) if diag_abs[i] > 0 else 0.0
            for i in range(k - 1)
        ]
        log = {
            "strategy": "dropoff",
            "rho": self.rho,
            "diag": [float(d) for d in diag_abs],
            "ratios": ratios,
            "rank": rank,
        }
        return rank, log


def make_strategy(name, value=None):
    """Build a truncation strategy from CLI-style arguments."""
    if name == "norm":
        return NormThreshold(tau=value)
    if name == "dropoff":
        return DropOff(rho=value) if value is not None else DropOff()
    raise ValueError(f"unknown rank strategy {name!r}")


# ---------------------------------------------------------------------------
# rank revealing QR
# ---------------------------------------------------------------------------


@dataclass
class PivotedQR:
    """Column-pivoted QR with a numerical-rank decision.

    ``q`` and ``r`` are the full untruncated factors (m @ perm_matrix = q @ r);
    ``rank`` and ``truncation_log`` record how the diagonal was cut.
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    rank: int
    truncation_log: dict = field(default_factory=dict)

    @property
    def rows(self):
        return self.q.shape[0]

    @property
    def cols(self):
        return self.r.shape[1]

    @property
    def q1(self):
        return self.q[:, : self.rank]

    @property
    def q2(self):
        return self.q[:, self.rank :]

    @property
    def r_hat(self):
        return self.r[: self.rank, :]

    @property
    def inv_perm(self):
        inv = np.empty(self.cols, dtype=np.intp)
        inv[self.perm] = np.arange(self.cols)
        return inv

    def perm_matrix(self):
        return np.eye(self.cols)[:, self.perm]

    def r_hat_unpermuted(self, pad=False):
        """R_hat @ perm^T (columns back in original order).

        With ``pad=True`` the rows below the numerical rank are appended as
        exact zeros, which is the truncated representation used in deflation.
        """
        out = self.r_hat[:, self.inv_perm]
        if pad:
            z = np.zeros((self.rows - self.rank, self.cols), dtype=np.complex128)
            out = np.vstack([out, z])
        return out

    def reconstruct(self):
        return self.q @ self.r[:, self.inv_perm]


def rrqr(m, strategy=None) -> PivotedQR:
    """Rank-revealing QR with Businger-Golub column pivoting."""
    a = as_matrix(m)
    rows, cols = a.shape
    strategy = strategy or NormThreshold()
    if rows == 0 or cols == 0:
        rank, log = strategy.decide(np.zeros(0), 0.0, a.shape)
        return PivotedQR(
            q=np.eye(rows, dtype=np.complex128),
            r=np.zeros((rows, cols), dtype=np.complex128),
            perm=np.arange(cols, dtype=np.intp),
            rank=0,
            truncation_log=log,
        )
    q, r, perm = sla.qr(a, pivoting=True)
    diag_abs = np.abs(np.diag(r))
    rank, log = strategy.decide(diag_abs, float(np.linalg.norm(a)), a.shape)
    return PivotedQR(q=q, r=r, perm=perm.astype(np.intp), rank=rank, truncation_log=log)


# ---------------------------------------------------------------------------
# complete orthogonal (URV) decomposition
# ---------------------------------------------------------------------------


@dataclass
class URVFactors:
    """Complete orthogonal decomposition m = u @ [[0, r],[0, 0]] @ v*.

    The nonsingular triangular core sits in the *trailing* columns, so that
    applying ``v`` to a row-rank-deficient block yields the column-compressed
    form (0 | B) consumed by the deflation steps.
    """

    u: np.ndarray
    r: np.ndarray
    v: np.ndarray
    rank: int

    def core_embedded(self, rows, cols):
        out = np.zeros((rows, cols), dtype=np.complex128)
        if self.rank:
            out[: self.rank, cols - self.rank :] = self.r
        return out

    def reconstruct(self):
        rows = self.u.shape[0]
        cols = self.v.shape[0]
        return self.u @ self.core_embedded(rows, cols) @ self.v.conj().T


def urv(m, strategy=None) -> URVFactors:
    """Two-sided orthogonal reduction exposing row rank."""
    a = as_matrix(m)
    rows, cols = a.shape
    f = rrqr(a, strategy)
    rho = f.rank
    if rho == 0:
        return URVFactors(
            u=np.eye(rows, dtype=np.complex128),
            r=np.zeros((0, 0), dtype=np.complex128),
            v=np.eye(cols, dtype=np.complex128),
            rank=0,
        )
    # m = Q [Rhat; 0] P^T ; factor (Rhat P^T)* = Z [R2; 0] and flip the
    # column blocks of Z so the core lands in the trailing columns.
    w = f.r_hat[:, f.inv_perm].conj().T  # cols x rho
    z, r2 = sla.qr(w)
    order = np.concatenate([np.arange(rho, cols), np.arange(rho)])
    v = z[:, order]
    return URVFactors(u=f.q, r=r2[:rho, :].conj().T, v=v, rank=rho)


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------


@dataclass
class SVDFactors:
    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self):
        rows = self.u.shape[0]
        cols = self.v.shape[0]
        s = np.zeros((rows, cols), dtype=np.complex128)
        k = len(self.sigma)
        s[:k, :k] = np.diag(self.sigma)
        return self.u @ s @ self.v.conj().T


def svd(m) -> SVDFactors:
    """Full SVD m = u @ diag(sigma) @ v* with unitary u, v."""
    a = as_matrix(m)
    if a.size == 0:
        return SVDFactors(
            u=np.eye(a.shape[0], dtype=np.complex128),
            sigma=np.zeros(0),
            v=np.eye(a.shape[1], dtype=np.complex128),
        )
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SVDFactors(u=u, sigma=s, v=vh.conj().T)


# ---------------------------------------------------------------------------
# generalized Schur form and shifted solves
# ---------------------------------------------------------------------------


@dataclass
class TriHessPair:
    """Two-sided unitary reduction a = q t z*, b = q h z*.

    ``t`` is upper triangular and ``h`` upper Hessenberg. The generalized
    Schur form returned by :func:`tri_hess_reduce` makes ``h`` upper
    triangular as well, which the shifted solves rely on: lambda*t + h is
    then triangular and (lambda*a + b)^-1 v costs one O(n^2) back
    substitution per shift.
    """

    q: np.ndarray
    t: np.ndarray
    h: np.ndarray
    z: np.ndarray
    qh: np.ndarray = None  # adjoint of q, cached for the per-shift solves

    def __post_init__(self):
        if self.qh is None:
            self.qh = self.q.conj().T.copy()

    @property
    def n(self):
        return self.t.shape[0]


def tri_hess_reduce(a, b) -> TriHessPair:
    """Complex generalized Schur form of a pair (LAPACK zgges).

    The QZ reduction of Moler and Stewart: a = q t z*, b = q h z* with
    unitary q, z and both ``t`` and ``h`` upper triangular. A QZ iteration
    that fails to converge raises :class:`GevpError`.
    """
    t = as_matrix(a)
    h = as_matrix(b)
    if t.shape != h.shape or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected equal square matrices, got {t.shape} and {h.shape}")
    n = t.shape[0]
    if n <= 1:
        eye = np.eye(n, dtype=np.complex128)
        return TriHessPair(q=eye, t=t.copy(), h=h.copy(), z=eye.copy())
    try:
        t, h, q, z = sla.qz(t, h, output="complex", check_finite=False)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise GevpError(f"generalized Schur reduction failed: {exc}") from exc
    return TriHessPair(q=q, t=t, h=h, z=z)


def singular_diag(d):
    """Mask of triangular systems that are numerically singular.

    ``d`` holds the diagonals along its last axis; a system counts as
    singular when its smallest diagonal entry is zero or the ratio of the
    largest to the smallest reaches 1/eps.
    """
    d = np.abs(d)
    dmin = d.min(axis=-1, initial=np.inf)
    dmax = d.max(axis=-1, initial=0.0)
    return (dmin == 0.0) | (dmax >= dmin / EPS)


def shifted_hess_solve_many(pair: TriHessPair, lams, vs):
    """Batched (lam_j a + b)^-1 v_j for stacked right-hand sides.

    ``vs`` has shape (j, n, r) and ``pair`` is the triangular form from
    :func:`tri_hess_reduce`, so every shift is one O(n^2) back
    substitution, run for all shifts and columns at once.
    Returns ``(x, ok)`` where ``ok[j]`` is False for shifts whose diagonal
    fails :func:`singular_diag` (those entries of ``x`` are not meaningful).
    """
    lams = np.asarray(lams, dtype=np.complex128)
    vs = np.asarray(vs, dtype=np.complex128)
    nj, n, nr = vs.shape
    t, h = pair.t, pair.h
    if lams.shape != (nj,) or t.shape != (n, n) or h.shape != (n, n):
        raise ValueError("inconsistent batch shapes")
    diag = np.diagonal(t)[None, :] * lams[:, None] + np.diagonal(h)[None, :]
    ok = ~singular_diag(diag)
    # columns are (shift, rhs) pairs: back substitution row by row
    lam_cols = np.repeat(lams, nr)
    diag_cols = np.repeat(np.where(diag == 0.0, 1.0, diag).T, nr, axis=1)
    y = pair.qh @ vs.transpose(1, 0, 2).reshape(n, nj * nr)
    for k in range(n - 1, -1, -1):
        if k + 1 < n:
            th = np.stack([t[k, k + 1 :], h[k, k + 1 :]]) @ y[k + 1 :]
            y[k] -= lam_cols * th[0] + th[1]
        y[k] /= diag_cols[k]
    x = (pair.z @ y).reshape(n, nj, nr).transpose(1, 0, 2)
    return x, ok


def shifted_hess_solve(pair: TriHessPair, lam, v):
    """Evaluate (lambda*a + b)^-1 v through the reduced pair.

    ``v`` may hold several columns. A one-shift call of
    :func:`shifted_hess_solve_many`; raises :class:`SingularShiftError` when
    the shifted system is numerically singular.
    """
    v = np.asarray(v)
    x, ok = shifted_hess_solve_many(pair, [lam], v.reshape(1, v.shape[0], -1))
    if not ok[0]:
        raise SingularShiftError("shifted system is numerically singular")
    return x[0].reshape(v.shape)
