"""Dense complex factorization kernels.

Everything downstream (rank analysis, deflation, eigenvector recovery) is
built on the routines here: column-pivoted rank-revealing QR with pluggable
truncation strategies, complete orthogonal (URV) decomposition, SVD, the
complex generalized Schur form of a matrix pair, batched O(n^2) shifted
back substitutions built on it, and the eigensolver of the final pencil
(:func:`generalized_eig`). A pivoted QR keeps LAPACK's Householder
reflectors and forms its Q factor on first use, since rank decisions read
only R. This module is also the one place that talks to OpenBLAS
directly: it sets the BLAS thread count (:func:`blas_threads`) and finds
LAPACK's blocked QZ driver, which scipy does not wrap.

Matrices are plain ``numpy.ndarray``s promoted to complex128; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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

    ``r`` is the full untruncated triangular factor and ``q`` the unitary one
    (m @ perm_matrix = q @ r); ``rank`` and ``truncation_log`` record how the
    diagonal was cut. ``q`` is formed from zgeqp3's Householder reflectors
    on first access, so a caller that reads only the rank never forms it.
    """

    r: np.ndarray
    perm: np.ndarray
    rank: int
    truncation_log: dict = field(default_factory=dict)
    reflectors: tuple | None = field(default=None, repr=False)  # (qr, tau); None once q is formed
    _q: np.ndarray | None = field(default=None, repr=False)

    @property
    def q(self):
        if self._q is None:
            self._q = _form_q(*self.reflectors)
            self.reflectors = None
        return self._q

    def q_times(self, x):
        """q @ x for a matrix x; through the reflectors (zunmqr) while q is
        not formed."""
        if self._q is not None:
            return self._q @ x
        qr, tau = self.reflectors
        unmqr, = sla.get_lapack_funcs(("ormqr",), (qr,))
        out, _, info = unmqr("L", "N", qr[:, : tau.shape[0]], tau, x, lwork=max(1, x.shape[1]))
        if info < 0:  # pragma: no cover
            raise ValueError(f"illegal value in argument {-info} of zunmqr")
        return out

    @property
    def rows(self):
        return self.r.shape[0]

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


def _form_q(qr, tau):
    """The square Q of zgeqp3's reflectors, by the same workspace-queried
    zungqr call that ``scipy.linalg.qr`` makes (so the result is identical)."""
    rows, cols = qr.shape
    ungqr, = sla.get_lapack_funcs(("orgqr",), (qr,))
    if rows < cols:
        a = qr[:, :rows]
    else:
        a = np.empty((rows, rows), dtype=qr.dtype)
        a[:, :cols] = qr
    lwork = ungqr(a, tau, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    q, _, info = ungqr(a, tau, lwork=lwork, overwrite_a=1)
    if info < 0:  # pragma: no cover
        raise ValueError(f"illegal value in argument {-info} of zungqr")
    return q


def rrqr(m, strategy=None) -> PivotedQR:
    """Rank-revealing QR with Businger-Golub column pivoting."""
    a = as_matrix(m)
    rows, cols = a.shape
    strategy = strategy or NormThreshold()
    if rows == 0 or cols == 0:
        rank, log = strategy.decide(np.zeros(0), 0.0, a.shape)
        return PivotedQR(
            r=np.zeros((rows, cols), dtype=np.complex128),
            perm=np.arange(cols, dtype=np.intp),
            rank=0,
            truncation_log=log,
            _q=np.eye(rows, dtype=np.complex128),
        )
    (qr, tau), _, perm = sla.qr(a, pivoting=True, mode="raw")
    r = np.triu(qr)
    diag_abs = np.abs(np.diag(r))
    rank, log = strategy.decide(diag_abs, float(np.linalg.norm(a)), a.shape)
    return PivotedQR(r=r, perm=perm.astype(np.intp), rank=rank, truncation_log=log,
                     reflectors=(qr, tau))


# ---------------------------------------------------------------------------
# complete orthogonal (URV) decomposition
# ---------------------------------------------------------------------------


@dataclass
class URVFactors:
    """Complete orthogonal decomposition m = u @ [[0, r],[0, 0]] @ v*.

    The nonsingular triangular core sits in the *trailing* columns, so that
    applying ``v`` to a row-rank-deficient block yields the column-compressed
    form (0 | B) consumed by the deflation steps. ``u`` is the Q factor of
    the pivoted QR ``qr`` of m, formed on first access (deflation reads only
    ``v`` and the rank).
    """

    qr: PivotedQR
    r: np.ndarray
    v: np.ndarray
    rank: int

    @property
    def u(self):
        return self.qr.q

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
    cols = a.shape[1]
    f = rrqr(a, strategy)
    rho = f.rank
    # m = Q [Rhat; 0] P^T ; factor (Rhat P^T)* = Z [R2; 0] and flip the
    # column blocks of Z so the core lands in the trailing columns (with
    # rank 0, Z is the identity and the core is empty).
    w = f.r_hat[:, f.inv_perm].conj().T  # cols x rho
    z, r2 = sla.qr(w)
    order = np.concatenate([np.arange(rho, cols), np.arange(rho)])
    return URVFactors(qr=f, r=r2[:rho, :].conj().T, v=z[:, order], rank=rho)


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
    """Batched solves (lam_j a + b) x = v.

    ``vs`` has shape (j, n, r): r right-hand sides for each of the j shifts.
    ``pair`` is the triangular form from :func:`tri_hess_reduce`, so
    lam_j a + b = q (lam_j t + h) z* and every solve is one O(n^2) back
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
    diag = lams[:, None] * np.diagonal(t)[None, :] + np.diagonal(h)[None, :]
    ok = ~singular_diag(diag)
    # columns are (shift, rhs) pairs: back substitution row by row, with
    # lam_j t + h applied as the weighted sum of the two row products
    th = np.stack([t, h])
    s_cols = np.repeat(np.stack([lams, np.ones_like(lams)]), nr, axis=1)
    diag_cols = np.repeat(np.where(diag == 0.0, 1.0, diag).T, nr, axis=1)
    y = pair.qh @ vs.transpose(1, 0, 2).reshape(n, nj * nr)
    for k in range(n - 1, -1, -1):
        done = slice(k + 1, n)  # empty on the first row
        y[k] -= (s_cols * (th[:, k, done] @ y[done])).sum(axis=0)
        y[k] /= diag_cols[k]
    x = (pair.z @ y).reshape(n, nj, nr).transpose(1, 0, 2)
    return x, ok


def shifted_hess_solve(pair: TriHessPair, lam, v):
    """Evaluate (lambda*a + b)^-1 v through the reduced pair.

    ``v`` may hold several columns. A one-shift call of
    :func:`shifted_hess_solve_many`; raises :class:`SingularShiftError` when
    the shifted system is numerically singular. The solver uses the batched
    call; this one stays while bench/tracer.py patches it (ROADMAP item 1).
    """
    v = np.asarray(v)
    x, ok = shifted_hess_solve_many(pair, [lam], v.reshape(1, v.shape[0], -1))
    if not ok[0]:
        raise SingularShiftError("shifted system is numerically singular")
    return x[0].reshape(v.shape)


# ---------------------------------------------------------------------------
# OpenBLAS entry points: thread count and the blocked QZ driver
# ---------------------------------------------------------------------------

# (get, set) symbol names, first match per library: numpy's 64-bit-integer
# build, scipy's build, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# LAPACKE_zggev3 symbol names with their integer type: scipy's 32-bit build
# first, then numpy's 64-bit-integer build
_ZGGEV3_SYMBOLS = (
    ("scipy_LAPACKE_zggev3", ctypes.c_int),
    ("scipy_LAPACKE_zggev364_", ctypes.c_int64),
)
_LAPACK_COL_MAJOR = 102


@functools.cache
def _openblas_libs():
    """Every OpenBLAS shared object mapped into the process, opened once.

    numpy and scipy may each load their own copy. Empty where none is found
    (another BLAS, or no ``/proc``).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    libs = []
    for path in sorted(p for p in paths if ".so" in p):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def openblas_controls():
    """(get, set) thread-count functions of every OpenBLAS in the process."""
    controls = []
    for lib in _openblas_libs():
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                controls.append((get, put))
                break
    return tuple(controls)


@functools.cache
def lapacke_zggev3():
    """LAPACKE's ``zggev3`` from a loaded OpenBLAS, or None where none has it.

    scipy wraps only the unblocked ``zggev``; the OpenBLAS it loads also
    exports the blocked multishift driver. Returns the ctypes function with
    its argument types set.
    """
    for name, lapack_int in _ZGGEV3_SYMBOLS:
        for lib in _openblas_libs():
            if hasattr(lib, name):
                fn = getattr(lib, name)
                ptr = ctypes.c_void_p
                fn.restype = lapack_int
                fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, lapack_int,
                               ptr, lapack_int, ptr, lapack_int, ptr, ptr,
                               ptr, lapack_int, ptr, lapack_int]
                return fn
    return None


def generalized_eig(a, b, want_left=True):
    """All eigenvalues and eigenvectors of the pair (a, b), in homogeneous form.

    Runs LAPACK's blocked multishift QZ driver ``zggev3`` (``zgghd3`` then
    ``zlaqz0``, multishift QZ with aggressive early deflation) where a loaded
    OpenBLAS exports it, and otherwise ``scipy.linalg.eig`` (``zggev``).
    Returns ``(ab, vl, vr, driver)``: ``ab`` stacks alpha over beta, ``vl``
    is None unless ``want_left``, the eigenvectors are unnormalized, and
    ``driver`` names the routine that ran. A nonzero ``info`` from LAPACK
    raises :class:`GevpError`.
    """
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    fn = lapacke_zggev3()
    if fn is None:
        try:
            out = sla.eig(a, b, left=want_left, right=True, homogeneous_eigvals=True,
                          check_finite=False)
        except (sla.LinAlgError, np.linalg.LinAlgError) as exc:  # pragma: no cover
            raise GevpError(f"QZ backend failed: {exc}") from exc
        ab, vl, vr = out if want_left else (out[0], None, out[1])
        return ab, vl, vr, "lapack.zggev (scipy.linalg.eig)"
    a = np.array(a, dtype=np.complex128, order="F")
    b = np.array(b, dtype=np.complex128, order="F")
    ab = np.empty((2, n), dtype=np.complex128)
    vr = np.empty((n, n), dtype=np.complex128, order="F")
    vl = np.empty((n, n) if want_left else (1, 1), dtype=np.complex128, order="F")
    ld = max(n, 1)
    info = fn(_LAPACK_COL_MAJOR, b"V" if want_left else b"N", b"V", n,
              a.ctypes.data, ld, b.ctypes.data, ld, ab[0].ctypes.data, ab[1].ctypes.data,
              vl.ctypes.data, ld if want_left else 1, vr.ctypes.data, ld)
    if info != 0:
        raise GevpError(f"QZ backend failed: LAPACKE_zggev3 returned info={info}")
    return ab, vl if want_left else None, vr, "lapack.zggev3"


@contextlib.contextmanager
def blas_threads(k):
    """Run the block with every loaded OpenBLAS at ``k`` threads.

    Each library's previous count is put back on exit, also when the block
    raises. The count is process-wide: other Python threads see it too.
    Yields the count read back after setting it (the largest over the
    libraries, which all hold ``k`` unless one caps it), or None when no
    OpenBLAS could be controlled (nothing is changed).
    """
    controls = openblas_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(k)
    try:
        yield max((get() for get, _ in controls), default=None)
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)
