"""Dense complex factorization kernels.

Everything downstream (rank analysis, deflation, eigenvector recovery) is
built on the routines here: column-pivoted rank-revealing QR with a
normwise rank rule; the complete orthogonal (URV) decomposition built on
it, whose V also holds a basis of the right null space; triangular solves;
the complex generalized Schur form of a matrix pair and the batched O(n^2)
shifted back substitutions built on it; and the eigensolver of the final
pencil (:func:`generalized_eig`). A pivoted QR keeps LAPACK's Householder
reflectors and forms its Q factor on first use, since rank decisions read
only R.

This module is also the one place that talks to LAPACK and OpenBLAS
directly. Every LAPACK routine of the package runs through one table of
``LAPACKE_*`` functions (:func:`lapack`), bound through ctypes to the
OpenBLAS that numpy itself loads, so a solve's bits do not depend on which
other libraries the process has imported. Where no loaded library exports
LAPACKE (a numpy built on MKL or Accelerate), the same routines run through
``scipy.linalg``, which is imported only then. :func:`blas_threads` sets the
BLAS thread count.

Matrices are plain ``numpy.ndarray``s promoted to complex128; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

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


def unit_columns(z, floor=0.0):
    """Columns of z scaled to unit 2-norm, and the mask of those whose norm
    exceeds ``floor``; the others come back zero."""
    z = np.asarray(z)
    nrm = np.linalg.norm(z, axis=0)
    ok = nrm > floor
    return np.divide(z, nrm, out=np.zeros(z.shape, dtype=np.complex128), where=ok), ok


def safe_norm(m, axis=None):
    """``np.linalg.norm(m, axis=axis)`` (Frobenius or 2-norms) that neither
    overflows nor underflows.

    Where the plain norm is finite and above 2^-470, so that its squares
    neither overflowed nor lost a significant part to underflow, it is the
    result. Otherwise the norm of m * 2^-e is multiplied back by 2^e, with
    e the binary exponent of max|m| (per norm along ``axis``); powers of
    two scale exactly.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore", under="ignore"):
        nrm = np.linalg.norm(m, axis=axis)
    if ((nrm > 2.0**-470) & (nrm < np.inf)).all():
        return nrm
    big = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=axis, initial=0.0)
    e = np.minimum(np.maximum(np.frexp(big)[1], -1020), 1024)
    scale = np.ldexp(1.0, -(e if axis is None else np.expand_dims(e, axis)))
    return np.ldexp(np.linalg.norm(m * scale, axis=axis), e)


# ---------------------------------------------------------------------------
# rank revealing QR
# ---------------------------------------------------------------------------


@dataclass
class PivotedQR:
    """Column-pivoted QR with a numerical-rank decision.

    ``r`` is the full untruncated triangular factor and ``q`` the unitary one
    (m[:, perm] = q @ r); ``rank`` and ``truncation_log`` record how the
    diagonal was cut. ``q`` is formed from zgeqp3's Householder reflectors
    on first access, so a caller that reads only the rank never forms it
    (on the scipy fallback of :func:`lapack` it is formed at once).
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
        out = np.array(x, dtype=np.complex128, order="F")
        rows = qr.shape[0]
        lapack().zunmqr("L", "N", rows, out.shape[1], tau.shape[0], qr, rows, tau, out, rows)
        return out

    @property
    def rows(self):
        return self.r.shape[0]

    @property
    def cols(self):
        return self.r.shape[1]

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


def _form_q(qr, tau):
    """The square Q of zgeqp3's reflectors, by the same workspace-queried
    zungqr call that ``scipy.linalg.qr`` makes (so the result is identical)."""
    rows = qr.shape[0]
    k = tau.shape[0]
    q = np.zeros((rows, rows), dtype=np.complex128, order="F")
    q[:, :k] = qr[:, :k]
    lapack().zungqr(rows, rows, k, q, rows, tau)
    return q


def rrqr(m, tol=None) -> PivotedQR:
    """Rank-revealing QR with Businger-Golub column pivoting.

    The numerical rank counts the diagonal entries with
    |r_kk| > tau * ||m||_F, where tau is ``tol`` or, when None,
    max(shape)*eps. ``truncation_log`` records tau, the threshold, the rank
    and |diag(r)|.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    lib = lapack()
    reflectors = None
    if rows == 0 or cols == 0:
        q, r, perm = (np.eye(rows, dtype=np.complex128),
                      np.zeros((rows, cols), dtype=np.complex128), np.arange(cols))
    elif lib is None:
        import scipy.linalg as sla

        q, r, perm = sla.qr(a, pivoting=True, check_finite=False)
    else:
        qr = np.array(a, order="F")
        jpvt = np.zeros(cols, dtype=lib.int)
        hh_scalars = np.empty(min(rows, cols), dtype=np.complex128)
        lib.zgeqp3(rows, cols, qr, rows, jpvt, hh_scalars)
        q, r, perm, reflectors = None, np.triu(qr), jpvt - 1, (qr, hh_scalars)
    diag_abs = np.abs(np.diag(r))
    tau = tol if tol is not None else max(rows, cols, 1) * EPS
    threshold = tau * float(safe_norm(a))
    rank = int(np.sum(diag_abs > threshold))
    log = {"tau": tau, "threshold": threshold, "rank": rank,
           "diag": [float(d) for d in diag_abs]}
    return PivotedQR(r=r, perm=perm.astype(np.intp), rank=rank, truncation_log=log,
                     reflectors=reflectors, _q=q)


# ---------------------------------------------------------------------------
# complete orthogonal (URV) decomposition
# ---------------------------------------------------------------------------


@dataclass
class URVFactors:
    """Complete orthogonal decomposition m = u @ [[0, r],[0, 0]] @ v*, of
    which only ``v`` and the rank are kept.

    The nonsingular triangular core sits in the *trailing* ``rank`` columns,
    so that applying ``v`` to a row-rank-deficient block yields the
    column-compressed form (0 | B) consumed by the deflation steps, and the
    leading ``cols - rank`` columns of ``v`` are an orthonormal basis of the
    null space of m.
    """

    v: np.ndarray
    rank: int


def complete_orthogonal(f: PivotedQR) -> URVFactors:
    """The URV decomposition of the matrix m factored by ``f``.

    m = Q [Rhat; 0] Pi^T; factor (Rhat Pi^T)* = Z [R2; 0] and flip the
    column blocks of Z so the core lands in the trailing columns (with rank
    0, Z is the identity and the core is empty).
    """
    rho = f.rank
    w = f.r_hat[:, f.inv_perm].conj().T  # cols x rho
    z, _ = np.linalg.qr(w, mode="complete")
    order = np.concatenate([np.arange(rho, f.cols), np.arange(rho)])
    return URVFactors(v=z[:, order], rank=rho)


def urv(m, tol=None) -> URVFactors:
    """Two-sided orthogonal reduction exposing row rank (the rank of
    :func:`rrqr` with ``tol``)."""
    return complete_orthogonal(rrqr(m, tol))


# ---------------------------------------------------------------------------
# generalized Schur form and shifted solves
# ---------------------------------------------------------------------------


@dataclass
class TriHessPair:
    """Two-sided unitary reduction a = q t z*, b = q h z*.

    ``t`` and ``h`` are both upper triangular (the generalized Schur form
    returned by :func:`tri_hess_reduce`; the names are those of the
    Hessenberg-triangular form it replaced), which the shifted solves rely
    on: lambda*t + h is triangular and (lambda*a + b)^-1 v costs one O(n^2)
    back substitution per shift.
    """

    q: np.ndarray
    t: np.ndarray
    h: np.ndarray
    z: np.ndarray

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
    lib = lapack()
    if lib is None:
        import scipy.linalg as sla

        try:
            t, h, q, z = sla.qz(t, h, output="complex", check_finite=False)
        except sla.LinAlgError as exc:  # pragma: no cover
            raise GevpError(f"generalized Schur reduction failed: {exc}") from exc
        return TriHessPair(q=q, t=t, h=h, z=z)
    t, h = np.array(t, order="F"), np.array(h, order="F")
    q = np.empty((n, n), dtype=np.complex128, order="F")
    z = np.empty((n, n), dtype=np.complex128, order="F")
    alpha, beta = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    info = lib.zgges("V", "V", "N", None, n, t, n, h, n, np.zeros(1, dtype=lib.int),
                     alpha, beta, q, n, z, n)
    if info:  # pragma: no cover
        raise GevpError(f"generalized Schur reduction failed: LAPACKE_zgges returned info={info}")
    return TriHessPair(q=q, t=t, h=h, z=z)


def solve_triangular(r, b, trans="N"):
    """Solve op(r) x = b for an upper triangular r (LAPACK ztrtrs).

    ``trans`` is "N", "T" or "C" (r, its transpose or its conjugate
    transpose). A zero on the diagonal raises ``numpy.linalg.LinAlgError``.
    """
    r = np.asfortranarray(r, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128, order="F")
    lib = lapack()
    if lib is None:
        import scipy.linalg as sla

        return sla.solve_triangular(r, x, trans=trans, overwrite_b=True, check_finite=False)
    n = r.shape[0]
    info = lib.ztrtrs("U", trans, "N", n, 1 if x.ndim == 1 else x.shape[1], r, max(n, 1),
                      x, max(n, 1))
    if info:
        raise np.linalg.LinAlgError(f"singular triangular matrix: zero at diagonal {info}")
    return x


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
    y = pair.q.conj().T @ vs.transpose(1, 0, 2).reshape(n, nj * nr)
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
# LAPACKE and OpenBLAS entry points
# ---------------------------------------------------------------------------

# (get, set) symbol names, first match per library: numpy's 64-bit-integer
# build, scipy's build, then a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# LAPACKE symbol patterns with their integer type, first match wins:
# numpy's own 64-bit-integer OpenBLAS (the library numpy.linalg runs), then
# scipy's 32-bit build
_LAPACKE_NAMES = (
    ("scipy_LAPACKE_{}64_", ctypes.c_int64),
    ("scipy_LAPACKE_{}", ctypes.c_int),
)

# the arguments of each routine after the matrix layout: c a character,
# i a LAPACK integer, p a pointer to an array (or NULL)
_LAPACKE_ARGS = {
    "zgeqp3": "iipipp",  # m n a lda jpvt tau
    "zungqr": "iiipip",  # m n k a lda tau
    "zunmqr": "cciiipippi",  # side trans m n k a lda tau c ldc
    "zgges": "cccpipipippppipi",  # jobvsl jobvsr sort selctg n a lda b ldb sdim
                                  # alpha beta vsl ldvsl vsr ldvsr
    "ztrtrs": "ccciipipi",  # uplo trans diag n nrhs a lda b ldb
    "zggev3": "ccipipipppipi",  # jobvl jobvr n a lda b ldb alpha beta vl ldvl vr ldvr
}
_LAPACK_COL_MAJOR = 102


class Lapacke:
    """The LAPACKE routines of one loaded library, as attributes named after
    the routines (``zgeqp3``, ``zgges``, ...).

    Each takes its LAPACKE arguments after the matrix layout, which is
    always column-major: characters as ``str``, arrays as Fortran-contiguous
    complex128 arrays or integer arrays of the LAPACK integer dtype
    ``self.int``, and None for a NULL pointer. Each returns LAPACK's ``info`` and raises ``ValueError``
    on an illegal argument (info < 0). The workspace is LAPACKE's, sized by
    a workspace query as ``scipy.linalg`` sizes it.
    """

    def __init__(self, lib, pattern, lapack_int):
        self.int = np.dtype(lapack_int)
        codes = {"c": ctypes.c_char, "i": lapack_int, "p": ctypes.c_void_p}
        for name, args in _LAPACKE_ARGS.items():
            fn = getattr(lib, pattern.format(name))  # AttributeError where missing
            fn.restype = lapack_int
            fn.argtypes = [ctypes.c_int] + [codes[c] for c in args]
            setattr(self, name, self._bind(name, fn))

    def _bind(self, name, fn):
        dtypes = (np.dtype(np.complex128), self.int)

        def call(*args):
            # the arrays stay referenced by ``args`` until fn returns
            conv = []
            for a in args:
                if isinstance(a, np.ndarray):
                    if a.dtype not in dtypes or not a.flags.f_contiguous:
                        raise ValueError(f"LAPACKE_{name}: array argument of dtype "
                                         f"{a.dtype} is not a Fortran-contiguous {dtypes}")
                    a = a.ctypes.data
                elif isinstance(a, str):
                    a = a.encode("ascii")
                conv.append(a)
            info = fn(_LAPACK_COL_MAJOR, *conv)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACKE_{name}")
            return info

        return call


def _openblas_libs():
    """Every OpenBLAS shared object mapped into the process, opened.

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
def lapack():
    """The :class:`Lapacke` table of the process, or None where no loaded
    library exports every routine of it.

    numpy's own OpenBLAS is bound first, so the package runs the LAPACK that
    ``numpy.linalg`` runs whether or not scipy (which brings a second
    OpenBLAS) was imported. Where this returns None, each kernel here
    falls back to ``scipy.linalg``.
    """
    libs = _openblas_libs()
    for pattern, lapack_int in _LAPACKE_NAMES:
        for lib in libs:
            try:
                return Lapacke(lib, pattern, lapack_int)
            except AttributeError:
                continue
    return None


@functools.cache
def openblas_controls():
    """(get, set) thread-count functions of every OpenBLAS in the process.

    Without a LAPACKE table the solve runs in scipy's LAPACK, so scipy is
    imported first and its OpenBLAS, if it brings one, is controlled too.
    """
    if lapack() is None:
        import scipy.linalg  # noqa: F401
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


def generalized_eig(a, b, want_left=True):
    """All eigenvalues and eigenvectors of the pair (a, b), in homogeneous form.

    Runs LAPACK's blocked multishift QZ driver ``zggev3`` (``zgghd3`` then
    ``zlaqz0``, multishift QZ with aggressive early deflation) from the
    :func:`lapack` table, and without one ``scipy.linalg.eig`` (``zggev``,
    which is all scipy wraps).
    Returns ``(ab, vl, vr, driver)``: ``ab`` stacks alpha over beta, ``vl``
    is None unless ``want_left``, the eigenvectors are unnormalized, and
    ``driver`` names the routine that ran. A nonzero ``info`` from LAPACK
    raises :class:`GevpError`.
    """
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    lib = lapack()
    if lib is None:
        import scipy.linalg as sla

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
    info = lib.zggev3("V" if want_left else "N", "V", n, a, ld, b, ld, ab[0], ab[1],
                      vl, ld if want_left else 1, vr, ld)
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
