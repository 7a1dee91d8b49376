"""Dense complex factorization kernels.

Everything downstream (rank analysis, deflation, eigenvector recovery) is
built on the routines here: column-pivoted rank-revealing QR with a
normwise rank rule; the complete orthogonal (URV) decomposition built on
it, whose V also holds a basis of the right null space; triangular solves;
and the eigensolver of the final pencil (:func:`generalized_eig`). A
pivoted QR keeps LAPACK's packed output and forms its Q and R factors on
first use, since rank decisions read only R's diagonal.

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

from .errors import GevpError

EPS = float(np.finfo(np.float64).eps)


def as_matrix(m) -> np.ndarray:
    """Validate and promote an array to a complex128 2-d matrix."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return a.astype(np.complex128, copy=False)


def unit_columns(z):
    """Columns of z scaled to unit 2-norm; those whose norm is zero or not
    finite come back zero."""
    z = np.asarray(z)
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = np.linalg.norm(z, axis=0)
    ok = np.isfinite(nrm) & (nrm > 0.0)
    return np.divide(z, nrm, out=np.zeros(z.shape, dtype=np.complex128), where=ok)


def safe_norm(m, axis=None):
    """``np.linalg.norm(m, axis=axis)`` (Frobenius or 2-norms) that neither
    overflows nor underflows.

    Where the plain norm is finite and above 2^-470, so that its squares
    neither overflowed nor lost a significant part to underflow, or where
    it is the norm of exact zeros, it is the result. Otherwise the norm of
    m * 2^-e is multiplied back by 2^e, with e the binary exponent of
    max|m| (per norm along ``axis``); powers of two scale exactly.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore", under="ignore"):
        nrm = np.linalg.norm(m, axis=axis)
    fine = (nrm > 2.0**-470) & (nrm < np.inf)
    if fine.all() or (fine | ~m.any(axis=axis)).all():
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

    ``packed`` is zgeqp3's output: R on and above the diagonal, Householder
    reflectors below (m[:, perm] = q @ r). ``rank`` and ``truncation_log``
    record how its diagonal was cut. The factors ``r`` and ``q`` are formed
    on first access (on the scipy fallback of :func:`lapack`, ``packed`` is
    R and q is formed at once).
    """

    packed: np.ndarray
    perm: np.ndarray
    rank: int
    truncation_log: dict = field(default_factory=dict)
    hh_scalars: np.ndarray | None = field(default=None, repr=False)
    _q: np.ndarray | None = field(default=None, repr=False)
    _r: np.ndarray | None = field(default=None, repr=False)

    @property
    def q(self):
        if self._q is None:
            self._q = _form_q(self.packed, self.hh_scalars)
        return self._q

    @property
    def r(self):
        if self._r is None:
            self._r = np.triu(self.packed)
        return self._r

    @property
    def rows(self):
        return self.packed.shape[0]

    @property
    def cols(self):
        return self.packed.shape[1]

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


def rrqr(m, floor=0.0) -> PivotedQR:
    """Rank-revealing QR with Businger-Golub column pivoting.

    The numerical rank counts the diagonal entries with
    |r_kk| > max(tau * ||m||_F, floor), where tau is max(shape)*eps; the
    absolute ``floor`` lets a caller refer the rule to a larger matrix that
    m was cut from. ``truncation_log`` records tau, the threshold used, the
    rank and |diag(r)|.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    lib = lapack()
    q = hh_scalars = None
    if rows == 0 or cols == 0:
        q, packed, perm = (np.eye(rows, dtype=np.complex128),
                           np.zeros((rows, cols), dtype=np.complex128), np.arange(cols))
    elif lib is None:
        import scipy.linalg as sla

        q, packed, perm = sla.qr(a, pivoting=True, check_finite=False)
    else:
        qr = np.array(a, order="F")
        jpvt = np.zeros(cols, dtype=lib.int)
        hh_scalars = np.empty(min(rows, cols), dtype=np.complex128)
        lib.zgeqp3(rows, cols, qr, rows, jpvt, hh_scalars)
        packed, perm = qr, jpvt - 1
    diag_abs = np.abs(packed.diagonal())
    tau = max(rows, cols, 1) * EPS
    threshold = max(tau * float(safe_norm(a)), floor)
    rank = int(np.count_nonzero(diag_abs > threshold))
    log = {"tau": tau, "threshold": threshold, "rank": rank,
           "diag": diag_abs.tolist()}
    return PivotedQR(packed=packed, perm=perm.astype(np.intp), rank=rank,
                     truncation_log=log, hh_scalars=hh_scalars, _q=q)


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


def complete_orthogonal(f: PivotedQR, rank=None) -> URVFactors:
    """The URV decomposition of the matrix m factored by ``f``, truncated
    at ``rank`` (None: ``f.rank``).

    m = Q [Rhat; 0] Pi^T with Rhat the leading ``rank`` rows of R; factor
    (Rhat Pi^T)* = Z [R2; 0] and flip the column blocks of Z so the core
    lands in the trailing columns (with rank 0, Z is the identity and the
    core is empty).
    """
    rho = f.rank if rank is None else rank
    w = f.r[:rho, f.inv_perm].conj().T  # cols x rho
    z, _ = np.linalg.qr(w, mode="complete")
    order = np.concatenate([np.arange(rho, f.cols), np.arange(rho)])
    return URVFactors(v=z[:, order], rank=rho)


def urv(m) -> URVFactors:
    """Two-sided orthogonal reduction exposing row rank (the rank of
    :func:`rrqr`)."""
    return complete_orthogonal(rrqr(m))


# ---------------------------------------------------------------------------
# triangular solves
# ---------------------------------------------------------------------------


def solve_triangular(r, b):
    """Solve r x = b for an upper triangular r (LAPACK ztrtrs). A zero on the
    diagonal raises ``numpy.linalg.LinAlgError``."""
    r = np.asfortranarray(r, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128, order="F")
    lib = lapack()
    if lib is None:
        import scipy.linalg as sla

        return sla.solve_triangular(r, x, overwrite_b=True, check_finite=False)
    n = r.shape[0]
    info = lib.ztrtrs("U", "N", "N", n, 1 if x.ndim == 1 else x.shape[1], r, max(n, 1),
                      x, max(n, 1))
    if info:
        raise np.linalg.LinAlgError(f"singular triangular matrix: zero at diagonal {info}")
    return x


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
# i a LAPACK integer, p a pointer to an array
_LAPACKE_ARGS = {
    "zgeqp3": "iipipp",  # m n a lda jpvt tau
    "zungqr": "iiipip",  # m n k a lda tau
    "ztrtrs": "ccciipipi",  # uplo trans diag n nrhs a lda b ldb
    "zggev3": "ccipipipppipi",  # jobvl jobvr n a lda b ldb alpha beta vl ldvl vr ldvr
}
_LAPACK_COL_MAJOR = 102


class Lapacke:
    """The LAPACKE routines of one loaded library, as attributes named after
    the routines (``zgeqp3``, ``ztrtrs``, ...).

    Each takes its LAPACKE arguments after the matrix layout, which is
    always column-major: characters as ``str``, arrays as Fortran-contiguous
    complex128 arrays or integer arrays of the LAPACK integer dtype
    ``self.int``. Each returns LAPACK's ``info`` and raises ``ValueError``
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


def generalized_eig(a, b):
    """All eigenvalues and right eigenvectors of the pair (a, b), in
    homogeneous form.

    Runs LAPACK's blocked multishift QZ driver ``zggev3`` (``zgghd3`` then
    ``zlaqz0``, multishift QZ with aggressive early deflation) from the
    :func:`lapack` table, and without one ``scipy.linalg.eig`` (``zggev``,
    which is all scipy wraps). No left eigenvectors are computed
    (``jobvl = 'N'``).
    Returns ``(ab, vr, driver)``: ``ab`` stacks alpha over beta, the
    eigenvectors are unnormalized, and ``driver`` names the routine that
    ran. A nonzero ``info`` from LAPACK raises :class:`GevpError`.
    """
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    lib = lapack()
    if lib is None:
        import scipy.linalg as sla

        try:
            ab, vr = sla.eig(a, b, right=True, homogeneous_eigvals=True, check_finite=False)
        except (sla.LinAlgError, np.linalg.LinAlgError) as exc:  # pragma: no cover
            raise GevpError(f"QZ backend failed: {exc}") from exc
        return ab, vr, "lapack.zggev (scipy.linalg.eig)"
    a = np.array(a, dtype=np.complex128, order="F")
    b = np.array(b, dtype=np.complex128, order="F")
    ab = np.empty((2, n), dtype=np.complex128)
    vr = np.empty((n, n), dtype=np.complex128, order="F")
    vl = np.empty((1, 1), dtype=np.complex128, order="F")  # not referenced
    ld = max(n, 1)
    info = lib.zggev3("N", "V", n, a, ld, b, ld, ab[0], ab[1], vl, 1, vr, ld)
    if info != 0:
        raise GevpError(f"QZ backend failed: LAPACKE_zggev3 returned info={info}")
    return ab, vr, "lapack.zggev3"


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
