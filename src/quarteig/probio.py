"""Problem ingestion, synthetic generators, and report serialization.

A problem bundle is a directory with the five coefficient files ``A.mtx`` ..
``E.mtx`` in Matrix Market format (coordinate or array, real or complex) and
an optional ``expected.json`` holding verifiable ground-truth claims (class
counts, known eigenvalues) that the solver itself never reads.

Every file the package writes (bundles, reports, ``compare``'s merged CSV)
goes through :func:`write_file`: a changed file is written to a temp file
next to the target and renamed over it, so readers never see a partial
file; a file whose bytes would not change is left in place with a fresh
mtime.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import (
    BundleError,
    DimensionMismatchError,
    MalformedMatrixError,
    MissingCoefficientError,
)
from .numkit import as_matrix
from .pencil import QuarticPencil

COEFF_NAMES = ("A", "B", "C", "D", "E")


@dataclass
class ProblemBundle:
    name: str
    pencil: QuarticPencil
    expected: dict | None = None


def read_bundle(path) -> ProblemBundle:
    """Load a coefficient quintuple (plus optional expected.json)."""
    path = os.fspath(path)
    mats = []
    for name in COEFF_NAMES:
        fp = os.path.join(path, f"{name}.mtx")
        if not os.path.exists(fp):
            raise MissingCoefficientError(name, fp)
        try:
            m = mmread(fp)
        except Exception as exc:
            raise MalformedMatrixError(name, fp, str(exc)) from exc
        if sp.issparse(m):
            m = m.toarray()
        try:
            mats.append(as_matrix(m))
        except ValueError as exc:
            raise MalformedMatrixError(name, fp, str(exc)) from exc
    shapes = [m.shape for m in mats]
    n = shapes[0][0]
    if n == 0 or any(s != (n, n) for s in shapes):
        raise DimensionMismatchError(shapes)
    expected = None
    ep = os.path.join(path, "expected.json")
    if os.path.exists(ep):
        try:
            with open(ep, encoding="utf-8") as fh:
                expected = json.load(fh)
        # unreadable (a directory, no permission), bad JSON or not UTF-8
        except (OSError, ValueError) as exc:
            raise BundleError(f"failed to read {ep}: {exc}") from exc
    return ProblemBundle(
        name=os.path.basename(os.path.normpath(path)),
        pencil=QuarticPencil.from_matrices(*mats),
        expected=expected,
    )


def write_bundle(bundle: ProblemBundle, path):
    """Write the quintuple (and expected.json when present) to a directory.

    Each file is written atomically by :func:`write_file`; one whose bytes
    would not change is left in place with a fresh mtime.
    """
    path = os.fspath(path)
    for name, m in zip(COEFF_NAMES, bundle.pencil.coeffs):
        buf = io.BytesIO()
        mmwrite(buf, np.asarray(m), precision=17)
        write_file(os.path.join(path, f"{name}.mtx"), buf.getvalue())
    if bundle.expected is not None:
        text = json.dumps(bundle.expected, indent=1, sort_keys=True)
        write_file(os.path.join(path, "expected.json"), text.encode("utf-8"))


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------


def _holds(path, data: bytes) -> bool:
    """True when path is a regular file (not a link) whose bytes are data."""
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != len(data):
            return False
        # a link or FIFO swapped in since the lstat fails to open or reads
        # empty, instead of being followed or blocking
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        with open(fd, "rb") as fh:
            return fh.read(len(data) + 1) == data
    except OSError:
        return False


def write_file(path, data: bytes):
    """Write data to path atomically; leave a file already holding it in place.

    When path is a regular file whose bytes equal data, only its mtime is
    refreshed. Otherwise data goes to a temp file in the target's directory
    (created there if missing), which is renamed over path, so a reader or a
    crash never sees a partial file. Created files get mode 0666 less the
    umask.
    """
    path = os.fspath(path)
    if _holds(path, data):
        try:
            os.utime(path)
            return
        except OSError:
            pass  # e.g. a file of another owner: replace it as below
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".quarteig-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


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

    Deterministic per seed. Expected lower bounds on the eigenvalue class
    counts (one zero per E-column, one infinity per A-column) are recorded.
    """
    if zero_cols_e > n or zero_cols_a > n:
        raise ValueError("cannot plant more zero columns than the dimension")
    rng = np.random.default_rng(seed)
    a, cols_a = _with_zero_columns(rng, n, zero_cols_a)
    e, cols_e = _with_zero_columns(rng, n, zero_cols_e)
    b = _random_dense(rng, n)
    c = _random_dense(rng, n)
    d = _random_dense(rng, n)
    expected = {
        "zeros_min": int(zero_cols_e),
        "infs_min": int(zero_cols_a),
        "provenance": "synthetic: exactly-zero columns planted in E and A",
        "zero_columns_e": [int(j) for j in cols_e],
        "zero_columns_a": [int(j) for j in cols_a],
        "seed": int(seed),
    }
    return ProblemBundle(
        name=f"planted_n{n}_e{zero_cols_e}_a{zero_cols_a}_s{seed}",
        pencil=QuarticPencil.from_matrices(a, b, c, d, e),
        expected=expected,
    )


def gen_jordan_chain(n, chain_len, at, seed) -> ProblemBundle:
    """Quartic with a planted chain of the given length at 0 or infinity.

    The designated coordinate carries the scalar monomial lambda^k (k =
    chain_len for a chain at zero, 4 - chain_len for a chain at infinity),
    which plants a single Kronecker block of that length at the requested
    end (and the complementary block at the other end). The remaining
    coordinates are random regular scalar quartics; the whole problem is
    rotated by random unitaries.
    """
    if at not in ("zero", "infinity"):
        raise ValueError(f"chain location must be 'zero' or 'infinity', got {at!r}")
    if not 0 <= chain_len <= 4:
        raise ValueError("chain length must be between 0 and 4")
    rng = np.random.default_rng(seed)
    k = chain_len if at == "zero" else 4 - chain_len
    diags = np.zeros((5, n), dtype=np.complex128)  # rows: coeff of lambda^4..^0
    diags[4 - k, 0] = 1.0
    for j in range(1, n):
        mags = 0.5 + rng.random(5)
        phases = np.exp(2j * np.pi * rng.random(5))
        diags[:, j] = mags * phases
    u = _haar(rng, n, n)
    v = _haar(rng, n, n)
    mats = [u @ (diags[i][:, None] * v.conj().T) for i in range(5)]
    zeros = k
    infs = 4 - k
    expected = {
        "zeros": int(zeros),
        "infs": int(infs),
        "chain": {"at": at, "len": int(chain_len)},
        "provenance": "synthetic: scalar monomial planted on one coordinate",
        "seed": int(seed),
    }
    return ProblemBundle(
        name=f"jordan_{at}{chain_len}_n{n}_s{seed}",
        pencil=QuarticPencil.from_matrices(*mats),
        expected=expected,
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
    zeros = nz + second_level_zeros
    expected = {
        "zeros": int(zeros),
        "infs": int(zeros),
        "provenance": "synthetic mirror-like structure (rank-2 extremes, "
        "two zero columns in each second-level matrix)",
        "seed": int(seed),
    }
    return ProblemBundle(
        name=f"mirror_like_s{seed}",
        pencil=QuarticPencil.from_matrices(a, b, c, d, e),
        expected=expected,
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
    expected = dict(bundle.expected or {})
    expected["graded"] = {"exponents": [float(x) for x in expo]}
    return ProblemBundle(
        name=bundle.name + "_graded",
        pencil=QuarticPencil.from_matrices(*mats),
        expected=expected,
    )


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "index",
    "alpha_re",
    "alpha_im",
    "beta",
    "class",
    "eta_right",
    "eta_left",
    "omega_right",
    "omega_left",
)


def write_report(report: dict, path, fmt="json"):
    """Serialize a solve report (JSON and/or a per-eigenpair CSV companion).

    Both files are written atomically by :func:`write_file`. Repeated runs
    on identical input produce byte-identical files (the report carries no
    timestamps), so a re-run into the same path leaves them in place with a
    fresh mtime.
    """
    path = os.fspath(path)
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"unknown report format {fmt!r}")
    base = path
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    if fmt in ("json", "both"):
        jp = base + ".json"
        write_file(jp, (json.dumps(report, indent=1) + "\n").encode("utf-8"))
    if fmt in ("csv", "both"):
        cp = base + ".csv"
        rows = []
        for pair in report["eigenpairs"]:
            rows.append(
                {
                    "index": pair["index"],
                    "alpha_re": pair["alpha"][0],
                    "alpha_im": pair["alpha"][1],
                    "beta": pair["beta"],
                    "class": pair["class"],
                    "eta_right": pair["eta_right"],
                    "eta_left": pair["eta_left"],
                    "omega_right": pair["omega_right"],
                    "omega_left": pair["omega_left"],
                }
            )
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        write_file(cp, buf.getvalue().encode("utf-8"))
