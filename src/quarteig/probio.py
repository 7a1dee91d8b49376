"""Problem ingestion and report serialization.

A problem bundle is a directory with the five coefficient files ``A.mtx`` ..
``E.mtx`` in Matrix Market format; any other file in it is ignored. The
Matrix Market reader and writer are this module's own (:func:`read_mtx`,
:func:`mtx_bytes`): the reader takes the ``array`` and ``coordinate``
formats with every field and symmetry, since bundles may come from other
programs, and the writer writes every matrix in the ``general`` array
layout, the bytes of ``scipy.io.mmwrite(target, m, precision=17)`` for a
dense matrix without symmetry.

Reports become text only through :func:`report_json` and :func:`report_csv`.
Every file the package writes (bundles, reports, ``compare``'s merged CSV)
goes through :func:`write_file`: a changed file is written to a temp file
next to the target and renamed over it, so readers never see a partial
file; one whose bytes would not change is left in place with a fresh mtime.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .diagnostics import ERRORS
from .errors import (
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


def read_bundle(path) -> ProblemBundle:
    """Load the coefficient quintuple ``A.mtx`` .. ``E.mtx`` of a directory.

    A missing file is a ``MissingCoefficientError``; one that cannot be
    read, parsed or held in memory, or holds NaN/Inf, a
    ``MalformedMatrixError``; shapes that do not agree a
    ``DimensionMismatchError``.
    """
    path = os.fspath(path)
    mats = []
    for name in COEFF_NAMES:
        fp = os.path.join(path, f"{name}.mtx")
        if not os.path.exists(fp):
            raise MissingCoefficientError(name, fp)
        try:
            mats.append(as_matrix(read_mtx(fp)))
        # MemoryError: a size line whose dense array cannot be allocated
        except (OSError, ValueError, MemoryError) as exc:
            raise MalformedMatrixError(name, fp, str(exc)) from exc
    # promoted and scanned for NaN/Inf above; the constructor checks shapes
    try:
        pencil = QuarticPencil(*mats)
    except ValueError:
        raise DimensionMismatchError([m.shape for m in mats]) from None
    return ProblemBundle(name=os.path.basename(os.path.normpath(path)), pencil=pencil)


def write_bundle(bundle: ProblemBundle, path):
    """Write the quintuple to a directory as ``A.mtx`` .. ``E.mtx``.

    Each file holds :func:`mtx_bytes` of its coefficient and is written
    atomically by :func:`write_file`; one whose bytes would not change is
    left in place with a fresh mtime.
    """
    path = os.fspath(path)
    for name, m in zip(COEFF_NAMES, bundle.pencil.coeffs):
        write_file(os.path.join(path, f"{name}.mtx"), mtx_bytes(m))


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

# field -> dtype of the dense result (as scipy.io.mmread returns it) and the
# numbers per entry
_MM_FIELDS = {"real": (np.float64, 1), "integer": (np.int64, 1),
              "complex": (np.complex128, 2), "pattern": (np.float64, 0)}
# symmetry -> how an entry below the diagonal is mirrored above it
_MM_MIRROR = {"general": None, "symmetric": lambda v: v,
              "skew-symmetric": np.negative, "hermitian": np.conj}


# a comment line with the line break before it, and any blank lines in
# between, in text whose line breaks are all "\n" (a literal "\n" to start
# with is what the regex engine scans for fastest)
_MM_COMMENT = re.compile(r"\n\s*%.*")


def _parse(tokens, dtype):
    """The number tokens (a list of str) as an array of dtype, with an
    integer out of the dtype's range a ``ValueError``, as an unparsable
    number is."""
    try:
        return np.array(tokens, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"number out of range: {exc}") from exc


def read_mtx(path) -> np.ndarray:
    """A Matrix Market file as a dense C-ordered array.

    Reads the ``array`` and ``coordinate`` formats, the fields ``real``,
    ``complex``, ``integer`` and ``pattern``, and the symmetries
    ``general``, ``symmetric``, ``skew-symmetric`` and ``hermitian``; the
    result equals ``scipy.io.mmread(path)`` (densified with ``toarray``
    for the coordinate format, so repeated coordinates are summed) bit for
    bit and in dtype. Entries may be spread over lines in any way, and
    comment lines may stand anywhere after the header. Raises
    ``ValueError`` on a malformed header or size line, an entry count that
    does not match the size line, an unparsable number, a number with a
    ``_`` digit separator (which Python's number syntax allows and Matrix
    Market does not), a size, integer or index beyond int64, or an index
    out of range.
    """
    with open(path, "rb") as fh:
        lines = fh.read().decode("latin-1").splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ValueError(f"not a Matrix Market matrix header: {' '.join(header)[:80]!r}")
    fmt, field, symmetry = (h.lower() for h in header[2:])
    if (fmt not in ("array", "coordinate") or field not in _MM_FIELDS
            or symmetry not in _MM_MIRROR
            or (field == "pattern" and (fmt == "array" or symmetry == "skew-symmetric"))
            or (symmetry == "hermitian" and field != "complex")):
        raise ValueError(f"unsupported Matrix Market type: {fmt} {field} {symmetry}")
    # splitlines splits at every kind of line break; joined again with "\n",
    # the text has one kind. The size line is the first line after the
    # header that is not blank or a comment
    text = _MM_COMMENT.sub("", "\n" + "\n".join(lines[1:]))
    if "_" in text:
        raise ValueError("a number with a '_' digit separator")
    size, _, body = text.lstrip().partition("\n")
    size = size.split()
    try:
        dims = [int(t) for t in size]
    except ValueError:
        dims = []
    if len(dims) != (2 if fmt == "array" else 3) or min(dims) < 0 or max(dims) >= 2**63:
        raise ValueError(f"malformed {fmt} size line: {' '.join(size)!r}")
    rows, cols = dims[:2]
    dtype, width = _MM_FIELDS[field]
    mirror = _MM_MIRROR[symmetry]
    if mirror is not None and rows != cols:
        raise ValueError(f"a {symmetry} matrix must be square, got {rows} x {cols}")
    # an array lists its entries column by column, for a symmetry only those
    # on and below the diagonal (below it for skew symmetry, whose diagonal
    # is zero)
    skip = 1 if symmetry == "skew-symmetric" else 0
    if fmt == "array":
        count = rows * cols if mirror is None else (rows - skip) * (rows + 1 - skip) // 2
    else:
        count = dims[2]
        width += 2
    tokens = body.split()
    if len(tokens) != count * width:
        raise ValueError(f"expected {count} entries of {width} numbers each, "
                         f"found {len(tokens)} numbers")
    if fmt == "array":
        j, i = (np.divmod(np.arange(count), rows) if mirror is None
                else np.triu_indices(rows, skip))
    else:
        i = _parse(tokens[0::width], np.int64) - 1
        j = _parse(tokens[1::width], np.int64) - 1
        if count and (min(i.min(), j.min()) < 0 or i.max() >= rows or j.max() >= cols):
            raise ValueError("entry index out of range")
    if field == "pattern":
        vals = np.ones(count, dtype=dtype)
    elif field == "complex":
        vals = np.empty(count, dtype=dtype)
        vals.real = _parse(tokens[width - 2::width], np.float64)
        vals.imag = _parse(tokens[width - 1::width], np.float64)
    else:
        vals = _parse(tokens[width - 1::width], dtype)
    # as mmread: every entry is added to zero (so -0.0 reads as 0.0) in file
    # order, the mirrored ones last (repeated coordinates are summed)
    out = np.zeros((rows, cols), dtype=dtype)
    np.add.at(out, (i, j), vals)
    if mirror is not None:
        off = i != j
        np.add.at(out, (j[off], i[off]), mirror(vals[off]))
    return out


def mtx_bytes(m) -> bytes:
    """A dense matrix in the Matrix Market ``general`` array layout.

    A float array is written as ``real``, a complex one as ``complex``,
    column-major with 17 significant digits, so :func:`read_mtx` returns it
    bit for bit (but -0.0 as 0.0). The bytes are those of ``scipy.io.mmwrite(target, m,
    precision=17, symmetry="general")``; for a matrix without symmetry,
    those of the plain ``mmwrite(target, m, precision=17)``.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    field = {"f": "real", "c": "complex"}.get(a.dtype.kind)
    if field is None:
        raise ValueError(f"cannot write a matrix of dtype {a.dtype}")
    vals = a.T.ravel().tolist()
    if field == "complex":
        lines = [f"{z.real:.16e} {z.imag:.16e}\n" for z in vals]
    else:
        lines = [f"{x:.16e}\n" for x in vals]
    head = f"%%MatrixMarket matrix array {field} general\n%\n{a.shape[0]} {a.shape[1]}\n"
    return (head + "".join(lines)).encode("ascii")


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
    umask. An ``OSError`` names path, never the randomly named temp file, so
    the same failure gives the same message every time.
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
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("index", "alpha_re", "alpha_im", "beta", "class", *ERRORS)


def csv_text(rows) -> str:
    """Rows (the header first) as CSV text, one line per row ending in a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# One eigenpair object of report_json, laid out as json.dumps(report,
# indent=1) lays it out inside the "eigenpairs" list, and one row of
# report_csv; the slots take build_report's pair values in key order
_PAIR_JSON = ('  {\n   "index": %d,\n   "alpha": [\n    %s,\n    %s\n   ],\n'
              '   "beta": %s,\n   "lambda": %s,\n   "class": %s,\n'
              + "".join(f'   "{e}": %s,\n' for e in ERRORS)
              + '   "method": %s\n  }')
_LAMBDA_JSON = "[\n    %s,\n    %s\n   ]"
_PAIR_CSV = "%d,%r,%r,%r,%s" + ",%s" * len(ERRORS) + "\n"
_INF = float("inf")


def _json_number(x, _repr=float.__repr__):
    """A float or None as ``json.dumps`` writes it."""
    if x is None:
        return "null"
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _repr(x)


def report_json(report: dict) -> str:
    """The JSON text of a solve report: ``json.dumps(report, indent=1)`` and
    a newline.

    The eigenpair objects, most of the text, are formatted from one
    template, which takes the keys that :func:`~quarteig.solver.build_report`
    writes and no others; the rest of the report goes through
    ``json.dumps``.
    """
    num, string = _json_number, encode_basestring_ascii
    pairs = ",\n".join(
        _PAIR_JSON % (p["index"], num(p["alpha"][0]), num(p["alpha"][1]), num(p["beta"]),
                      "null" if p["lambda"] is None
                      else _LAMBDA_JSON % (num(p["lambda"][0]), num(p["lambda"][1])),
                      string(p["class"]), *[num(p[e]) for e in ERRORS], string(p["method"]))
        for p in report["eigenpairs"])
    out = json.dumps({**report, "eigenpairs": []}, indent=1)
    if pairs:
        # the only line that starts with one space and this key: strings in
        # JSON hold no newline, and nested keys are indented further
        out = out.replace('\n "eigenpairs": []', '\n "eigenpairs": [\n' + pairs + "\n ]", 1)
    return out + "\n"


def report_csv(report: dict) -> str:
    """The per-eigenpair CSV companion of a solve report, columns ``CSV_COLUMNS``
    (an error that is null in the JSON is an empty cell): the text that
    ``csv.writer`` writes for these rows, floats by ``repr`` (a class name
    needs no quoting)."""
    rows = "".join(
        _PAIR_CSV % (p["index"], *p["alpha"], p["beta"], p["class"],
                     *["" if p[e] is None else repr(p[e]) for e in ERRORS])
        for p in report["eigenpairs"])
    return csv_text([CSV_COLUMNS]) + rows


def report_base(path) -> str:
    """A report path without its ``.json`` or ``.csv`` extension.

    Raises ``ValueError`` when what is left names a directory, not a file:
    ``out/`` and ``out/.json`` would otherwise write the hidden
    ``out/.json``, and ``.`` the hidden ``..json``.
    """
    base = path = os.fspath(path)
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    if os.path.basename(base) in ("", ".", ".."):
        raise ValueError(f"report path {path!r} names no file")
    return base


def write_report(report: dict, path, fmt="json"):
    """Serialize a solve report (JSON and/or a per-eigenpair CSV companion).

    Both files are written atomically by :func:`write_file`. Repeated runs
    on identical input produce byte-identical files (the report carries no
    timestamps), so a re-run into the same path leaves them in place with a
    fresh mtime.
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"unknown report format {fmt!r}")
    base = report_base(path)
    if fmt in ("json", "both"):
        write_file(base + ".json", report_json(report).encode("utf-8"))
    if fmt in ("csv", "both"):
        write_file(base + ".csv", report_csv(report).encode("utf-8"))
