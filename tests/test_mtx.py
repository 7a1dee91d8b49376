"""The package's own Matrix Market reader and writer against scipy.io.

Every file here is written by ``scipy.io.mmwrite`` or by hand; the reader
must return what ``scipy.io.mmread`` returns (densified), bit for bit and in
the same dtype, and the writer must produce mmwrite's bytes for the
``general`` layout, the only one it writes. Where the reader's rules differ
from mmread's (comment lines between entries, an entry split over lines, a
fraction in an integer field, a ``_`` digit separator), explicit values or
errors pin them.
"""

import io
import json

import numpy as np
import pytest
from scipy.io import mmread, mmwrite
from scipy.sparse import coo_array

from quarteig.cli import EXIT_BUNDLE, main
from quarteig.errors import MalformedMatrixError
from quarteig.probio import mtx_bytes, read_bundle, read_mtx

# every valid format x field x symmetry combination: array matrices have no
# pattern field, pattern matrices no skew symmetry, Hermitian ones are complex
COMBOS = [
    (fmt, field, sym)
    for fmt in ("array", "coordinate")
    for field in ("real", "complex", "integer", "pattern")
    for sym in ("general", "symmetric", "skew-symmetric", "hermitian")
    if not (field == "pattern" and (fmt == "array" or sym == "skew-symmetric"))
    and not (sym == "hermitian" and field != "complex")
]


def sample(field, sym, rng, n=6):
    """A matrix with the given symmetry; about a third of it exact zeros,
    some of them -0.0, and values over many binades."""
    if field == "integer":
        m = rng.integers(-99, 100, (n, n))
    else:
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
        if field == "complex":
            m = m + 1j * rng.standard_normal((n, n))
        m[rng.random((n, n)) < 0.15] = -0.0
    m[rng.random((n, n)) < 0.2] = 0
    low = np.tril(m, -1)
    if sym == "symmetric":
        m = low + low.T + np.diag(np.diag(m))
    elif sym == "skew-symmetric":
        m = low - low.T
    elif sym == "hermitian":
        m = low + low.conj().T + np.diag(np.diag(m).real)
    return m


def dense_mmread(path):
    m = mmread(path)
    return m.toarray() if hasattr(m, "toarray") else m


def assert_same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()  # -0.0 included


class TestReader:
    @pytest.mark.parametrize("fmt,field,sym", COMBOS)
    def test_equals_mmread(self, tmp_path, fmt, field, sym):
        rng = np.random.default_rng(COMBOS.index((fmt, field, sym)))
        m = sample(field, sym, rng)
        path = tmp_path / "m.mtx"
        mmwrite(path, coo_array(m) if fmt == "coordinate" else m, field=field,
                symmetry=sym, precision=17)
        assert path.read_text().split("\n", 1)[0] == f"%%MatrixMarket matrix {fmt} {field} {sym}"
        assert_same(read_mtx(path), dense_mmread(path))

    def test_rectangular_and_empty(self, tmp_path):
        rng = np.random.default_rng(80)
        for m in (rng.standard_normal((3, 5)), np.zeros((0, 0)), np.zeros((2, 0))):
            for target in (m, coo_array(m)):
                path = tmp_path / "m.mtx"
                mmwrite(path, target, precision=17)
                assert_same(read_mtx(path), dense_mmread(path))

    def test_hand_written_coordinate_file(self, tmp_path):
        # comments, blank lines, free spacing, a repeated entry (summed) and
        # an exact -0.0 entry (added to zero, as scipy's densification does)
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "% a comment\n"
            "%\n"
            "\n"
            "  3 4   5\n"
            "1 1 1.5 -2e-3\n"
            "3   4 -0.0 -0.0\n"
            "2 2 0.1 0.2\n"
            "1 1 2.5 1E+2\n"
            "3 1 -7 0\n"
        )
        got = read_mtx(path)
        assert_same(got, dense_mmread(path))
        assert got[0, 0] == 4.0 + 99.998j

    @pytest.mark.parametrize("text", [
        # CRLF line endings, the comment line included
        "%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 2\r\n"
        "1 1 1.5\r\n2 2 -3e1\r\n",
        # tabs between the numbers
        "%%MatrixMarket matrix coordinate real general\n2\t2\t2\n1\t1\t1.5\n2 \t2\t-3e1\n",
    ])
    def test_line_endings_and_separators(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_bytes(text.encode("ascii"))
        got = read_mtx(path)
        assert_same(got, np.array([[1.5, 0.0], [0.0, -30.0]]))
        assert_same(got, dense_mmread(path))

    def test_comment_lines_anywhere_after_the_header(self, tmp_path):
        # between the entries, indented, and after the last one (mmread
        # rejects these files)
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n"
                        "% between\n  % indented\n\n2 2 -3e1\n% after the last entry\n")
        assert_same(read_mtx(path), np.array([[1.5, 0.0], [0.0, -30.0]]))

    def test_entry_split_over_lines(self, tmp_path):
        # entries are read as a stream of numbers (mmread rejects this file)
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 2\n"
                        "1 1\n1.5\n-2\n2 2 0.25 0\n")
        assert_same(read_mtx(path), np.array([[1.5 - 2j, 0], [0, 0.25]]))

    def test_integer_field_takes_no_fraction(self, tmp_path):
        # mmread reads 3.0 as 3; an integer field holds integers only
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array integer general\n1 2\n-4\n3.0\n")
        with pytest.raises(ValueError):
            read_mtx(path)
        path.write_text("%%MatrixMarket matrix array integer general\n1 2\n-4\n3\n")
        assert_same(read_mtx(path), np.array([[-4, 3]], dtype=np.int64))

    def test_pencil_read_equals_mmread(self, tmp_path):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        mmwrite(tmp_path / "m.mtx", m, precision=17)
        assert np.array_equal(read_mtx(tmp_path / "m.mtx"), m)


class TestWriter:
    CASES = {
        "real": lambda rng: rng.standard_normal((5, 5)),
        "complex": lambda rng: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
        "identity": lambda rng: np.eye(2),
        "negative_zero": lambda rng: np.array([[0.1, -0.0], [2e-300, 1e300]]),
        "negative_zero_complex": lambda rng: np.array([[-0.0 - 0.0j, 1j], [5e-324, -1.0]]),
        "symmetric_negative_zero": lambda rng: np.array([[1.0, -0.0], [0.0, 2.0]]),
        "hermitian": lambda rng: np.array([[3, 1 + 2j, 4 - 3j], [1 - 2j, 1, -5j],
                                           [4 + 3j, 5j, 2.5]]),
        "complex_symmetric": lambda rng: np.array([[1 + 1j, 2.0], [2.0, 3.0]]),
        "skew": lambda rng: np.array([[0.0, 2.0], [-2.0, 0.0]]),
        "complex_skew": lambda rng: np.array([[0.0, 1 + 1j], [-1 - 1j, 0.0]]),
        # mmwrite skips the Hermitian test of a nonzero (0, 0) entry
        "hermitian_but_first_diagonal": lambda rng: np.array([[1 + 1j, 2 - 1j], [2 + 1j, 3.0]]),
        "hermitian_but_later_diagonal": lambda rng: np.array([[1.0, 2 - 1j], [2 + 1j, 3 + 1j]]),
        "rectangular": lambda rng: rng.standard_normal((2, 3)),
        "empty": lambda rng: np.zeros((0, 0)),
        "scalar": lambda rng: np.array([[-1.0 + 0j]]),
        "wide_range": lambda rng: rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-320, 300, (4, 4)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_mmwrite(self, case):
        m = self.CASES[case](np.random.default_rng(82))
        general, plain = io.BytesIO(), io.BytesIO()
        mmwrite(general, m, precision=17, symmetry="general")
        assert mtx_bytes(m) == general.getvalue()
        # a matrix without symmetry needs no symmetry argument
        mmwrite(plain, m, precision=17)
        if plain.getvalue().split(b"\n", 1)[0].endswith(b" general"):
            assert mtx_bytes(m) == plain.getvalue()

    @pytest.mark.parametrize("case", list(CASES))
    def test_roundtrip(self, tmp_path, case):
        m = self.CASES[case](np.random.default_rng(83))
        (tmp_path / "m.mtx").write_bytes(mtx_bytes(m))
        # bit for bit, but for the sign of a zero: as mmread, read_mtx adds
        # every entry to zero, so -0.0 reads as 0.0
        assert_same(read_mtx(tmp_path / "m.mtx"), m + 0.0)

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            mtx_bytes(np.eye(2, dtype=int))
        with pytest.raises(ValueError, match="2-d"):
            mtx_bytes(np.zeros(3))


MALFORMED = {
    "no_banner": "1 1\n1\n",
    "short_header": "%%MatrixMarket matrix array real\n1 1\n1\n",
    "not_a_matrix": "%%MatrixMarket vector array real general\n1 1\n1\n",
    "unknown_field": "%%MatrixMarket matrix array quaternion general\n1 1\n1\n",
    "array_pattern": "%%MatrixMarket matrix array pattern general\n1 1\n1\n",
    "real_hermitian": "%%MatrixMarket matrix array real hermitian\n1 1\n1\n",
    "empty_file": "",
    "no_size_line": "%%MatrixMarket matrix array real general\n% only a comment\n",
    "bad_size_line": "%%MatrixMarket matrix array real general\n2 x\n1\n2\n3\n4\n",
    "coordinate_size_without_count": "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
    "too_few_entries": "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    "too_many_entries": "%%MatrixMarket matrix array real general\n1 1\n1\n2\n",
    "wrong_entry_count": "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n2 2 1\n",
    "half_complex_entry": "%%MatrixMarket matrix array complex general\n1 1\n1\n",
    "bad_number": "%%MatrixMarket matrix array real general\n1 1\nx\n",
    "index_out_of_range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
    "index_zero": "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
    "symmetric_not_square": "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n",
    "integer_beyond_int64": "%%MatrixMarket matrix array integer general\n1 1\n99999999999999999999999\n",
    "size_beyond_int64": "%%MatrixMarket matrix array real general\n99999999999999999999999 0\n",
    "index_beyond_int64": ("%%MatrixMarket matrix coordinate real general\n1 1 1\n"
                           "99999999999999999999999 1 1\n"),
    # Python's digit separators: float("1_0") and int("1_0") are 10
    "digit_separator": "%%MatrixMarket matrix array real general\n1 1\n1_0\n",
    "digit_separator_in_size": "%%MatrixMarket matrix array real general\n1_0 1\n" + "1\n" * 10,
}


class TestMalformed:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_reader_raises_value_error(self, tmp_path, case):
        path = tmp_path / "m.mtx"
        path.write_text(MALFORMED[case])
        with pytest.raises(ValueError):
            read_mtx(path)

    @pytest.mark.parametrize("case", ["short_header", "too_few_entries", "wrong_entry_count",
                                      "integer_beyond_int64", "index_beyond_int64",
                                      "digit_separator"])
    def test_bundle_error_and_cli_exit_3(self, unit_bundle, capsys, case):
        (unit_bundle / "D.mtx").write_text(MALFORMED[case])
        with pytest.raises(MalformedMatrixError) as exc:
            read_bundle(unit_bundle)
        assert exc.value.name == "D"
        assert main(["solve", str(unit_bundle)]) == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE and err["type"] == "MalformedMatrixError"
        assert "D.mtx" in err["message"]

    def test_size_beyond_memory_is_bundle_error(self, unit_bundle, capsys):
        # a dense 10^7 x 10^7 float array needs 800 TB: numpy refuses it at
        # once, without touching memory
        (unit_bundle / "D.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n10000000 10000000 0\n")
        with pytest.raises(MalformedMatrixError) as exc:
            read_bundle(unit_bundle)
        assert exc.value.name == "D"
        assert main(["solve", str(unit_bundle)]) == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE and err["type"] == "MalformedMatrixError"
        assert "D.mtx" in err["message"] and "Unable to allocate" in err["message"]

    def test_coefficient_file_that_is_a_directory(self, unit_bundle):
        (unit_bundle / "B.mtx").unlink()
        (unit_bundle / "B.mtx").mkdir()
        with pytest.raises(MalformedMatrixError):
            read_bundle(unit_bundle)
