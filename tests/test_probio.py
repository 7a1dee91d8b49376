import copy
import csv
import dataclasses
import io
import json
import os
import stat
import threading

import numpy as np
import pytest
from scipy.io import mmwrite

import quarteig.pencil
import quarteig.probio
from quarteig import (
    ProblemBundle,
    QuarticPencil,
    SolveConfig,
    build_report,
    read_bundle,
    solve_pencil,
    write_bundle,
    write_report,
)
from quarteig.diagnostics import ERRORS
from quarteig.errors import (
    DimensionMismatchError,
    MalformedMatrixError,
    MissingCoefficientError,
)
from quarteig.numkit import as_matrix
from quarteig.pencil import linearize
from quarteig.probio import CSV_COLUMNS, report_csv, report_json, write_file
from oracles import classify_dense, rand_complex
from problems import gen_jordan_chain, gen_mirror_like, gen_planted, grade_rows


def scalar_bundle(vals, name="scalar"):
    mats = [[[v]] for v in vals]
    return ProblemBundle(name=name, pencil=QuarticPencil.from_matrices(*mats))


class TestBundleIO:
    def test_scalar_roundtrip(self, tmp_path):
        b = scalar_bundle([1.0, 0.0, 0.0, 0.0, -1.0])
        write_bundle(b, tmp_path / "s")
        got = read_bundle(tmp_path / "s")
        assert got.pencil.n == 1
        assert got.pencil.a[0, 0] == 1.0
        assert got.pencil.e[0, 0] == -1.0

    def test_missing_coefficient_named(self, tmp_path):
        b = scalar_bundle([1.0, 0.0, 0.0, 0.0, -1.0])
        write_bundle(b, tmp_path / "s")
        os.unlink(tmp_path / "s" / "B.mtx")
        with pytest.raises(MissingCoefficientError) as exc:
            read_bundle(tmp_path / "s")
        assert exc.value.name == "B"

    def test_malformed_matrix(self, tmp_path):
        b = scalar_bundle([1.0, 0.0, 0.0, 0.0, -1.0])
        write_bundle(b, tmp_path / "s")
        (tmp_path / "s" / "C.mtx").write_text("%%MatrixMarket nonsense\n1 bad\n")
        with pytest.raises(MalformedMatrixError):
            read_bundle(tmp_path / "s")

    def test_dimension_mismatch(self, tmp_path):
        b = scalar_bundle([1.0, 0.0, 0.0, 0.0, -1.0])
        write_bundle(b, tmp_path / "s")
        from scipy.io import mmwrite

        mmwrite(str(tmp_path / "s" / "D.mtx"), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            read_bundle(tmp_path / "s")

    def test_dense_complex_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = [rand_complex(rng, (4, 4)) for _ in range(5)]
        b = ProblemBundle(name="c", pencil=QuarticPencil.from_matrices(*mats))
        write_bundle(b, tmp_path / "c")
        got = read_bundle(tmp_path / "c")
        for m1, m2 in zip(b.pencil.coeffs, got.pencil.coeffs):
            assert np.array_equal(m1, m2)

    def test_sparse_coordinate_format_accepted(self, tmp_path):
        import scipy.sparse as sp
        from scipy.io import mmwrite

        d = tmp_path / "coo"
        d.mkdir()
        for name in "ABCDE":
            mmwrite(str(d / f"{name}.mtx"), sp.eye(3, format="coo") * 2.0)
        got = read_bundle(d)
        assert np.array_equal(got.pencil.c, 2.0 * np.eye(3))

    def test_other_files_ignored(self, tmp_path):
        b = gen_mirror_like(0)
        write_bundle(b, tmp_path / "m")
        assert sorted(os.listdir(tmp_path / "m")) == [f"{name}.mtx" for name in "ABCDE"]
        (tmp_path / "m" / "expected.json").write_bytes(b"{not json")
        (tmp_path / "m" / "notes").mkdir()
        got = read_bundle(tmp_path / "m")
        assert [f.name for f in dataclasses.fields(got)] == ["name", "pencil"]
        assert got.name == "m"
        for m1, m2 in zip(b.pencil.coeffs, got.pencil.coeffs):
            assert np.array_equal(m1, m2)

    def test_bundle_bytes_match_direct_writes(self, tmp_path):
        b = gen_mirror_like(0)
        write_bundle(b, tmp_path / "m")
        for name, m in zip("ABCDE", b.pencil.coeffs):
            ref = tmp_path / f"ref_{name}.mtx"
            mmwrite(str(ref), np.asarray(m), precision=17)
            assert (tmp_path / "m" / f"{name}.mtx").read_bytes() == ref.read_bytes()
        assert len(os.listdir(tmp_path / "m")) == 5

    def test_each_coefficient_checked_once(self, tmp_path, monkeypatch):
        write_bundle(scalar_bundle([1.0, 0.0, 0.0, 0.0, -1.0]), tmp_path / "s")
        calls = []

        def spy(m):
            calls.append(m)
            return as_matrix(m)

        monkeypatch.setattr(quarteig.probio, "as_matrix", spy)
        monkeypatch.setattr(quarteig.pencil, "as_matrix", spy)
        got = read_bundle(tmp_path / "s")
        assert len(calls) == 5
        assert all(m.dtype == np.complex128 for m in got.pencil.coeffs)

    def test_rewrite_leaves_bundle_in_place(self, tmp_path, replace_calls):
        b = gen_mirror_like(0)
        write_bundle(b, tmp_path / "m")
        before = {e.name: e.stat().st_ino for e in os.scandir(tmp_path / "m")}
        assert len(before) == 5 and len(replace_calls) == 5
        write_bundle(b, tmp_path / "m")
        after = {e.name: e.stat().st_ino for e in os.scandir(tmp_path / "m")}
        assert after == before
        assert len(replace_calls) == 5


class TestGenerators:
    def test_planted_rank(self):
        b = gen_planted(4, 1, 0, seed=3)
        assert np.linalg.matrix_rank(b.pencil.e) == 3
        lin = linearize(b.pencil)
        _, cls = classify_dense(lin.aa, lin.bb)
        assert np.sum(cls == "zero") >= 1

    def test_planted_classes_vs_dense_oracle(self):
        b = gen_planted(4, 1, 1, seed=4)
        lin = linearize(b.pencil)
        _, cls = classify_dense(lin.aa, lin.bb)
        assert np.sum(cls == "zero") >= 1
        assert np.sum(cls == "infinite") >= 1

    def test_planted_full_rank_case(self):
        b = gen_planted(4, 0, 0, seed=5)
        s_a = np.linalg.svd(b.pencil.a, compute_uv=False)
        s_e = np.linalg.svd(b.pencil.e, compute_uv=False)
        assert s_a[-1] > 1e-3 and s_e[-1] > 1e-3

    def test_planted_deterministic(self):
        b1 = gen_planted(5, 2, 1, seed=42)
        b2 = gen_planted(5, 2, 1, seed=42)
        for m1, m2 in zip(b1.pencil.coeffs, b2.pencil.coeffs):
            assert np.array_equal(m1, m2)

    def test_planted_conditioning(self):
        b = gen_planted(6, 2, 0, seed=6)
        e = b.pencil.e
        keep = [j for j in range(6) if np.linalg.norm(e[:, j]) > 0]
        s = np.linalg.svd(e[:, keep], compute_uv=False)
        assert s[0] / s[-1] <= 1e2

    def test_planted_bounds_validated(self):
        with pytest.raises(ValueError):
            gen_planted(3, 4, 0, seed=0)

    def test_jordan_scalar_examples(self):
        def counts(b):
            lin = linearize(b.pencil)
            _, cls = classify_dense(lin.aa, lin.bb)
            return np.sum(cls == "zero"), np.sum(cls == "infinite")

        # lambda * D: one zero, three infinite
        b = gen_jordan_chain(1, 1, "zero", seed=0)
        coeffs = np.array([m[0, 0] for m in b.pencil.coeffs])
        mags = np.abs(coeffs)
        assert np.argmax(mags > 0) == 3  # only the lambda^1 coefficient
        assert counts(b) == (1, 3)

        b = gen_jordan_chain(1, 4, "zero", seed=0)
        mags = np.abs([m[0, 0] for m in b.pencil.coeffs])
        assert mags[0] > 0 and np.all(mags[1:] == 0)  # pure lambda^4
        assert counts(b) == (4, 0)

        b = gen_jordan_chain(1, 4, "infinity", seed=0)
        mags = np.abs([m[0, 0] for m in b.pencil.coeffs])
        assert mags[4] > 0 and np.all(mags[:4] == 0)  # constant only
        assert counts(b) == (0, 4)

    def test_jordan_class_counts_vs_oracle(self):
        b = gen_jordan_chain(3, 2, "zero", seed=7)
        lin = linearize(b.pencil)
        _, cls = classify_dense(lin.aa, lin.bb)
        assert np.sum(cls == "zero") == 2
        assert np.sum(cls == "infinite") == 2

    def test_jordan_length_validated(self):
        with pytest.raises(ValueError):
            gen_jordan_chain(2, 5, "zero", seed=0)
        with pytest.raises(ValueError):
            gen_jordan_chain(2, 2, "elsewhere", seed=0)

    def test_mirror_like_structure(self):
        b = gen_mirror_like(0)
        a, e = b.pencil.a, b.pencil.e
        assert np.sum(np.linalg.norm(a, axis=0) == 0.0) == 7
        assert np.sum(np.linalg.norm(e, axis=0) == 0.0) == 7

    def test_grade_rows(self):
        b = gen_planted(4, 0, 0, seed=8)
        g = grade_rows(b, seed=1)
        ratios = g.pencil.a / b.pencil.a
        # every row scaled by a common power of two
        row_ratio = ratios[:, 0]
        assert np.allclose(ratios, row_ratio[:, None])
        assert np.allclose(np.log2(np.abs(row_ratio)), np.round(np.log2(np.abs(row_ratio))))


class TestWriteReport:
    def _report(self):
        from quarteig import build_report, solve_bundle

        b = gen_planted(2, 1, 0, seed=9)
        return build_report(solve_bundle(b))

    def test_json_roundtrip_full_precision(self, tmp_path):
        rep = self._report()
        p = tmp_path / "r.json"
        write_report(rep, str(p))
        got = json.loads(p.read_text())
        for pair, gpair in zip(rep["eigenpairs"], got["eigenpairs"]):
            assert gpair["alpha"] == pair["alpha"]
            assert gpair["beta"] == pair["beta"]
            assert gpair["eta_right"] == pair["eta_right"]

    def test_csv_companion(self, tmp_path):
        rep = self._report()
        write_report(rep, str(tmp_path / "r"), fmt="both")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("index,alpha_re,alpha_im,beta,class,eta_right")
        assert len(lines) == 1 + len(rep["eigenpairs"])

    @pytest.mark.parametrize("name", ["out/", "out/.json", "out/.csv"])
    def test_path_without_file_name_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="names no file"):
            write_report(self._report(), os.path.join(tmp_path, name), fmt="both")
        assert os.listdir(tmp_path) == []

    def test_empty_finite_spectrum_valid(self, tmp_path):
        from quarteig import build_report, solve_bundle

        # lambda^4 on one coordinate and constants elsewhere: no finite eigs
        b = scalar_bundle([1.0, 0.0, 0.0, 0.0, 0.0], name="deg")
        rep = build_report(solve_bundle(b))
        assert all(p["class"] != "finite" for p in rep["eigenpairs"])
        write_report(rep, str(tmp_path / "deg.json"))
        got = json.loads((tmp_path / "deg.json").read_text())
        assert got["summary"]["counts"]["finite"] == 0

    def test_mirror_report_counts(self, tmp_path):
        from quarteig import build_report, solve_bundle

        rep = build_report(solve_bundle(gen_mirror_like(0)))
        assert rep["deflation"]["zeros"] == 9
        assert rep["deflation"]["infinities"] == 9
        assert rep["summary"]["counts"] == {"zero": 9, "finite": 18, "infinite": 9}

    def test_atomic_and_deterministic(self, tmp_path):
        rep = self._report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(rep, str(p1))
        write_report(rep, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


# a deflated report under a non-ASCII name, one with --deflate off, a
# right-only one (eta_left null) and one with only A singular
REPORT_CASES = {
    "deflated": (lambda: gen_mirror_like(1, n=12).pencil, SolveConfig(), "spiegel-ähnlich λ"),
    "deflate_off": (lambda: gen_planted(6, 1, 1, seed=7).pencil, SolveConfig(deflate=False), "p"),
    "right_only": (lambda: gen_planted(6, 1, 1, seed=7).pencil, SolveConfig(want_left=False), "p"),
    "only_a": (lambda: gen_planted(6, 0, 2, seed=21).pencil, SolveConfig(), "only_a"),
}


def case_result(case):
    make, config, name = REPORT_CASES[case]
    return solve_pencil(make(), config, name=name)


def generic_text(rep):
    """The report through the generic encoders: json.dumps and csv.writer."""
    buf = io.StringIO()
    rows = ([p["index"], *p["alpha"], p["beta"], p["class"], *(p[e] for e in ERRORS)]
            for p in rep["eigenpairs"])
    csv.writer(buf, lineterminator="\n").writerows([CSV_COLUMNS, *rows])
    return json.dumps(rep, indent=1) + "\n", buf.getvalue()


class TestReportText:
    @pytest.mark.parametrize("case", list(REPORT_CASES))
    def test_equals_the_generic_encoders(self, case):
        rep = build_report(case_result(case))
        if case == "deflate_off":
            assert rep["deflation"] is None
        else:
            assert rep["deflation"]["steps"]
        if case == "right_only":
            assert all(p["eta_left"] is None for p in rep["eigenpairs"])
        if case == "only_a":
            assert [s["kind"] for s in rep["deflation"]["steps"]] == ["inf_block_1"]
        assert (report_json(rep), report_csv(rep)) == generic_text(rep)

    def test_special_values_equal_the_generic_encoders(self):
        # values no solve writes today: every float kind json.dumps spells
        # out, a null lambda on a pair that is not infinite, and escapes in
        # a method
        rep = build_report(case_result("deflated"))
        pairs = rep["eigenpairs"]
        pairs[0].update(alpha=[float("nan"), float("inf")], beta=float("-inf"))
        pairs[1].update(alpha=[-0.0, 5e-324], beta=1.7976931348623157e308, eta_right=None)
        pairs[2].update({"lambda": None, "method": 'q"\\\n\tä€'})
        assert (report_json(rep), report_csv(rep)) == generic_text(rep)

    def test_report_shares_nothing_with_the_result(self):
        res = case_result("deflated")
        steps = [dataclasses.asdict(s) for s in res.deflation.steps]
        rep = build_report(res)
        expected = copy.deepcopy(rep)
        assert rep["deflation"]["steps"] == steps
        step = rep["deflation"]["steps"][0]
        step["evidence"]["diag"][0] = -1.0
        step["evidence"]["diag"].append(2.0)
        step["evidence"]["tau"] = 0.5
        step["kind"] = "edited"
        rep["eigenpairs"][0]["alpha"][0] = 7.0
        assert [dataclasses.asdict(s) for s in res.deflation.steps] == steps
        assert build_report(res) == expected


class TestWriteFile:
    def _aged(self, path, data):
        """Writes data to path with an mtime far in the past."""
        path.write_bytes(data)
        os.utime(path, ns=(10**9, 10**9))
        return os.lstat(path)

    def test_identical_bytes_left_in_place(self, tmp_path, replace_calls):
        p = tmp_path / "r.json"
        old = self._aged(p, b"same bytes\n")
        write_file(p, b"same bytes\n")
        new = os.lstat(p)
        assert new.st_ino == old.st_ino
        assert new.st_mtime_ns > old.st_mtime_ns
        assert replace_calls == []
        assert os.listdir(tmp_path) == ["r.json"]

    @pytest.mark.parametrize("old", [b"abc", b"abd\n", b"", b"abc\nmore"])
    def test_changed_bytes_replaced(self, tmp_path, replace_calls, old):
        p = tmp_path / "r.json"
        self._aged(p, old)
        write_file(p, b"abc\n")
        assert p.read_bytes() == b"abc\n"
        assert replace_calls == [str(p)]
        assert os.listdir(tmp_path) == ["r.json"]

    def test_new_file_and_missing_directory(self, tmp_path):
        p = tmp_path / "a" / "b" / "r.csv"
        write_file(p, b"x\n")
        assert p.read_bytes() == b"x\n"
        assert os.listdir(p.parent) == ["r.csv"]

    def test_symlink_replaced_by_regular_file(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(b"data")
        link = tmp_path / "r.json"
        link.symlink_to(target)
        write_file(link, b"data")
        assert stat.S_ISREG(os.lstat(link).st_mode)
        assert link.read_bytes() == b"data"
        assert target.read_bytes() == b"data"
        assert sorted(os.listdir(tmp_path)) == ["r.json", "target.json"]

    def test_directory_target_raises(self, tmp_path):
        (tmp_path / "r.json").mkdir()
        with pytest.raises(OSError):
            write_file(tmp_path / "r.json", b"data")
        assert os.listdir(tmp_path) == ["r.json"]
        assert (tmp_path / "r.json").is_dir()

    def test_fifo_replaced_without_blocking(self, tmp_path):
        p = tmp_path / "r.json"
        os.mkfifo(p)
        t = threading.Thread(target=write_file, args=(p, b"data"), daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert stat.S_ISREG(os.lstat(p).st_mode)
        assert p.read_bytes() == b"data"

    def test_unreadable_file_replaced(self, tmp_path, monkeypatch, replace_calls):
        p = tmp_path / "r.json"
        self._aged(p, b"data")
        real_open = os.open

        def no_read(path, flags, *args, **kwargs):
            if not flags & os.O_CREAT:
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_read)
        write_file(p, b"data")
        assert p.read_bytes() == b"data"
        assert len(replace_calls) == 1
        assert os.listdir(tmp_path) == ["r.json"]

    def test_utime_failure_falls_back_to_replace(self, tmp_path, monkeypatch, replace_calls):
        p = tmp_path / "r.json"
        old = self._aged(p, b"data")

        def deny(*args, **kwargs):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "utime", deny)
        write_file(p, b"data")
        assert len(replace_calls) == 1
        assert os.lstat(p).st_ino != old.st_ino
        assert p.read_bytes() == b"data"
        assert os.listdir(tmp_path) == ["r.json"]

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_created_files_follow_umask(self, tmp_path, mask, mode):
        from quarteig.cli import main

        bundle = tmp_path / "b"
        saved = os.umask(mask)
        try:
            write_bundle(gen_mirror_like(0), bundle)
            assert main(["solve", str(bundle), "--output", str(tmp_path / "r" / "rep"),
                         "--format", "both"]) == 0
            assert main(["compare", str(bundle), "--config", "scale=on",
                         "--config", "scale=off", "--output-dir", str(tmp_path / "c")]) == 0
        finally:
            os.umask(saved)
        files = [e for d in ("b", "r", "c") for e in os.scandir(tmp_path / d)]
        assert len(files) == 5 + 2 + 3
        assert {stat.S_IMODE(e.stat().st_mode) for e in files} == {mode}

    def test_write_error_leaves_no_temp(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_file(tmp_path / "r.json", b"data")
        assert os.listdir(tmp_path) == []
