import json

import pytest

from quarteig import ProblemBundle, QuarticPencil, gen_mirror_like, write_bundle
from quarteig.cli import EXIT_BUNDLE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def unit_bundle(tmp_path):
    """lambda^4 = 1 scalar problem on disk."""
    mats = [[[1.0]], [[0.0]], [[0.0]], [[0.0]], [[-1.0]]]
    b = ProblemBundle(name="unit", pencil=QuarticPencil.from_matrices(*mats))
    p = tmp_path / "unit"
    write_bundle(b, p)
    return p


@pytest.fixture
def mirror_bundle(tmp_path):
    p = tmp_path / "mirror"
    write_bundle(gen_mirror_like(0), p)
    return p


class TestSolveCommand:
    def test_scalar_unit_roots(self, unit_bundle, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["solve", str(unit_bundle), "--output", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["n"] == 1
        lams = [complex(*p["lambda"]) for p in rep["eigenpairs"]]
        from oracles import match_values

        match_values(lams, [1.0, -1.0, 1.0j, -1.0j], 1e-12)
        assert all(p["eta_right"] <= 1e-14 for p in rep["eigenpairs"])

    def test_mirror_deflation_counts(self, mirror_bundle, tmp_path):
        out = tmp_path / "m.json"
        code = main(["solve", str(mirror_bundle), "--output", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["deflation"]["zeros"] == 9
        assert rep["deflation"]["infinities"] == 9

    def test_deflate_off_passthrough(self, mirror_bundle, tmp_path):
        out = tmp_path / "m2.json"
        code = main(["solve", str(mirror_bundle), "--deflate", "off", "--output", str(out)])
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["deflation"] is None
        assert rep["config"]["deflate"] is False
        assert len(rep["eigenpairs"]) == 36

    def test_nonfinite_entry_is_bundle_error(self, unit_bundle, tmp_path, capsys):
        (unit_bundle / "C.mtx").write_text("%%MatrixMarket matrix array real general\n1 1\nnan\n")
        for argv in (
            ["solve", str(unit_bundle)],
            ["compare", str(unit_bundle), "--config", "scale=on",
             "--config", "scale=off", "--output-dir", str(tmp_path / "cmp")],
        ):
            assert main(argv) == EXIT_BUNDLE
            err = json.loads(capsys.readouterr().out)["error"]
            assert err["type"] == "MalformedMatrixError"
            assert "C" in err["message"]

    def test_singular_quartic_deflate_off_numerical_error(self, tmp_path, capsys):
        import numpy as np
        from oracles import singular_quartic

        p = tmp_path / "singular"
        write_bundle(ProblemBundle(name="singular",
                                   pencil=singular_quartic(np.random.default_rng(61))), p)
        code = main(["solve", str(p), "--deflate", "off"])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_NUMERICAL
        assert err["type"] == "GevpError"
        assert "singular" in err["message"]

    def test_missing_bundle_exit_code(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope")])
        assert code == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == EXIT_BUNDLE

    def test_stdout_report(self, unit_bundle, capsys):
        code = main(["solve", str(unit_bundle)])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["problem"] == "unit"

    def test_byte_identical_reruns(self, unit_bundle, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["solve", str(unit_bundle), "--output", str(out1)]) == EXIT_OK
        assert main(["solve", str(unit_bundle), "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, unit_bundle, tmp_path):
        out = tmp_path / "r"
        code = main(
            ["solve", str(unit_bundle), "--output", str(out), "--format", "both"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.csv").exists()

    def test_flag_parsing(self, unit_bundle, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "solve",
                str(unit_bundle),
                "--scale", "off",
                "--balance", "off",
                "--rank-strategy", "dropoff",
                "--tol", "1e-10",
                "--eigvec-mode", "least_squares",
                "--right-only",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["config"]["scale"] is False
        assert rep["config"]["rank_strategy"] == "dropoff"
        assert all(p["eta_left"] is None for p in rep["eigenpairs"])

    def test_bad_tol_usage_error(self, unit_bundle, capsys):
        code = main(["solve", str(unit_bundle), "--tol", "2.0"])
        assert code == EXIT_USAGE

    def test_threads_env_fallback(self, unit_bundle, tmp_path, monkeypatch):
        monkeypatch.setenv("QUARTEIG_THREADS", "3")
        out = tmp_path / "r.json"
        assert main(["solve", str(unit_bundle), "--output", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["meta"]["threads"] == 3


class TestCompareCommand:
    def test_identical_configs_identical_columns(self, unit_bundle, tmp_path):
        outd = tmp_path / "cmp"
        code = main(
            [
                "compare", str(unit_bundle),
                "--config", "scale=on,balance=on",
                "--config", "scale=on,balance=on",
                "--output-dir", str(outd),
            ]
        )
        assert code == EXIT_OK
        import csv as csvmod

        with open(outd / "unit_compare.csv", newline="") as fh:
            rows = list(csvmod.reader(fh))
        header = rows[0]
        assert header[0] == "index"
        ncols = (len(header) - 1) // 2
        for cells in rows[1:]:
            assert cells[1 : 1 + ncols] == cells[1 + ncols : 1 + 2 * ncols]

    def test_single_config_usage_error(self, unit_bundle, capsys):
        code = main(
            ["compare", str(unit_bundle), "--config", "scale=on"]
        )
        assert code == EXIT_USAGE

    def test_balanced_vs_unbalanced_columns(self, tmp_path):
        from quarteig import gen_planted, grade_rows

        b = grade_rows(gen_planted(4, 0, 0, seed=1), seed=2)
        p = tmp_path / "graded"
        write_bundle(b, p)
        outd = tmp_path / "out"
        code = main(
            [
                "compare", str(p),
                "--config", "balance=on",
                "--config", "balance=off",
                "--output-dir", str(outd),
            ]
        )
        assert code == EXIT_OK
        # the on-disk bundle is named after its directory
        lines = (outd / "graded_compare.csv").read_text().splitlines()
        assert len(lines) == 1 + 16
        assert (outd / "graded_cfg0.json").exists()
        assert (outd / "graded_cfg1.json").exists()

    def test_bad_onoff_value_usage_error(self, unit_bundle, tmp_path):
        code = main(
            [
                "compare", str(unit_bundle),
                "--config", "scale=maybe,deflate=yes",
                "--config", "scale=on",
                "--output-dir", str(tmp_path / "cmp"),
            ]
        )
        assert code == EXIT_USAGE

    def test_unknown_config_key(self, unit_bundle):
        code = main(
            [
                "compare", str(unit_bundle),
                "--config", "bogus=1",
                "--config", "scale=on",
            ]
        )
        assert code == EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
