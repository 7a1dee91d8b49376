import csv
import json
import os

import numpy as np
import pytest

from quarteig import ProblemBundle, QuarticPencil, write_bundle
from quarteig.cli import EXIT_BUNDLE, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from problems import gen_mirror_like, gen_planted


def inodes(directory):
    return {e.name: e.stat().st_ino for e in os.scandir(directory)}


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

    def test_extreme_coefficient_scale(self, tmp_path):
        # squares of entries near 1e160 overflow a plain Frobenius norm; the
        # parameter scaling must still find gamma and theta
        rng = np.random.default_rng(8)
        mats = [1e160 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                for _ in range(5)]
        bundle = tmp_path / "huge"
        write_bundle(ProblemBundle(name="huge", pencil=QuarticPencil.from_matrices(*mats)), bundle)
        out = tmp_path / "h.json"
        assert main(["solve", str(bundle), "--output", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["summary"]["counts"] == {"zero": 0, "finite": 16, "infinite": 0}
        assert all(0.0 < p["eta_right"] <= 1e-14 for p in rep["eigenpairs"])

    @pytest.mark.parametrize("case", [0, 1, 3])
    def test_norms_too_far_apart_are_numerical_error(self, tmp_path, capsys, case):
        from support import far_apart_norms

        p = tmp_path / "far"
        write_bundle(ProblemBundle(name="far", pencil=far_apart_norms(case)), p)
        assert main(["solve", str(p)]) == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_NUMERICAL and err["type"] == "ScalingError"
        assert "||E||_F/||A||_F" in err["message"]

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

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"])
    def test_malformed_expected_json_is_bundle_error(self, unit_bundle, capsys, content):
        (unit_bundle / "expected.json").write_bytes(content)
        assert main(["solve", str(unit_bundle)]) == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE
        assert err["type"] == "BundleError"
        assert "expected.json" in err["message"]

    def test_empty_coefficients_are_bundle_error(self, tmp_path, capsys):
        import numpy as np
        from scipy.io import mmwrite

        p = tmp_path / "empty"
        p.mkdir()
        for name in "ABCDE":
            mmwrite(str(p / f"{name}.mtx"), np.zeros((0, 0)))
        assert main(["solve", str(p)]) == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE
        assert err["type"] == "DimensionMismatchError"
        assert "at least 1x1" in err["message"]

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

    def test_rerun_replaces_nothing(self, mirror_bundle, tmp_path, replace_calls):
        outd = tmp_path / "out"
        argv = ["solve", str(mirror_bundle), "--output", str(outd / "r.json"),
                "--format", "both"]
        assert main(argv) == EXIT_OK
        first = inodes(outd)
        assert sorted(first) == ["r.csv", "r.json"] and len(replace_calls) == 2
        for path in outd.iterdir():
            os.utime(path, ns=(10**9, 10**9))
        assert main(argv) == EXIT_OK
        assert inodes(outd) == first
        assert len(replace_calls) == 2
        assert all(p.stat().st_mtime_ns > 10**9 for p in outd.iterdir())
        # another config changes both files, so both are replaced
        assert main([*argv, "--scale", "off"]) == EXIT_OK
        assert sorted(replace_calls[2:]) == [str(outd / "r.csv"), str(outd / "r.json")]
        assert sorted(inodes(outd)) == ["r.csv", "r.json"]

    def test_output_directory_is_io_error(self, unit_bundle, tmp_path, capsys):
        (tmp_path / "r.json").mkdir()
        assert main(["solve", str(unit_bundle), "--output", str(tmp_path / "r.json")]) == EXIT_IO
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_IO and err["type"] == "io"
        assert sorted(os.listdir(tmp_path)) == ["r.json", "unit"]

    def test_io_error_object_is_reproducible(self, unit_bundle, tmp_path, capsys):
        target = tmp_path / "r.json"
        target.mkdir()
        outs = []
        for _ in range(2):
            assert main(["solve", str(unit_bundle), "--output", str(target)]) == EXIT_IO
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        err = json.loads(outs[0])["error"]
        assert err["message"] == f"[Errno 21] Is a directory: {str(target)!r}"

    def test_expected_json_directory_is_bundle_error(self, unit_bundle, capsys):
        (unit_bundle / "expected.json").mkdir()
        assert main(["solve", str(unit_bundle)]) == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE
        assert err["type"] == "BundleError"
        assert "expected.json" in err["message"]

    def test_csv_format(self, unit_bundle, tmp_path):
        out = tmp_path / "r"
        code = main(
            ["solve", str(unit_bundle), "--output", str(out), "--format", "both"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_follows_format(self, mirror_bundle, tmp_path, capsys, fmt):
        argv = ["solve", str(mirror_bundle), "--format", fmt]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert main([*argv, "--output", str(tmp_path / "r")]) == EXIT_OK
        assert out.encode("utf-8") == (tmp_path / f"r.{fmt}").read_bytes()

    def test_format_both_without_output_is_usage_error(self, tmp_path, capsys):
        # a usage error comes before the bundle is read, so a missing bundle is not reported
        assert main(["solve", str(tmp_path / "nope"), "--format", "both"]) == EXIT_USAGE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_USAGE and err["type"] == "usage"
        assert "--output" in err["message"]

    @pytest.mark.parametrize("output, fmt", [("out/", "json"), ("out/.json", "json"),
                                             ("out/.csv", "both"), (".", "json"),
                                             ("out/..", "csv")])
    def test_output_without_file_name_is_usage_error(self, tmp_path, capsys, output, fmt):
        # checked before the bundle is read, so a missing bundle is not reported
        argv = ["solve", str(tmp_path / "nope"), "--output", os.path.join(tmp_path, output),
                "--format", fmt]
        assert main(argv) == EXIT_USAGE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_USAGE and err["type"] == "usage"
        assert "names no file" in err["message"]
        assert os.listdir(tmp_path) == []

    def test_csv_rows_equal_the_json_pairs(self, mirror_bundle, tmp_path):
        out = tmp_path / "r"
        argv = ["solve", str(mirror_bundle), "--right-only", "--format", "both", "--output"]
        assert main([*argv, str(out)]) == EXIT_OK
        pairs = json.loads((tmp_path / "r.json").read_text())["eigenpairs"]
        with open(tmp_path / "r.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["index", "alpha_re", "alpha_im", "beta", "class",
                          "eta_right", "eta_left", "omega_right", "omega_left"]
        assert len(rows) == len(pairs)
        for row, pair in zip(rows, pairs):
            want = [pair["index"], *pair["alpha"], pair["beta"], pair["class"],
                    pair["eta_right"], pair["eta_left"], pair["omega_right"], pair["omega_left"]]
            got = [int(row[0]), *(float(c) if c else None for c in row[1:4]), row[4],
                   *(float(c) if c else None for c in row[5:])]
            assert got == want
        # right-only: no left errors; infinite pairs: no omega_right either
        assert all(row[6] == row[8] == "" for row in rows)
        assert any(row[4] == "infinite" and row[7] == "" for row in rows)

    def test_flag_parsing(self, unit_bundle, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "solve",
                str(unit_bundle),
                "--scale", "off",
                "--balance", "off",
                "--tol", "1e-10",
                "--eigvec-mode", "least_squares",
                "--right-only",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["config"]["scale"] is False
        assert rep["config"]["tol"] == 1e-10
        assert all(p["eta_left"] is None for p in rep["eigenpairs"])

    def test_right_only_deflated_pairs_have_no_left_fields(self, mirror_bundle, tmp_path):
        out = tmp_path / "r.json"
        assert main(["solve", str(mirror_bundle), "--right-only", "--output", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["deflation"]["zeros"] == 9 and rep["deflation"]["infinities"] == 9
        assert any(p["method"] == "deflated_nullspace" for p in rep["eigenpairs"])
        assert all(p["eta_left"] is None and p["omega_left"] is None for p in rep["eigenpairs"])
        assert all(p["eta_right"] is not None for p in rep["eigenpairs"])

    def test_bad_tol_usage_error(self, unit_bundle, capsys):
        code = main(["solve", str(unit_bundle), "--tol", "2.0"])
        assert code == EXIT_USAGE


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

    def test_threads_reach_every_config(self, unit_bundle, tmp_path):
        outd = tmp_path / "cmp"
        code = main(
            [
                "compare", str(unit_bundle), "--threads", "2",
                "--config", "scale=on",
                "--config", "scale=off",
                "--output-dir", str(outd),
            ]
        )
        assert code == EXIT_OK
        for k in (0, 1):
            rep = json.loads((outd / f"unit_cfg{k}.json").read_text())
            assert rep["meta"]["threads"] == 2

    def test_rerun_leaves_every_file_in_place(self, unit_bundle, tmp_path, replace_calls):
        outd = tmp_path / "cmp"
        argv = ["compare", str(unit_bundle), "--config", "scale=on", "--config", "scale=off",
                "--output-dir", str(outd)]
        assert main(argv) == EXIT_OK
        first = inodes(outd)
        assert sorted(first) == ["unit_cfg0.json", "unit_cfg1.json", "unit_compare.csv"]
        assert len(replace_calls) == 3
        assert main(argv) == EXIT_OK
        assert inodes(outd) == first
        assert len(replace_calls) == 3

    def test_labels_name_every_option(self, unit_bundle, tmp_path):
        from quarteig.solver import OPTIONS

        outd = tmp_path / "cmp"
        assert main(["compare", str(unit_bundle), "--config", "eigvec_mode=min_residual",
                     "--config", "eigvec_mode=least_squares", "--output-dir", str(outd)]) == EXIT_OK
        with open(outd / "unit_compare.csv", newline="") as fh:
            header = next(csv.reader(fh))
        cfg0, cfg1 = sorted({col.split(":")[0] for col in header[1:]})
        # the labels differ beyond their cfgK prefix
        assert cfg0.split("[", 1)[1] != cfg1.split("[", 1)[1]
        assert "eigvec_mode=least_squares" in cfg1
        for name in OPTIONS:
            assert f"{name}=" in cfg0
        assert "scale=on" in cfg0

    def test_repeated_calls_keep_their_own_arguments(self, unit_bundle, tmp_path):
        for k, specs in enumerate((["scale=on", "scale=off"], ["balance=on", "balance=off"])):
            outd = tmp_path / f"cmp{k}"
            argv = ["compare", str(unit_bundle), "--output-dir", str(outd)]
            for spec in specs:
                argv += ["--config", spec]
            assert main(argv) == EXIT_OK
            with open(outd / "unit_compare.csv", newline="") as fh:
                header = next(csv.reader(fh))
            labels = sorted({col.split(":")[0] for col in header[1:]})
            assert len(labels) == 2
            assert sorted(os.listdir(outd)) == ["unit_cfg0.json", "unit_cfg1.json",
                                                "unit_compare.csv"]
            for j, spec in enumerate(specs):
                key, val = spec.split("=")
                rep = json.loads((outd / f"unit_cfg{j}.json").read_text())
                assert rep["config"][key] is (val == "on")
        out = tmp_path / "r.json"
        assert main(["solve", str(unit_bundle), "--output", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        assert config["scale"] is True and config["balance"] is True
        assert config["deflate"] is True and config["tol"] is None

    def test_single_config_usage_error(self, unit_bundle, capsys):
        code = main(
            ["compare", str(unit_bundle), "--config", "scale=on"]
        )
        assert code == EXIT_USAGE

    def test_balanced_vs_unbalanced_columns(self, tmp_path):
        from problems import gen_planted, grade_rows

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

    def test_missing_bundle_exit_code(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "nope"), "--config", "scale=on",
                     "--config", "scale=off", "--output-dir", str(tmp_path / "cmp")])
        assert code == EXIT_BUNDLE
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_BUNDLE and err["type"] == "MissingCoefficientError"
        assert not (tmp_path / "cmp").exists()

    def test_singular_quartic_deflate_off_numerical_error(self, tmp_path, capsys):
        from oracles import singular_quartic

        p = tmp_path / "singular"
        write_bundle(ProblemBundle(name="singular",
                                   pencil=singular_quartic(np.random.default_rng(61))), p)
        code = main(["compare", str(p), "--config", "deflate=off", "--config", "deflate=on",
                     "--output-dir", str(tmp_path / "cmp")])
        assert code == EXIT_NUMERICAL
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_NUMERICAL and err["type"] == "GevpError"
        assert "singular" in err["message"]
        assert not (tmp_path / "cmp").exists()

    def test_output_dir_is_file_io_error(self, unit_bundle, tmp_path, capsys):
        target = tmp_path / "cmp"
        target.write_text("")
        code = main(["compare", str(unit_bundle), "--config", "scale=on",
                     "--config", "scale=off", "--output-dir", str(target)])
        assert code == EXIT_IO
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == EXIT_IO and err["type"] == "io"
        assert target.read_text() == ""

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

    @pytest.mark.parametrize("argv,named", [
        (["solve", "B", "--rank-strategy", "norm"], "--rank-strategy"),  # a deleted option
        (["solve", "B", "--no-such-option"], "--no-such-option"),
        (["solve"], "bundle"),
        (["compare", "--config", "scale=on"], "bundle"),
        (["solve", "B", "--eigvec-mode", "x"], "--eigvec-mode"),
    ])
    def test_argparse_errors_print_the_json_error_object(self, capsys, argv, named):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        err = json.loads(captured.out)["error"]
        assert err["code"] == EXIT_USAGE and err["type"] == "usage"
        assert named in err["message"]
        assert captured.err.startswith("usage: quarteig")  # argparse's text stays on stderr

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_help_prints_no_error_object(self, capsys, command):
        assert main([command, "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: quarteig {command} [-h]")


class TestWithoutScipy:
    """The command line runs where scipy cannot be imported, with the same bytes."""

    @pytest.mark.parametrize("make", [lambda: gen_planted(9, 3, 2, seed=90),
                                      lambda: gen_mirror_like(1)], ids=["planted", "mirror"])
    def test_solve_bytes_equal_in_process_run(self, tmp_path, make):
        import subprocess
        import sys

        import quarteig

        bundle = tmp_path / "b"
        write_bundle(make(), bundle)
        argv = ["solve", str(bundle), "--format", "both", "--output"]
        assert main([*argv, str(tmp_path / "in.json")]) == EXIT_OK
        assert "scipy.linalg" in sys.modules  # the in-process run had scipy loaded
        src = os.path.dirname(os.path.dirname(os.path.abspath(quarteig.__file__)))
        code = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]);"
                "import quarteig.cli; sys.exit(quarteig.cli.main(sys.argv[2:]))")
        run = subprocess.run([sys.executable, "-c", code, src, *argv, str(tmp_path / "sub.json")],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_OK, run.stdout + run.stderr
        for ext in (".json", ".csv"):
            assert (tmp_path / f"sub{ext}").read_bytes() == (tmp_path / f"in{ext}").read_bytes()
