"""Tests of the benchmark's own generators, output checks and tracer.

Run with ``python -m pytest bench``; each test uses problems small enough to
solve in milliseconds.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import quarteig as qe  # noqa: E402
import quarteig.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SMALL = workloads.Workload(
    "test_small",
    (
        workloads.Spec("regular", (5,)),
        workloads.Spec("planted", (6, 2, 1)),
        workloads.Spec("mirror", (7, 2, 2)),
        workloads.Spec("jordan", (6, 3)),
        workloads.Spec("planted", (6, 1, 2, True), "deflate_off"),
    ),
    tail_level=90.0,
)


def _solve(problem):
    config = qe.SolveConfig(**workloads.CONFIGS[problem.config]["kwargs"])
    res = qe.solve_pencil(qe.QuarticPencil.from_matrices(*problem.coeffs), config)
    return res.solution


def _check(problem, sol):
    return checks.check_solution(problem, sol.eigs, sol.right, sol.left, problem.want_left)


@pytest.fixture(scope="module")
def solved():
    probs = [workloads.make_problem(SMALL, 3, i) for i in range(len(SMALL.cycle))]
    return [(p, _solve(p)) for p in probs]


def test_inputs_are_a_function_of_the_seed():
    a = workloads.make_problem(SMALL, 7, 2)
    b = workloads.make_problem(SMALL, 7, 2)
    c = workloads.make_problem(SMALL, 8, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))
    assert not np.array_equal(a.coeffs[0], c.coeffs[0])


def test_constructed_counts_hold(solved):
    for problem, sol in solved:
        assert _check(problem, sol) == [], problem.pid


def test_corrupted_right_eigenvector_fails(solved):
    problem, sol = solved[0]
    bad = copy.deepcopy(sol)
    bad.right[3] = bad.right[3] + 1e-4 * np.ones(problem.n)
    fails = _check(problem, bad)
    assert any("right backward error" in f for f in fails)


def test_corrupted_left_eigenvector_fails(solved):
    problem, sol = solved[2]
    bad = copy.deepcopy(sol)
    bad.left[0] = np.roll(bad.left[0], 1)
    assert any("left backward error" in f for f in _check(problem, bad))


def test_dropped_pair_fails(solved):
    for problem, sol in solved:
        bad = copy.deepcopy(sol)
        for seq in (bad.eigs, bad.right, bad.left):
            del seq[-1]
        assert _check(problem, bad), problem.pid


def test_pair_returned_twice_fails(solved):
    problem, sol = solved[0]
    bad = copy.deepcopy(sol)
    for seq in (bad.eigs, bad.right, bad.left):
        seq[1] = seq[0]
    assert any("repeated" in f for f in _check(problem, bad))


def test_wrong_label_fails_when_deflation_ran(solved):
    problem, sol = solved[1]
    bad = copy.deepcopy(sol)
    j = next(j for j, e in enumerate(bad.eigs) if e.cls == "finite")
    bad.eigs[j] = type(bad.eigs[j])(alpha=bad.eigs[j].alpha, beta=bad.eigs[j].beta,
                                     cls="infinite")
    assert any("labelled" in f for f in _check(problem, bad))


def test_missing_vector_fails(solved):
    problem, sol = solved[1]
    bad = copy.deepcopy(sol)
    bad.left[5] = None
    assert any("missing" in f for f in _check(problem, bad))


def _write_report(tmp_path, problem):
    bundle = tmp_path / "bundle"
    workloads.write_bundle(problem, bundle)
    out = tmp_path / "report.json"
    argv = ["solve", str(bundle), "--output", str(out), "--format", "both",
            *workloads.CONFIGS[problem.config]["flags"]]
    return quarteig.cli.main(argv), out, tmp_path / "report.csv"


@pytest.mark.parametrize("index", range(len(workloads.WORKLOADS["small_batch"].cycle)))
def test_small_batch_reports_pass(tmp_path, index):
    problem = workloads.make_problem(workloads.WORKLOADS["small_batch"], 5, index)
    code, json_path, csv_path = _write_report(tmp_path, problem)
    assert checks.check_report(problem, code, json_path, csv_path) == []


def test_report_defects_fail(tmp_path):
    problem = workloads.make_problem(SMALL, 4, 2)
    code, json_path, csv_path = _write_report(tmp_path, problem)
    assert checks.check_report(problem, code, json_path, csv_path) == []
    assert checks.check_report(problem, 4, json_path, csv_path) == ["exit code 4"]
    report = json.loads(json_path.read_text())

    dropped = copy.deepcopy(report)
    dropped["eigenpairs"].pop()
    json_path.write_text(json.dumps(dropped))
    assert checks.check_report(problem, 0, json_path, csv_path)

    moved = copy.deepcopy(report)
    pair = next(p for p in moved["eigenpairs"] if p["class"] == "finite")
    pair["alpha"][0] += 1e-3
    json_path.write_text(json.dumps(moved))
    fails = checks.check_report(problem, 0, json_path, csv_path)
    assert any("no eigenvalue" in f for f in fails)

    csv_path.unlink()
    assert checks.check_report(problem, 0, json_path, csv_path)


def _traced_counts(seed):
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(len(SMALL.cycle)):
            problem = workloads.make_problem(SMALL, seed, i)
            tracer.problem = problem.pid
            assert _check(problem, _solve(problem)) == []
    finally:
        tracer.uninstall()
    return tracer


def test_exact_counts_repeat_for_a_seed():
    first, second = _traced_counts(11), _traced_counts(11)
    assert first.exact_counts() == second.exact_counts()
    assert first.exact_counts()[0] > 0  # QZ ran
    m1, m2 = first.metrics(5), second.metrics(5)
    for key in ("gevp.m3_sum", "deflate.rrqr_calls", "deflate.urv_calls",
                "deflate.deflated_frac", "eigvec.lift_left_calls"):
        assert m1[key] == m2[key], key


def test_uninstall_restores_every_target():
    import importlib

    before = [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]
    assert all(x is y for x, y in zip(before, after))


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["solver.solve", 0.0, 10.0, None, "p"],
        ["gevp.solve_gevp", 1.0, 5.0, 0, "p"],
        ["eigvec.lift_left", 6.0, 9.0, 0, "p"],
        ["deflate.rrqr", 7.0, 8.0, 2, "p"],
    ]
    st = tracer.self_times()
    assert st["solver.solve"] == pytest.approx(3.0)
    assert st["gevp.solve_gevp"] == pytest.approx(4.0)
    assert st["eigvec.lift_left"] == pytest.approx(2.0)
    assert st["deflate.rrqr"] == pytest.approx(1.0)


def test_errors_are_counted_per_layer():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("eigvec.lift_left", boom)
    assert tracer.metrics(1)["eigvec.errors"][0] == 1.0
