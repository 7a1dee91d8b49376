"""Closed-loop runner behind ``run.py``: runs a workload, checks, reports.

One process and one client: the next problem starts only after the previous
one's report is done. Every output is verified by ``checks.py`` outside the
timed region. The loop runs whole cycles of the workload's problem list
until ``--seconds`` have passed, so every run sees the same mix.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` solves each
problem twice, once plain and once with ``tracer.py``'s wrappers installed
(alternating which goes first), prints the per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import quarteig
import quarteig.cli
from checks import check_report, check_solution
from tracer import Tracer
from workloads import CONFIGS, WORKLOADS, make_problem, write_bundle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# a run still going after this long stops mid-cycle, so that it always ends
# well inside the three minutes a run may take
HARD_STOP_S = 140.0


def blas_runtime_threads():
    """Thread count reported by each loaded OpenBLAS, read through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in libs if ".so" in p):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(nproc, thread_vars):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "quarteig": quarteig.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ[v] for v in thread_vars},
        "blas_threads_runtime": blas_runtime_threads(),
        # accepted by the package but inert: evaluation is serial
        "QUARTEIG_THREADS": os.environ.get("QUARTEIG_THREADS"),
        "SolveConfig.threads": quarteig.SolveConfig().threads,
    }


def measure_setup(bundle=None, out=None):
    """Median over fresh interpreters of import plus one warm-up solve."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT)]
    if bundle is not None:
        cmd += [str(bundle), str(out)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["exit_code"] != 0:
            print(f"# warning: the setup probe's warm-up exited with {probe['exit_code']}")
        times.append(probe["setup_s"])
    return statistics.median(times), times


def _plain(_name, fn, /, *args, **kwargs):
    return fn(*args, **kwargs)


class Runner:
    """Solves one problem through the workload's entry point and checks it."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.bundles = {}

    def bundle_dir(self, problem):
        """Directory of the problem's bundle, written on first use."""
        if problem.pid not in self.bundles:
            path = self.workdir / "bundles" / problem.pid
            write_bundle(problem, path)
            self.bundles[problem.pid] = path
        return self.bundles[problem.pid]

    def solve(self, problem, tracer=None):
        """Returns (latency in seconds, list of failure reasons)."""
        call = tracer.span if tracer is not None else _plain
        if self.workload.on_disk:
            return self._solve_bundle(problem, call)
        return self._solve_memory(problem, call)

    def _solve_memory(self, problem, call):
        config = quarteig.SolveConfig(**CONFIGS[problem.config]["kwargs"])
        t0 = time.perf_counter()
        try:
            pencil = quarteig.QuarticPencil.from_matrices(*problem.coeffs)
            res = call("solver.solve", quarteig.solve_pencil, pencil, config, name=problem.pid)
            call("solver.build_report", quarteig.build_report, res)
        except Exception:  # the loop must go on; the problem counts as failed
            return time.perf_counter() - t0, [traceback.format_exc(limit=2)]
        latency = time.perf_counter() - t0
        sol = res.solution
        return latency, check_solution(problem, sol.eigs, sol.right, sol.left,
                                       want_left=problem.want_left)

    def _solve_bundle(self, problem, call):
        bundle = self.bundle_dir(problem)
        base = self.workdir / "reports" / problem.pid
        json_path, csv_path = base.with_suffix(".json"), base.with_suffix(".csv")
        for stale in (json_path, csv_path):
            stale.unlink(missing_ok=True)
        argv = ["solve", str(bundle), "--output", str(json_path), "--format", "both",
                *CONFIGS[problem.config]["flags"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = call("cli.main", quarteig.cli.main, argv)
            except Exception:  # the loop must go on; the problem counts as failed
                return time.perf_counter() - t0, [traceback.format_exc(limit=2)]
            latency = time.perf_counter() - t0
        fails = check_report(problem, code, json_path, csv_path)
        if fails and sink.getvalue():
            fails.append(sink.getvalue().strip()[-500:])
        return latency, fails


class Loop:
    """Closed loop over whole cycles of a workload's problems."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.failures = []
        self.attempted = 0

    def problems(self):
        cycle = len(self.workload.cycle)
        start = time.perf_counter()
        i = 0
        while True:
            # the bundle pool is read from disk again each cycle; the
            # in-memory workloads get fresh matrices for every problem
            index = i % cycle if self.workload.on_disk else i
            yield i, make_problem(self.workload, self.seed, index)
            i += 1
            elapsed = time.perf_counter() - start
            if i % cycle == 0 and elapsed >= self.seconds:
                return
            if elapsed >= HARD_STOP_S:
                print(f"# warning: stopped after {i} problems, mid-cycle", flush=True)
                return

    def record(self, problem, fails):
        self.attempted += 1
        if fails:
            self.failures.append((problem.pid, fails))


def run_plain(runner, loop):
    latencies, pairs = [], 0
    for _, problem in loop.problems():
        latency, fails = runner.solve(problem)
        latencies.append(latency)
        loop.record(problem, fails)
        if not fails:
            pairs += 4 * problem.n
    return latencies, pairs


def run_traced(runner, loop, tracer):
    """Plain and traced solve of every problem; returns (traced problems,
    tracing overhead, exact counts of each completed cycle)."""
    plain_s = traced_s = 0.0
    traced = 0
    cycle = len(loop.workload.cycle)
    snapshots, last = [], tracer.exact_counts()
    for i, problem in loop.problems():
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.problem = problem.pid
                tracer.install()
                try:
                    latency, fails = runner.solve(problem, tracer)
                finally:
                    tracer.uninstall()
                traced_s += latency
                traced += 1
            else:
                latency, fails = runner.solve(problem)
                plain_s += latency
            loop.record(problem, fails)
        if (i + 1) % cycle == 0:
            now = tracer.exact_counts()
            snapshots.append(tuple(b - a for a, b in zip(last, now)))
            last = now
    return traced, traced_s / plain_s - 1.0, snapshots


def layer_split(tracer, problems):
    """Self time per span name, largest first, as printable lines."""
    st = tracer.self_times()
    total = sum(st.values())
    return [f"#   {name:32s} {secs / problems:10.5f} s/problem  {secs / total:6.1%}"
            for name, secs in st.most_common(12)]


def emit(metrics, attempted, failures):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = len(failures)
    print(f"fail_frac {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    for pid, fails in failures[:5]:
        print(f"# FAILED {pid}: {' | '.join(str(f) for f in fails)[:400]}")
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(args, nproc, thread_vars):
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(nproc, thread_vars)
    print(f"# env {json.dumps(env)}")

    workdir = OUT / f"work-{os.getpid()}"
    try:
        runner = Runner(workload, workdir)
        first = make_problem(workload, args.seed, 0)
        probe = ((runner.bundle_dir(first), workdir / "probe" / "report.json")
                 if workload.on_disk else (None, None))
        setup_s, probes = measure_setup(*probe)
        print(f"# setup probes {', '.join(f'{t:.4f}' for t in probes)} s")
        # warm-up in this process: lazy imports and first-call costs
        if runner.solve(first)[1]:
            print("# warning: the warm-up solve failed its checks")

        loop = Loop(workload, args.seed, args.seconds)
        t0 = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            traced, overhead, snapshots = run_traced(runner, loop, tracer)
            metrics = tracer.metrics(traced)
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            same = all(s == snapshots[0] for s in snapshots)
            print(f"# {traced} traced problems in {time.perf_counter() - t0:.1f} s; exact "
                  f"counts {'identical' if same else 'DIFFER'} across {len(snapshots)} cycles")
            print("# self time by span:")
            print("\n".join(layer_split(tracer, traced)))
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.dump(spans, {"workload": workload.name, "seed": args.seed, "env": env})
            print(f"# spans written to {spans.relative_to(ROOT)}")
        else:
            latencies, pairs = run_plain(runner, loop)
            level = workload.tail_level
            tail = float(np.percentile(latencies, level))
            beyond = sum(1 for t in latencies if t > tail)
            print(f"# {len(latencies)} problems in {time.perf_counter() - t0:.1f} s; "
                  f"solve_tail_s is p{level:g} with {beyond} samples beyond it")
            metrics = {
                "setup_s": (setup_s, "s"),
                "solve_p50_s": (statistics.median(latencies), "s"),
                "solve_tail_s": (tail, "s"),
                "pairs_per_s": (pairs / sum(latencies), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
        emit(metrics, loop.attempted, loop.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
