"""SHA-256 digests of the report JSON and CSV of a fixed set of solves.

    PYTHONPATH=src python tools/report_digests.py [--seeds 3 4] [--strip KEY [KEY ...]]

Prints one line ``key sha256`` per problem: for each seed, problems 0-7 of
the ``regular_dense`` and ``singular_deflate`` benchmark workloads and 0-59
of ``small_batch`` (``bench/workloads.make_problem``, each in its
workload's solve configuration), then the Orr-Sommerfeld quartic
(``tests/support.orr_sommerfeld``), clamped and bordered at N = 32 and 48,
with deflation on and off. Every problem is solved in memory by
``solve_pencil`` and reported by ``build_report``; the digest is taken of
``probio.report_json`` followed by ``probio.report_csv``, the bytes that
``quarteig solve --format both`` writes to its two files.

The problems come from this checkout's ``bench/`` and ``tests/``; the
solver is the ``quarteig`` that Python imports, so ``PYTHONPATH`` picks the
source tree under test. A change meant to keep every report byte-identical
is checked against its parent commit by::

    mkdir ../parent && git archive PARENT | tar -x -C ../parent
    PYTHONPATH=../parent/src python tools/report_digests.py > parent.txt
    PYTHONPATH=src python tools/report_digests.py > change.txt
    diff parent.txt change.txt

and the report's independence of the process by running it twice under
different ``PYTHONHASHSEED`` values and comparing the outputs with ``cmp``.

A change meant to alter only some keys of each eigenpair (a new key, or a
recomputed error) or of the report's ``config`` block (a removed option) is
checked the same way with those keys stripped: with ``--strip KEY ...``
each named key is removed from every eigenpair, from ``summary`` and from
``config``, and each CSV column of that name from the CSV, before the
report is hashed, so both runs take, say, ``--strip eta_left omega_left``
or ``--strip tol``. The stripped JSON is written by ``json.dumps(report,
indent=1)``, whose text ``report_json`` equals (``tests/test_probio.py``),
since ``report_json``'s eigenpair template needs every key. The rest of the
report, flags included, is hashed as it is.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")]

from support import orr_sommerfeld  # noqa: E402
from workloads import CONFIGS, WORKLOADS, make_problem  # noqa: E402

from quarteig.pencil import QuarticPencil  # noqa: E402
from quarteig.probio import csv_text, report_csv, report_json  # noqa: E402
from quarteig.solver import SolveConfig, build_report, solve_pencil  # noqa: E402

# problems per workload and seed
COUNTS = {"regular_dense": 8, "singular_deflate": 8, "small_batch": 60}


def problems(seeds):
    """(key, coefficients, SolveConfig) of every problem, in output order."""
    for seed in seeds:
        for name, count in COUNTS.items():
            for index in range(count):
                p = make_problem(WORKLOADS[name], seed, index)
                yield f"{seed}/{p.pid}", p.coeffs, SolveConfig(**CONFIGS[p.config]["kwargs"])
    for variant in ("clamped", "bordered"):
        for N in (32, 48):
            for on in (True, False):
                key = f"orr_sommerfeld-{variant}-N{N}-deflate_{'on' if on else 'off'}"
                yield key, orr_sommerfeld(N, variant=variant), SolveConfig(deflate=on)


def stripped(report, keys):
    """The report's JSON and CSV text without the named keys and columns."""
    rows = list(csv.reader(io.StringIO(report_csv(report))))
    keep = [k for k, name in enumerate(rows[0]) if name not in keys]
    for part in (*report["eigenpairs"], report["summary"], report["config"]):
        for name in keys:
            part.pop(name, None)
    return json.dumps(report, indent=1) + "\n" + csv_text([[r[k] for k in keep] for r in rows])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4],
                    help="workload seeds (default: 3 4)")
    ap.add_argument("--strip", nargs="+", default=[], metavar="KEY",
                    help="keys removed from every eigenpair, summary, config and the CSV "
                         "before hashing")
    args = ap.parse_args(argv)
    for key, coeffs, config in problems(args.seeds):
        res = solve_pencil(QuarticPencil.from_matrices(*coeffs), config, name=key)
        report = build_report(res)
        text = (stripped(report, args.strip) if args.strip
                else report_json(report) + report_csv(report))
        print(key, hashlib.sha256(text.encode("utf-8")).hexdigest())


if __name__ == "__main__":
    main()
