"""Command-line front end.

    quarteig solve BUNDLE [options]          solve one problem, write a report
    quarteig compare BUNDLE --config ... --config ...
                                             run >= 2 configurations and merge
                                             the per-pair diagnostics into one
                                             CSV keyed by eigenvalue index

Exit codes: 0 success, 2 usage, 3 bundle/input error, 4 numerical failure,
5 I/O failure. Failures print a machine-readable JSON error object.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import BundleError, QuarteigError
from .probio import read_bundle, write_report
from .solver import SolveConfig, build_report, solve_bundle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUNDLE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

_CONFIG_KEYS = {
    "scale",
    "balance",
    "balance_iters",
    "rank_strategy",
    "tol",
    "deflate",
    "eigvec_mode",
}


def _onoff(value):
    if value in ("on", "off"):
        return value == "on"
    raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got {value!r}")


def _threads_from_env():
    """QUARTEIG_THREADS as an integer, 1 when unset; SolveConfig checks the range."""
    env = os.environ.get("QUARTEIG_THREADS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"QUARTEIG_THREADS must be an integer, got {env!r}") from None


def build_parser():
    p = argparse.ArgumentParser(prog="quarteig", description="Quartic eigenvalue solver")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("bundle", help="problem bundle directory (A.mtx .. E.mtx)")
        sp.add_argument("--threads", type=int, default=None,
                        help="BLAS threads during the solve (default: QUARTEIG_THREADS or 1)")

    sp = sub.add_parser("solve", help="solve one problem bundle")
    add_common(sp)
    sp.add_argument("--scale", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument("--balance", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument("--balance-iters", type=int, default=5)
    sp.add_argument("--rank-strategy", choices=("norm", "dropoff"), default="norm")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--deflate", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument(
        "--eigvec-mode", choices=("min_residual", "least_squares"), default="min_residual"
    )
    sp.add_argument("--right-only", action="store_true", help="skip left eigenvectors")
    sp.add_argument("--output", default=None, help="report path (default: stdout)")
    sp.add_argument("--format", choices=("json", "csv", "both"), default="json")

    sp = sub.add_parser("compare", help="run several configurations and merge diagnostics")
    add_common(sp)
    sp.add_argument(
        "--config",
        action="append",
        default=[],
        metavar="KEY=VAL,...",
        help="one configuration, e.g. 'scale=on,balance=off' (repeat >= 2 times)",
    )
    sp.add_argument("--output-dir", default=".", help="directory for reports and merged CSV")
    return p


def _parse_config(spec: str, threads: int) -> SolveConfig:
    kwargs = {}
    if spec:
        for item in spec.split(","):
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"malformed config entry {item!r}")
            key, val = item.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if key in ("scale", "balance", "deflate"):
                kwargs[key] = _onoff(val)
            elif key in ("balance_iters",):
                kwargs[key] = int(val)
            elif key == "tol":
                kwargs[key] = float(val)
            else:
                kwargs[key] = val
    return SolveConfig(threads=threads, **kwargs).validate()


def _fail(code, kind, message):
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}))
    return code


def _cmd_solve(args):
    config = SolveConfig(
        scale=args.scale,
        balance=args.balance,
        balance_iters=args.balance_iters,
        rank_strategy=args.rank_strategy,
        tol=args.tol,
        deflate=args.deflate,
        eigvec_mode=args.eigvec_mode,
        want_left=not args.right_only,
        threads=args.threads,
    )
    try:
        config.validate()
    except ValueError as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    try:
        bundle = read_bundle(args.bundle)
    except BundleError as exc:
        return _fail(EXIT_BUNDLE, type(exc).__name__, str(exc))
    try:
        result = solve_bundle(bundle, config)
        report = build_report(result)
    except QuarteigError as exc:
        return _fail(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    try:
        if args.output:
            write_report(report, args.output, fmt=args.format)
        else:
            print(json.dumps(report, indent=1))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    # exit 0 only when every one of the 4n eigenpairs was produced
    if sum(report["summary"]["counts"].values()) != 4 * report["n"]:
        return EXIT_NUMERICAL
    return EXIT_OK


def _merged_csv(labels, reports):
    buf = io.StringIO()
    cols = ["index"]
    for lab in labels:
        cols += [
            f"{lab}:eta_right",
            f"{lab}:eta_left",
            f"{lab}:omega_right",
            f"{lab}:omega_left",
        ]
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    npairs = len(reports[0]["eigenpairs"])
    for i in range(npairs):
        row = [i]
        for rep in reports:
            pair = rep["eigenpairs"][i]
            row += [
                pair["eta_right"],
                pair["eta_left"],
                pair["omega_right"],
                pair["omega_left"],
            ]
        w.writerow(row)
    return buf.getvalue()


def _cmd_compare(args):
    if len(args.config) < 2:
        return _fail(EXIT_USAGE, "usage", "compare requires at least two --config entries")
    try:
        configs = [_parse_config(spec, args.threads) for spec in args.config]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    try:
        bundle = read_bundle(args.bundle)
    except BundleError as exc:
        return _fail(EXIT_BUNDLE, type(exc).__name__, str(exc))
    reports = []
    labels = []
    try:
        for k, cfg in enumerate(configs):
            result = solve_bundle(bundle, cfg)
            reports.append(build_report(result))
            labels.append(f"cfg{k}[{cfg.label()}]")
    except QuarteigError as exc:
        return _fail(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    try:
        os.makedirs(args.output_dir, exist_ok=True)
        for k, rep in enumerate(reports):
            write_report(rep, os.path.join(args.output_dir, f"{bundle.name}_cfg{k}.json"))
        merged = _merged_csv(labels, reports)
        with open(
            os.path.join(args.output_dir, f"{bundle.name}_compare.csv"),
            "w",
            encoding="utf-8",
        ) as fh:
            fh.write(merged)
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    if args.threads is None:
        try:
            args.threads = _threads_from_env()
        except ValueError as exc:
            return _fail(EXIT_USAGE, "usage", str(exc))
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
