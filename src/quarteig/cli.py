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
import functools
import json
import os
import sys
import typing

from .diagnostics import ERRORS
from .errors import BundleError, QuarteigError
from .probio import (
    csv_text,
    read_bundle,
    report_base,
    report_csv,
    report_json,
    write_file,
    write_report,
)
from .solver import OPTIONS, SolveConfig, build_report, solve_bundle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUNDLE = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _onoff(value):
    if value in ("on", "off"):
        return value == "on"
    raise argparse.ArgumentTypeError(f"expected 'on' or 'off', got {value!r}")


def _config_parser(tp):
    """The parser of a ``compare --config`` value for a field of type ``tp``."""
    tp = next(t for t in typing.get_args(tp) or (tp,) if t is not type(None))
    return _onoff if tp is bool else tp


_CONFIG_PARSERS = {name: _config_parser(tp) for name, tp in
                   typing.get_type_hints(SolveConfig).items() if name in OPTIONS}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors also print the JSON error object
    (argparse itself prints the usage text to stderr and exits 2)."""

    def error(self, message):
        _fail(EXIT_USAGE, "usage", message)
        super().error(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process (nothing in it depends on argv)."""
    p = _Parser(prog="quarteig", description="Quartic eigenvalue solver")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("bundle", help="problem bundle directory (A.mtx .. E.mtx)")
        sp.add_argument("--threads", type=int, default=1,
                        help="BLAS threads during the solve (default: 1)")

    sp = sub.add_parser("solve", help="solve one problem bundle")
    add_common(sp)
    sp.add_argument("--scale", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument("--balance", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--deflate", type=_onoff, default=True, metavar="{on,off}")
    sp.add_argument(
        "--eigvec-mode", choices=("min_residual", "least_squares"), default="min_residual"
    )
    sp.add_argument("--right-only", action="store_true", help="skip left eigenvectors")
    sp.add_argument("--output", default=None, help="report path (default: stdout)")
    sp.add_argument("--format", choices=("json", "csv", "both"), default="json",
                    help="report format; without --output, json or csv to stdout")

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
    for item in filter(None, spec.split(",")):
        if "=" not in item:
            raise ValueError(f"malformed config entry {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        if key in kwargs:
            raise ValueError(f"duplicate config key {key!r}")
        kwargs[key] = _CONFIG_PARSERS[key](val)
    return SolveConfig(threads=threads, **kwargs)


def _fail(code, kind, message):
    print(json.dumps({"error": {"code": code, "type": kind, "message": message}}))
    return code


def _solve_configs(args):
    if args.format == "both" and not args.output:
        raise ValueError("--format both writes two files and needs --output")
    if args.output:
        report_base(args.output)
    return [SolveConfig(**{name: getattr(args, name) for name in OPTIONS},
                        want_left=not args.right_only, threads=args.threads)]


def _write_solve(args, bundle, configs, reports):
    (report,) = reports
    if args.output:
        write_report(report, args.output, fmt=args.format)
    else:
        sys.stdout.write((report_csv if args.format == "csv" else report_json)(report))
    # exit 0 only when every one of the 4n eigenpairs was produced
    if sum(report["summary"]["counts"].values()) != 4 * report["n"]:
        return EXIT_NUMERICAL
    return EXIT_OK


def _merged_csv(labels, reports):
    """One row per eigenvalue index: the errors of every report side by side."""
    header = ["index", *(f"{lab}:{e}" for lab in labels for e in ERRORS)]
    rows = ([i, *(rep["eigenpairs"][i][e] for rep in reports for e in ERRORS)]
            for i in range(len(reports[0]["eigenpairs"])))
    return csv_text([header, *rows])


def _compare_configs(args):
    if len(args.config) < 2:
        raise ValueError("compare requires at least two --config entries")
    return [_parse_config(spec, args.threads) for spec in args.config]


def _write_compare(args, bundle, configs, reports):
    for k, rep in enumerate(reports):
        write_report(rep, os.path.join(args.output_dir, f"{bundle.name}_cfg{k}.json"))
    labels = [f"cfg{k}[{cfg.label()}]" for k, cfg in enumerate(configs)]
    write_file(os.path.join(args.output_dir, f"{bundle.name}_compare.csv"),
               _merged_csv(labels, reports).encode("utf-8"))
    return EXIT_OK


_COMMANDS = {"solve": (_solve_configs, _write_solve),
             "compare": (_compare_configs, _write_compare)}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    make_configs, write = _COMMANDS[args.command]
    # the configs are built before the bundle is read, so usage errors come first
    try:
        configs = make_configs(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        return _fail(EXIT_USAGE, "usage", str(exc))
    # one run path for both commands: read, solve each config, report, write
    try:
        bundle = read_bundle(args.bundle)
        reports = [build_report(solve_bundle(bundle, cfg)) for cfg in configs]
        return write(args, bundle, configs, reports)
    except BundleError as exc:
        return _fail(EXIT_BUNDLE, type(exc).__name__, str(exc))
    except QuarteigError as exc:
        return _fail(EXIT_NUMERICAL, type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
