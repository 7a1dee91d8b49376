import argparse
import dataclasses
import importlib
import json
import math
import os
import re

import pytest

import quarteig
from quarteig import SolveConfig
from quarteig.cli import EXIT_OK, EXIT_USAGE, build_parser, main

# The public surface of the package root. Growing or shrinking it is an API
# change, so it is meant to show up here as a diff.
PUBLIC = [
    "EigenSolution",
    "ProblemBundle",
    "QuarticPencil",
    "SolveConfig",
    "SolveResult",
    "build_report",
    "read_bundle",
    "solve_bundle",
    "solve_pencil",
    "write_bundle",
    "write_report",
]


def test_all_is_pinned():
    assert quarteig.__all__ == PUBLIC


def test_every_name_imports():
    # a star import raises AttributeError for a listed name that is missing
    namespace = {}
    exec("from quarteig import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


@pytest.mark.parametrize("name", ["deflate", "scaling", "gevp", "pencil", "diagnostics",
                                  "eigvec", "numkit", "probio", "solver", "errors", "cli"])
def test_no_module_is_shadowed(name):
    # a root name equal to a submodule's would replace the module attribute
    module = importlib.import_module(f"quarteig.{name}")
    assert getattr(quarteig, name) is module


def test_the_package_draws_no_random_numbers():
    # reports are byte-reproducible; test problems come from tests/problems.py
    root = os.path.dirname(quarteig.__file__)
    sources = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files
               if f.endswith(".py")]
    assert len(sources) > 10
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert not re.search(r"default_rng|\b(np|numpy)\.random\b", text), path


def test_one_version(unit_bundle):
    # a regex, not tomllib, which Python 3.10 lacks
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        (version,) = re.findall(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    report = quarteig.build_report(quarteig.solve_bundle(quarteig.read_bundle(unit_bundle)))
    assert report["meta"]["package"] == quarteig.__version__ == version


# The options of a solve. SolveConfig is their one description: the report's
# config block and the keys of ``compare --config`` are its fields without
# want_left and threads.
CONFIG_DEFAULTS = {
    "scale": True,
    "balance": True,
    "tol": None,
    "deflate": True,
    "eigvec_mode": "min_residual",
    "want_left": True,
    "threads": 1,
}
REPORTED = ["scale", "balance", "tol", "deflate", "eigvec_mode"]
SOLVE_OPTIONS = [
    "-h", "--help", "--threads", "--scale", "--balance", "--tol", "--deflate",
    "--eigvec-mode", "--right-only", "--output", "--format",
]
# one value per compare key, other than its default: the text and the parsed value
COMPARE_VALUES = {
    "scale": ("off", False),
    "balance": ("off", False),
    "tol": ("1e-10", 1e-10),
    "deflate": ("off", False),
    "eigvec_mode": ("least_squares", "least_squares"),
}


def test_solve_config_fields_are_pinned():
    fields = dataclasses.fields(SolveConfig)
    assert [(f.name, f.default) for f in fields] == list(CONFIG_DEFAULTS.items())


def test_solve_options_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [s for action in sub.choices["solve"]._actions for s in action.option_strings]
    assert options == SOLVE_OPTIONS


def test_report_config_keys_are_pinned(unit_bundle, capsys):
    assert main(["solve", str(unit_bundle)]) == EXIT_OK
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {k: CONFIG_DEFAULTS[k] for k in REPORTED}
    assert list(config) == REPORTED


def test_every_compare_key_reaches_the_report(unit_bundle, tmp_path):
    assert list(COMPARE_VALUES) == REPORTED
    outd = tmp_path / "cmp"
    argv = ["compare", str(unit_bundle), "--output-dir", str(outd)]
    for key, (text, _) in COMPARE_VALUES.items():
        argv += ["--config", f"{key}={text}"]
    assert main(argv) == EXIT_OK
    for k, (key, (_, value)) in enumerate(COMPARE_VALUES.items()):
        config = json.loads((outd / f"unit_cfg{k}.json").read_text())["config"]
        assert config == {**{r: CONFIG_DEFAULTS[r] for r in REPORTED}, key: value}


@pytest.mark.parametrize("key", ["want_left", "threads", "right_only", "rank_strategy"])
def test_compare_rejects_other_keys(unit_bundle, capsys, key):
    assert main(["compare", str(unit_bundle), "--config", f"{key}=1", "--config", ""]) == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["message"] == f"unknown config key {key!r}"


def test_compare_rejects_a_repeated_key(unit_bundle, tmp_path, capsys):
    outd = tmp_path / "cmp"
    argv = ["compare", str(unit_bundle), "--output-dir", str(outd),
            "--config", "tol=1e-3", "--config", "tol=1e-3,tol=1e-2"]
    assert main(argv) == EXIT_USAGE
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["message"] == "duplicate config key 'tol'"
    assert not outd.exists()


@pytest.mark.parametrize("field, value", [
    ("tol", 0.0), ("tol", 1.0), ("tol", math.nan), ("tol", "1e-3"),
    ("eigvec_mode", "bogus"), ("threads", 0), ("threads", 1.5), ("threads", "2"),
    ("threads", True), ("scale", "off"), ("balance", 1), ("deflate", None),
    ("want_left", "on"),
])
def test_invalid_values_raise_at_construction(field, value):
    with pytest.raises(ValueError):
        SolveConfig(**{field: value})
    with pytest.raises(ValueError):
        dataclasses.replace(SolveConfig(), **{field: value})
