"""The BLAS thread count during and after a solve.

The live count is read through ctypes here, independently of the package's
own OpenBLAS discovery, so that the check does not share its code.
"""

import ctypes

import numpy as np
import pytest
from oracles import random_regular_quartic, singular_quartic

import quarteig.gevp
import quarteig.numkit
from quarteig import SolveConfig, build_report, solve_pencil
from quarteig.errors import GevpError

_SYMBOLS = [
    (f"{pre}get_num_threads{suf}", f"{pre}set_num_threads{suf}")
    for pre in ("scipy_openblas_", "openblas_")
    for suf in ("64_", "")
]


def _openblas_libs():
    """(get, set) of each OpenBLAS mapped into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        names = next(((g, s) for g, s in _SYMBOLS if hasattr(lib, g) and hasattr(lib, s)), None)
        if names is not None:
            get, put = getattr(lib, names[0]), getattr(lib, names[1])
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            libs.append((get, put))
    return libs


def _counts(libs):
    return [get() for get, _ in libs]


@pytest.fixture
def libs():
    """Every OpenBLAS at 2 threads for the test, whatever the environment set."""
    found = _openblas_libs()
    if not found:
        pytest.skip("no OpenBLAS whose thread count can be read")
    saved = _counts(found)
    for _, put in found:
        put(2)
    yield found
    for (_, put), k in zip(found, saved):
        put(k)


@pytest.fixture
def seen(libs, monkeypatch):
    """Counts read inside each call of the QZ backend."""
    calls = []
    solve_gevp = quarteig.gevp.solve_gevp

    def spy(*args, **kwargs):
        calls.append(_counts(libs))
        return solve_gevp(*args, **kwargs)

    monkeypatch.setattr(quarteig.gevp, "solve_gevp", spy)
    return calls


def test_solve_runs_at_config_threads(libs, seen):
    q = random_regular_quartic(np.random.default_rng(5), 4)
    for k in (1, 2):
        seen.clear()
        solve_pencil(q, SolveConfig(threads=k))
        assert seen == [[k] * len(libs)]


def test_count_restored_after_solve(libs, seen):
    q = random_regular_quartic(np.random.default_rng(6), 4)
    res = solve_pencil(q, SolveConfig(threads=1))
    assert seen == [[1] * len(libs)]
    assert _counts(libs) == [2] * len(libs)
    assert "blas_threads_not_set" not in res.flags


def test_count_restored_after_failed_solve(libs, seen):
    q = singular_quartic(np.random.default_rng(61))
    with pytest.raises(GevpError):
        solve_pencil(q, SolveConfig(threads=1, deflate=False))
    assert seen == [[1] * len(libs)]
    assert _counts(libs) == [2] * len(libs)


def test_uncontrolled_blas_is_flagged(monkeypatch):
    monkeypatch.setattr(quarteig.numkit, "openblas_controls", lambda: ())
    res = solve_pencil(random_regular_quartic(np.random.default_rng(7), 3))
    assert res.flags[-1] == "blas_threads_not_set"
    assert "blas_threads_not_set" in build_report(res)["flags"]


def test_report_threads_read_back(libs):
    q = random_regular_quartic(np.random.default_rng(8), 3)
    for k in (1, 2):
        res = solve_pencil(q, SolveConfig(threads=k))
        assert res.blas_threads == k
        assert build_report(res)["meta"]["threads"] == k


def test_report_threads_null_when_uncontrolled(monkeypatch):
    monkeypatch.setattr(quarteig.numkit, "openblas_controls", lambda: ())
    res = solve_pencil(random_regular_quartic(np.random.default_rng(9), 3), SolveConfig(threads=2))
    assert res.blas_threads is None
    assert build_report(res)["meta"]["threads"] is None


def test_report_threads_are_read_back(monkeypatch):
    # a library that caps the count: the report shows what it holds, not the request
    held = [4]
    capped = (lambda: held[0], lambda k: held.__setitem__(0, min(k, 1)))
    monkeypatch.setattr(quarteig.numkit, "openblas_controls", lambda: (capped,))
    res = solve_pencil(random_regular_quartic(np.random.default_rng(10), 3), SolveConfig(threads=2))
    assert res.blas_threads == 1
    assert "blas_threads_not_set" not in res.flags
