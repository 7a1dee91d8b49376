"""Seeded inputs for the quarteig benchmark.

The generators here are the benchmark's own: they never call
``quarteig.gen_*`` or ``quarteig.write_bundle``, so a change to the
package's I/O or generator code cannot change what a workload feeds it.
Every problem carries the eigenvalue class counts that follow from its
construction, which the checks compare against the solver's output.

Families (all complex unless noted):

* ``regular``  -- five dense Gaussian coefficients; A and E have full rank,
  so all 4n eigenvalues are finite.
* ``planted``  -- k_E exactly-zero columns in E and k_A in A, the other
  coefficients dense. Each zero column of E contributes one simple zero
  eigenvalue, each one of A one simple infinite eigenvalue.
* ``mirror``   -- A and E each keep only ``rank`` nonzero columns; on
  ``sl`` of the zero columns the partner coefficient (B for A, D for E) is
  zeroed too, which adds a second zero (infinite) eigenvalue in a chain of
  length two. Zeros = infinities = (n - rank) + sl.
* ``jordan``   -- one coordinate carries the scalar monomial lambda^k, the
  others random scalar quartics, rotated by random unitaries: one Jordan
  block of length k at zero and 4 - k infinite eigenvalues.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.io import mmwrite
from scipy.sparse import coo_matrix

COEFF_NAMES = ("A", "B", "C", "D", "E")

# Solve configurations. ``flags`` are the command-line form used by the
# bundle workload; ``kwargs`` the SolveConfig form used in memory.
CONFIGS = {
    "default": {"flags": (), "kwargs": {}},
    "right_only": {"flags": ("--right-only",), "kwargs": {"want_left": False}},
    "least_squares": {
        "flags": ("--eigvec-mode", "least_squares"),
        "kwargs": {"eigvec_mode": "least_squares"},
    },
    "deflate_off": {"flags": ("--deflate", "off"), "kwargs": {"deflate": False}},
    "no_scaling": {
        "flags": ("--scale", "off", "--balance", "off"),
        "kwargs": {"scale": False, "balance": False},
    },
}


@dataclass
class Problem:
    pid: str
    family: str
    coeffs: tuple
    zeros: int
    infs: int
    config: str = "default"

    @property
    def n(self):
        return self.coeffs[0].shape[0]

    @property
    def finite(self):
        return 4 * self.n - self.zeros - self.infs

    @property
    def want_left(self):
        return CONFIGS[self.config]["kwargs"].get("want_left", True)

    @property
    def deflates(self):
        return CONFIGS[self.config]["kwargs"].get("deflate", True)


def _gauss(rng, rows, cols, real=False):
    g = rng.standard_normal((rows, cols))
    if not real:
        g = g + 1j * rng.standard_normal((rows, cols))
    return g / np.sqrt(cols)


def _unitary(rng, n):
    q, r = np.linalg.qr(_gauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def _zero_columns(rng, n, k, real=False):
    """Dense n x n matrix whose columns ``cols`` (k of them) are exactly zero."""
    cols = np.sort(rng.choice(n, size=k, replace=False))
    m = _gauss(rng, n, n, real)
    m[:, cols] = 0.0
    return m, cols


def regular(rng, n):
    return tuple(_gauss(rng, n, n) for _ in COEFF_NAMES), 0, 0


def planted(rng, n, k_e, k_a, real=False):
    a, _ = _zero_columns(rng, n, k_a, real)
    e, _ = _zero_columns(rng, n, k_e, real)
    b, c, d = (_gauss(rng, n, n, real) for _ in range(3))
    return (a, b, c, d, e), k_e, k_a


def mirror(rng, n, rank, sl):
    if not 0 <= sl <= n - rank:
        raise ValueError("second-level zero columns must lie among the zero columns")
    a, cols_a = _zero_columns(rng, n, n - rank)
    e, cols_e = _zero_columns(rng, n, n - rank)
    b, c, d = (_gauss(rng, n, n) for _ in range(3))
    b[:, cols_a[:sl]] = 0.0
    d[:, cols_e[:sl]] = 0.0
    count = (n - rank) + sl
    return (a, b, c, d, e), count, count


def jordan(rng, n, k):
    if not 0 <= k <= 4:
        raise ValueError("the monomial degree must lie in 0..4")
    # row i holds the coefficient of lambda^(4-i), i.e. of A, B, C, D, E
    diag = (0.5 + rng.random((5, n))) * np.exp(2j * np.pi * rng.random((5, n)))
    diag[:, 0] = 0.0
    diag[4 - k, 0] = 1.0
    u, v = _unitary(rng, n), _unitary(rng, n)
    coeffs = tuple(u @ (diag[i][:, None] * v.conj().T) for i in range(5))
    return coeffs, k, 4 - k


FAMILIES = {"regular": regular, "planted": planted, "mirror": mirror, "jordan": jordan}


@dataclass(frozen=True)
class Spec:
    family: str
    params: tuple
    config: str = "default"


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # Specs, repeated in order; runs end on a cycle boundary
    tail_level: float  # percentile reported as solve_tail_s
    on_disk: bool = False


def _batch_cycle():
    """30 small bundles: n spread over 4..16, families and solve
    configurations interleaved so that every pairing occurs. QZ-found zeros
    and infinities (deflate_off) are only paired with the planted family,
    whose zero and infinite eigenvalues are semisimple."""
    params = {
        "planted": lambda n, i: (n, 1 + n // 5, 1 + n // 6, i % 2 == 0),
        "jordan": lambda n, i: (n, i % 5),
        "mirror": lambda n, i: (n, 2, 1 + n // 6),
    }
    cycle = []
    for i in range(30):
        n = 4 + (7 * i) % 13
        if i % 5 == 3:
            cycle.append(Spec("planted", params["planted"](n, i), "deflate_off"))
            continue
        family = ("planted", "jordan", "mirror")[i % 3]
        config = ("default", "right_only", "least_squares", "no_scaling")[i % 4]
        cycle.append(Spec(family, params[family](n, i), config))
    return tuple(cycle)


# Within a workload the problems' latencies are kept close together, so the
# median rests on many samples of similar cost and moves with machine speed
# rather than jumping from one problem type to the next.
WORKLOADS = {
    # QZ and eigenvector recovery dominate; deflation only triangularizes.
    "regular_dense": Workload(
        "regular_dense",
        tuple(Spec("regular", (n,)) for n in (34, 36, 38, 40)),
        tail_level=85.0,
    ),
    # Both extremes highly singular: deflation removes 3/8 (planted) to
    # about 2/3 (mirror) of the 4n pencil before QZ; left-vector lifting and
    # rank analysis take the time.
    "singular_deflate": Workload(
        "singular_deflate",
        (
            Spec("planted", (40, 30, 30)),
            Spec("mirror", (36, 4, 14)),
            Spec("planted", (44, 33, 33)),
            Spec("mirror", (40, 4, 16)),
        ),
        tail_level=85.0,
    ),
    # Small bundles read from disk, solved through the command line and
    # written as JSON + CSV, rotating through the solve configurations.
    "small_batch": Workload("small_batch", _batch_cycle(), tail_level=97.5, on_disk=True),
}


def make_problem(workload: Workload, seed: int, index: int) -> Problem:
    """The ``index``-th problem of a workload; a pure function of its arguments."""
    spec = workload.cycle[index % len(workload.cycle)]
    rng = np.random.default_rng([seed, index, zlib.crc32(workload.name.encode())])
    coeffs, zeros, infs = FAMILIES[spec.family](rng, *spec.params)
    pid = f"{workload.name}-{index:05d}-{spec.family}"
    return Problem(pid, spec.family, coeffs, zeros, infs, spec.config)


def write_bundle(problem: Problem, path):
    """Matrix Market bundle; real planted problems go out in coordinate form."""
    os.makedirs(path, exist_ok=True)
    for name, m in zip(COEFF_NAMES, problem.coeffs):
        target = coo_matrix(m) if np.isrealobj(m) else m
        mmwrite(os.path.join(path, f"{name}.mtx"), target, precision=17)
