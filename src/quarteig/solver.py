"""End-to-end solve pipeline.

Order: balance (weighted by the parameter scaling's gamma) -> parameter
scale -> rank analysis -> deflate (or, with deflation off, linearize) ->
QZ (right vectors only) -> lift and recover the right and left
eigenvectors -> descale -> diagnostics.
Backward errors in the report are always evaluated against the original,
unscaled coefficients.

Every stage takes and returns the solution as arrays, one per field (see
:class:`~quarteig.pencil.EigenSolution`): QZ's pairs are classified and
extended by the deflated pairs, then recovered, mapped back and diagnosed
as whole arrays, and :func:`build_report` reads them off in modulus order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import __version__, diagnostics, eigvec, gevp, probio, scaling
from .deflate import analyze_ranks, deflate
# deflate forms the second level itself; looked up by bench/tracer.py only (ROADMAP item 1)
from .deflate import second_level  # noqa: F401
from .numkit import blas_threads
from .pencil import (
    CLASS_NAMES,
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    EigenSolution,
    QuarticPencil,
    linearize,
)


@dataclass(frozen=True)
class SolveConfig:
    """Pipeline knobs; defaults follow the solver's documented behavior.

    Values are checked when the config is built: an invalid one raises
    ``ValueError`` from the constructor (and from ``dataclasses.replace``).

    ``threads`` is the BLAS thread count for the duration of a solve; the
    caller's count is restored afterwards. The default of 1 is the faster
    one at the sizes measured (n up to 128 on 2 cores), where the BLAS calls
    are too small to gain from a second thread. The setting is process-wide:
    solves running in different Python threads share one count.
    """

    scale: bool = True
    balance: bool = True
    deflate: bool = True
    eigvec_mode: str = "min_residual"
    want_left: bool = True
    threads: int = 1

    def __post_init__(self):
        for name in ("scale", "balance", "deflate", "want_left"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.eigvec_mode not in ("min_residual", "least_squares"):
            raise ValueError(f"unknown eigvec mode {self.eigvec_mode!r}")
        if type(self.threads) is not int or self.threads < 1:
            raise ValueError(f"threads must be an int >= 1, got {self.threads!r}")

    def label(self):
        """Comma-free tag naming every field of ``OPTIONS`` as key=value,
        switches as on/off (used in merged CSV column names)."""
        pairs = ((name, getattr(self, name)) for name in OPTIONS)
        return ";".join(f"{k}={('on' if v else 'off') if isinstance(v, bool) else v}"
                        for k, v in pairs)


# The fields that shape the numbers: the report's config block and the keys
# of ``compare --config``. Left out are want_left, which only drops the left
# vectors, and threads, which only changes the speed (the report's meta).
OPTIONS = tuple(f.name for f in dataclasses.fields(SolveConfig)
                if f.name not in ("want_left", "threads"))


@dataclass
class SolveResult:
    problem: str
    n: int
    config: SolveConfig
    solution: EigenSolution
    deflation: object | None
    summary: diagnostics.SummaryReport
    record: scaling.ScalingRecord
    flags: list = field(default_factory=list)
    backend: str = ""  # the QZ driver that ran (GevpSolution.backend_id)
    blas_threads: int | None = None  # read back during the solve; None if not controllable


def _recover_all(gs, zfull, d, rp, config, flags):
    """The whole spectrum of the scaled quartic ``rp.q`` with its vectors.

    The spectrum is QZ's pairs, then the zeros and the infinities that the
    deflation ``d`` (None when off) removed, counted from its steps. Right
    vectors of QZ's finite pairs are recovered from the blocks of ``zfull``,
    the backend's right vectors lifted to the full linearization, and their
    left vectors (with ``config.want_left``) by :func:`eigvec.recover_left`
    from the right ones. Every zero and infinite pair, found by QZ or
    deflated, takes both vectors from :func:`eigvec.nullspace_vectors`.
    Returns the fields of :class:`EigenSolution` in order, with one column
    of the n x m arrays ``x`` and ``y`` per pair, zero where its mask is
    unset.
    """
    counts = [0, 0] if d is None else [d.zeros_deflated, d.infs_deflated]
    alpha = np.concatenate([gs.alpha, np.zeros(counts[0]), np.ones(counts[1])])
    beta = np.concatenate([gs.beta, np.ones(counts[0]), np.zeros(counts[1])])
    cls = np.concatenate([gs.cls, np.repeat(np.int8([EIG_ZERO, EIG_INFINITE]), counts)])
    q, n, m = rp.q, rp.n, len(cls)
    x, y = np.zeros((2, n, m), dtype=np.complex128)
    has_right = np.ones(m, dtype=bool)
    methods = np.full(m, "deflated_nullspace", dtype=object)
    fin = np.flatnonzero(gs.cls == EIG_FINITE)
    if fin.size and config.eigvec_mode == "least_squares":
        x[:, fin] = eigvec.recover_right_ls(zfull[:, fin], gs.alpha[fin], gs.beta[fin], q)
        methods[fin] = "least_squares"
    elif fin.size:
        batch = eigvec.recover_right_many(zfull[:, fin], gs.alpha[fin], gs.beta[fin], rp)
        xs, methods[fin], _ = zip(*batch)
        ok = has_right[fin] = methods[fin] != "degenerate"
        if ok.any():
            x[:, fin[ok]] = np.column_stack(list(compress(xs, ok)))
        flags.extend(f"recover_right_degenerate_index_{i}" for i in fin[~ok])
    for c, which in ((EIG_ZERO, "zero_class"), (EIG_INFINITE, "inf_class")):
        idx = np.flatnonzero(cls == c)
        x[:, idx], y[:, idx] = eigvec.nullspace_vectors(rp, which, idx.size)
        methods[idx[idx < len(gs)]] = f"{which}_nullspace"
    if config.want_left:
        y[:, fin] = eigvec.recover_left(q, gs.alpha[fin], gs.beta[fin], x[:, fin])
    else:  # a right-only solve gives no pair a left vector
        y[:] = 0.0
    return alpha, beta, cls, methods, x, has_right, y, np.full(m, config.want_left)


def solve_pencil(q0: QuarticPencil, config: SolveConfig = SolveConfig(), name="problem") -> SolveResult:
    """Solve the quartic eigenvalue problem for the given coefficients.

    Runs with the BLAS at ``config.threads`` threads and records the count
    read back during the solve in ``blas_threads``. Where no BLAS thread
    count can be set, that is None and the result carries the flag
    ``blas_threads_not_set``. A coefficient with a NaN or Inf entry raises
    ``ValueError`` naming it before any work.
    """
    for key, c in zip("abcde", q0.coeffs):
        if not np.isfinite(c).all():
            raise ValueError(f"coefficient {key} contains NaN or Inf entries")
    with blas_threads(config.threads) as count:
        res = _solve(q0, config, name)
    res.blas_threads = count
    if count is None:
        res.flags.append("blas_threads_not_set")
    return res


def _solve(q0, config, name):
    flags = []
    n = q0.n

    qb, rec_bal = (scaling.balance(q0, weighted=config.scale) if config.balance
                   else (q0, scaling.ScalingRecord()))
    qs, rec_scale = scaling.param_scale(qb, config.scale)
    rec = dataclasses.replace(rec_scale, dl=rec_bal.dl, dr=rec_bal.dr)

    rp = analyze_ranks(qs)
    d = deflate(rp) if config.deflate else None
    if d is None:
        gs = gevp.solve_gevp(linearize(qs))
    else:
        flags.extend(d.flags)
        gs = gevp.solve_gevp(d.pencil)

    zfull = gs.right if d is None else d.lift(gs.right)
    sol = scaling.descale(EigenSolution(*_recover_all(gs, zfull, d, rp, config, flags)), rec)

    norms0 = diagnostics.CoefficientNorms(q0)
    sol = dataclasses.replace(sol, **diagnostics.diagnostics_many(sol, q0, norms0))
    summary = diagnostics.summarize(sol)
    above = (sol.eta_right > diagnostics.ETA_TOL) | (sol.eta_left > diagnostics.ETA_TOL)
    flags.extend(f"backward_error_above_tolerance_index_{i}" for i in np.flatnonzero(above))

    if len(sol) != 4 * n:
        flags.append(f"eigenvalue_count_{len(sol)}_of_{4 * n}")

    return SolveResult(
        problem=name,
        n=n,
        config=config,
        solution=sol,
        deflation=d,
        summary=summary,
        record=rec,
        flags=flags,
        backend=gs.backend_id,
    )


def solve_bundle(bundle: probio.ProblemBundle, config: SolveConfig = SolveConfig()) -> SolveResult:
    return solve_pencil(bundle.pencil, config, name=bundle.name)


def build_report(res: SolveResult) -> dict:
    """JSON-able report document (deterministic: no timestamps)."""
    sol = res.solution
    order = np.asarray(res.summary.order)
    # errors that are NaN (not computed) or inf are reported as null
    errors = [np.where(np.isfinite(e), e, None).tolist()
              for e in (getattr(sol, name)[order] for name in diagnostics.ERRORS)]
    lam = sol.lam[order]
    pairs = [
        {
            "index": rank_pos,
            "alpha": [ar, ai],
            "beta": b,
            "lambda": None if c == EIG_INFINITE else [lr, li],
            "class": CLASS_NAMES[c],
            **dict(zip(diagnostics.ERRORS, errs)),
            "method": method,
        }
        for rank_pos, (ar, ai, b, c, lr, li, method, *errs) in enumerate(zip(
            sol.alpha[order].real.tolist(), sol.alpha[order].imag.tolist(),
            sol.beta[order].tolist(), sol.cls[order].tolist(), lam.real.tolist(),
            lam.imag.tolist(), sol.methods[order].tolist(), *errors))
    ]
    deflation = None
    if res.deflation is not None:
        d = res.deflation
        deflation = {
            "zeros": int(d.zeros_deflated),
            "infinities": int(d.infs_deflated),
            "size": int(d.size),
            "a_regular": d.a_regular,
            "b_regular": d.b_regular,
            "steps": [s.as_dict() for s in d.steps],
            "flags": list(d.flags),
        }
    return {
        "problem": res.problem,
        "n": res.n,
        "config": {name: getattr(res.config, name) for name in OPTIONS},
        "scaling": {
            "gamma": res.record.gamma,
            "theta": res.record.theta,
            "balanced": res.record.dl is not None or res.record.dr is not None,
        },
        "deflation": deflation,
        "eigenpairs": pairs,
        "summary": res.summary.as_dict(),
        "flags": list(res.flags),
        "meta": {"backend": res.backend, "package": __version__, "threads": res.blas_threads},
    }
