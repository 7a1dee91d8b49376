"""End-to-end solve pipeline.

Order: balance (weighted by the parameter scaling's gamma) -> parameter
scale -> rank analysis -> deflate, through the reversal if only A is
singular (or, with deflation off, linearize) -> QZ (right vectors only) ->
lift and recover the right and left eigenvectors -> descale -> diagnostics.
Backward errors in the report are always evaluated against the original,
unscaled coefficients.

Every stage takes and returns the solution as arrays, one per field (see
:class:`~quarteig.pencil.EigenSolution`): QZ's pairs are classified,
recovered, extended by the deflated pairs, mapped back and diagnosed as
whole arrays, and :func:`build_report` reads them off in modulus order.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import __version__, diagnostics, eigvec, gevp, probio, scaling
from .deflate import analyze_ranks, deflate
# deflate forms the second level itself; looked up by bench/tracer.py only (ROADMAP item 1)
from .deflate import second_level  # noqa: F401
from .numkit import blas_threads, unit_columns
from .pencil import (
    CLASS_NAMES,
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    EigenSolution,
    QuarticPencil,
    linearize,
    reciprocal,
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
    tol: float | None = None
    deflate: bool = True
    eigvec_mode: str = "min_residual"
    want_left: bool = True
    threads: int = 1

    def __post_init__(self):
        for name in ("scale", "balance", "deflate", "want_left"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.tol is not None and not (isinstance(self.tol, numbers.Real)
                                         and 0.0 < self.tol < 1.0):
            raise ValueError(f"tol must be None or a real number in (0, 1), got {self.tol!r}")
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


def _recover_all(gs, zfull, rp_w, config, flags):
    """Eigenvectors of the working quartic ``rp_w.q`` for every QZ pair.

    ``zfull`` holds the backend's right vectors lifted to the full
    linearization. Right vectors are recovered from its blocks, left
    vectors (with ``config.want_left``) by :func:`eigvec.recover_left` from
    the right ones, for QZ's zero and infinite pairs at exactly (0, 1) and
    (1, 0), where P is E and A. Returns ``(methods, x, has_right, y,
    has_left)``: one column of the n x m arrays ``x`` and ``y`` per pair,
    zero where its mask is unset.
    """
    qw, n, m = rp_w.q, rp_w.n, len(gs)
    x, y = np.zeros((2, n, m), dtype=np.complex128)
    has_right = np.zeros(m, dtype=bool)
    methods = np.full(m, "unset", dtype=object)
    fin, zero, inf = (np.flatnonzero(gs.cls == c) for c in (EIG_FINITE, EIG_ZERO, EIG_INFINITE))
    if fin.size and config.eigvec_mode == "least_squares":
        x[:, fin] = eigvec.recover_right_ls(zfull[:, fin], gs.alpha[fin], gs.beta[fin], qw)
        has_right[fin], methods[fin] = True, "least_squares"
    elif fin.size:
        batch = eigvec.recover_right_many(zfull[:, fin], gs.alpha[fin], gs.beta[fin], rp_w)
        xs, methods[fin], _ = zip(*batch)
        ok = has_right[fin] = methods[fin] != "degenerate"
        if ok.any():
            x[:, fin[ok]] = np.column_stack(list(compress(xs, ok)))
        flags.extend(f"recover_right_degenerate_index_{i}" for i in fin[~ok])
    if zero.size:
        x[:, zero], has_right[zero] = eigvec.recover_right_zero(zfull[:, zero], qw)
    x[:, inf], has_right[inf] = unit_columns(zfull[:n, inf])
    for idx, name in ((zero, "zero_class"), (inf, "inf_class")):
        methods[idx] = np.where(has_right[idx], f"{name}_z1", f"{name}_degenerate")
    if config.want_left:
        finite = gs.cls == EIG_FINITE
        y = eigvec.recover_left(qw, np.where(finite, gs.alpha, gs.cls == EIG_INFINITE),
                                np.where(finite, gs.beta, gs.cls == EIG_ZERO), x)
    return methods, x, has_right, y, np.full(m, config.want_left)


def _deflated_pairs(d, want_left):
    """The zero and infinite pairs that deflation removed before QZ.

    Their vectors cycle through orthonormal bases of the null spaces of E
    and A of the working problem, the one deflated (``d.rp``). Returns one
    tuple of arrays per class, in the field order of :class:`EigenSolution`.
    """
    rp_w, n = d.rp, d.rp.n
    parts = []
    for which, cls, alpha, beta in (("zero_class", EIG_ZERO, 0.0, 1.0),
                                    ("inf_class", EIG_INFINITE, 1.0, 0.0)):
        # the working problem's count, as its steps deflated it
        count = sum(s.zeros if cls == EIG_ZERO else s.infs for s in d.steps)
        vectors = []
        for side in ("right", "left"):
            # a right-only solve gives no pair a left vector
            basis = (eigvec.nullspace_vectors(rp_w, which, side) if side == "right" or want_left
                     else np.zeros((n, 0)))
            k = basis.shape[1]
            vectors += [basis[:, np.arange(count) % k] if k else np.zeros((n, count)),
                        np.full(count, k > 0)]
        parts.append((np.full(count, alpha, dtype=np.complex128), np.full(count, beta),
                      np.full(count, cls, dtype=np.int8),
                      np.full(count, "deflated_nullspace", dtype=object), *vectors))
    return parts


def solve_pencil(q0: QuarticPencil, config: SolveConfig = SolveConfig(), name="problem") -> SolveResult:
    """Solve the quartic eigenvalue problem for the given coefficients.

    Runs with the BLAS at ``config.threads`` threads and records the count
    read back during the solve in ``blas_threads``. Where no BLAS thread
    count can be set, that is None and the result carries the flag
    ``blas_threads_not_set``.
    """
    with blas_threads(config.threads) as count:
        res = _solve(q0, config, name)
    res.blas_threads = count
    if count is None:
        res.flags.append("blas_threads_not_set")
    return res


def _solve(q0, config, name):
    flags = []
    n = q0.n

    qb, rec_bal = (
        scaling.balance(q0, weighted=config.scale)
        if config.balance
        else (q0, scaling.ScalingRecord())
    )
    qs, rec_scale = scaling.param_scale(qb) if config.scale else (qb, scaling.ScalingRecord())
    rec = dataclasses.replace(rec_scale, dl=rec_bal.dl, dr=rec_bal.dr)
    flags.extend(rec.flags)

    rp = analyze_ranks(qs, config.tol)
    d = deflate(rp) if config.deflate else None
    rp_w = rp if d is None else d.rp
    if d is None:
        gs = gevp.solve_gevp(linearize(rp_w.q))
    else:
        flags.extend(d.flags)
        gs = gevp.solve_gevp(d.pencil)

    zfull = gs.right if d is None else d.lift(gs.right)
    parts = [(gs.alpha, gs.beta, gs.cls, *_recover_all(gs, zfull, rp_w, config, flags))]
    if d is not None:
        parts += _deflated_pairs(d, config.want_left)
    alpha, beta, cls, *rest = (np.concatenate(f, axis=-1) for f in zip(*parts))
    if rp_w.reversed:
        alpha, beta, cls = reciprocal(alpha, beta, cls)
    sol = scaling.descale(EigenSolution(alpha, beta, cls, *rest), rec)

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
            "reversed": bool(d.reversed),
            "a_regular": d.a_regular,
            "b_regular": d.b_regular,
            "steps": [dataclasses.asdict(s) for s in d.steps],
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
