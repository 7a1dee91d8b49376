"""End-to-end solve pipeline.

Order: balance (weighted by the parameter scaling's gamma) -> parameter
scale -> rank analysis -> (reverse if only A is singular) -> linearize ->
deflate -> QZ -> lift/recover eigenvectors -> descale -> diagnostics.
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
from .deflate import analyze_ranks, deflate, second_level
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
    reverse,
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


def _lift_all(gs, d, flags):
    """Lift every backend eigenvector to the full linearization.

    Without deflation (or when it deflated nothing, so the transforms are
    the identity) the backend's unit vectors are already full-size.
    Otherwise right vectors go through one product with Q (unitary, so they
    stay unit), and the left vectors of the finite eigenvalues through one
    batched :func:`eigvec.lift_left`. Returns ``(zfull, wfull, lifted)``,
    where ``lifted`` marks the columns of ``wfull`` that hold a left vector
    (``wfull`` is None without left vectors).
    """
    if d is None or d.size == d.full_size:
        return gs.right, gs.left, np.full(len(gs), gs.left is not None)
    zfull = d.q[:, : d.size] @ gs.right
    lifted = np.zeros(len(gs), dtype=bool)
    idx = np.flatnonzero(gs.cls == EIG_FINITE)
    if gs.left is None or not idx.size:
        return zfull, None, lifted
    wfull = np.zeros((d.full_size, len(gs)), dtype=np.complex128)
    wfull[:, idx], ok = eigvec.lift_left(gs.left[:, idx], gs.alpha[idx], gs.beta[idx], d)
    flags.extend(f"lift_left_failed_index_{i}" for i in idx[~ok])
    lifted[idx[ok]] = True
    return zfull, wfull, lifted


def _recover_all(gs, zfull, wfull, lifted, ctx, qw, config, flags):
    """Quartic eigenvectors for every backend eigenpair.

    Returns ``(methods, x, has_right, y, has_left)``: one column of the
    n x m arrays ``x`` and ``y`` per pair, zero where its mask is unset.
    """
    n, m = qw.n, len(gs)
    x, y = np.zeros((2, n, m), dtype=np.complex128)
    has_right, has_left = np.zeros((2, m), dtype=bool)
    methods = np.full(m, "unset", dtype=object)
    fin, zero, inf = (np.flatnonzero(gs.cls == c) for c in (EIG_FINITE, EIG_ZERO, EIG_INFINITE))
    if fin.size and config.eigvec_mode == "least_squares":
        x[:, fin] = eigvec.recover_right_ls(zfull[:, fin], gs.alpha[fin], gs.beta[fin], ctx)
        has_right[fin], methods[fin] = True, "least_squares"
    elif fin.size:
        batch = eigvec.recover_right_many(zfull[:, fin], gs.alpha[fin], gs.beta[fin], ctx)
        xs, methods[fin], _ = zip(*batch)
        ok = has_right[fin] = methods[fin] != "degenerate"
        if ok.any():
            x[:, fin[ok]] = np.column_stack(list(compress(xs, ok)))
        flags.extend(f"recover_right_degenerate_index_{i}" for i in fin[~ok])
    sel = fin[lifted[fin]]
    if sel.size:
        y[:, sel], has_left[sel] = eigvec.recover_left(wfull[:, sel])
        flags.extend(f"recover_left_degenerate_index_{i}" for i in sel[~has_left[sel]])
    if zero.size:
        x[:, zero], has_right[zero] = eigvec.recover_right_zero(zfull[:, zero], qw)
    x[:, inf], has_right[inf] = unit_columns(zfull[:n, inf])
    # the left vector of a zero (infinite) eigenvalue is the last (first) block of w
    for idx, name, blk in ((zero, "zero_class", slice(3 * n, None)), (inf, "inf_class", slice(n))):
        methods[idx] = np.where(has_right[idx], f"{name}_z1", f"{name}_degenerate")
        sel = idx[lifted[idx]]
        if sel.size:
            y[:, sel], has_left[sel] = unit_columns(wfull[blk, sel])
    return methods, x, has_right, y, has_left


def _deflated_pairs(d, rp_w, n, want_left):
    """The zero and infinite pairs that deflation removed before QZ.

    Their vectors cycle through orthonormal bases of the null spaces of the
    working problem's E and A. Returns one tuple of arrays per class, in
    the field order of :class:`EigenSolution`.
    """
    # counts in the working (possibly reversed) problem's orientation
    zeros_w = d.infs_deflated if d.reversed else d.zeros_deflated
    infs_w = d.zeros_deflated if d.reversed else d.infs_deflated
    parts = []
    for count, which, cls, alpha, beta in ((zeros_w, "zero_class", EIG_ZERO, 0.0, 1.0),
                                           (infs_w, "inf_class", EIG_INFINITE, 1.0, 0.0)):
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
    rec = rec_bal.merged(rec_scale)
    flags.extend(rec.flags)

    rp = analyze_ranks(qs, config.tol)

    reversed_problem = bool(config.deflate and rp.r_a < n and rp.r_e == n)
    qw = reverse(qs) if reversed_problem else qs
    rp_w = rp.swapped() if reversed_problem else rp
    lin = linearize(qw)

    d = None
    if config.deflate:
        sl = None
        if rp_w.r_a < n or rp_w.r_e < n:
            sl = second_level(qw, rp_w)
        d = deflate(lin, qw, rp_w, sl)
        flags.extend(d.flags)
        if reversed_problem:
            # counts in the result always refer to the original problem
            d.reversed = True
            d.zeros_deflated, d.infs_deflated = d.infs_deflated, d.zeros_deflated
        gs = gevp.solve_gevp(d.pencil, want_left=config.want_left)
    else:
        gs = gevp.solve_gevp(lin, want_left=config.want_left)

    ctx = eigvec.build_context(qw, rp_w.qr_e) if np.any(gs.cls == EIG_FINITE) else None
    zfull, wfull, lifted = _lift_all(gs, d, flags)
    parts = [(gs.alpha, gs.beta, gs.cls,
              *_recover_all(gs, zfull, wfull, lifted, ctx, qw, config, flags))]
    if d is not None:
        parts += _deflated_pairs(d, rp_w, n, config.want_left)
    alpha, beta, cls, *rest = (np.concatenate(f, axis=-1) for f in zip(*parts))
    if reversed_problem:
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
