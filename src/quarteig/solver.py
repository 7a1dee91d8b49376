"""End-to-end solve pipeline.

Order: balance -> parameter scale -> rank analysis -> (reverse if only A is
singular) -> linearize -> deflate -> QZ -> lift/recover eigenvectors ->
descale -> diagnostics. Backward errors in the report are always evaluated
against the original, unscaled coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, eigvec, gevp, probio, scaling
from .deflate import analyze_ranks, deflate, second_level
from .errors import DegenerateVectorError
from .numkit import blas_threads, make_strategy, unit
from .pencil import (
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    EigenSolution,
    QuarticPencil,
    eig_infinite,
    eig_zero,
    linearize,
    reciprocal_eig,
    reverse,
)

_PKG_VERSION = "0.1.0"


@dataclass(frozen=True)
class SolveConfig:
    """Pipeline knobs; defaults follow the solver's documented behavior.

    ``threads`` is the BLAS thread count for the duration of a solve; the
    caller's count is restored afterwards. The default of 1 is the faster
    one at the sizes measured (n up to 128 on 2 cores), where the BLAS calls
    are too small to gain from a second thread. The setting is process-wide:
    solves running in different Python threads share one count.
    """

    scale: bool = True
    balance: bool = True
    balance_iters: int = 5
    rank_strategy: str = "norm"
    tol: float | None = None
    deflate: bool = True
    eigvec_mode: str = "min_residual"
    want_left: bool = True
    threads: int = 1

    def validate(self):
        if self.tol is not None and not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.rank_strategy not in ("norm", "dropoff"):
            raise ValueError(f"unknown rank strategy {self.rank_strategy!r}")
        if self.eigvec_mode not in ("min_residual", "least_squares"):
            raise ValueError(f"unknown eigvec mode {self.eigvec_mode!r}")
        if self.balance_iters < 0:
            raise ValueError("balance_iters must be >= 0")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        return self

    def label(self):
        """Short comma-free tag (used in merged CSV column names)."""
        return (
            f"scale={'on' if self.scale else 'off'};"
            f"balance={'on' if self.balance else 'off'};"
            f"strategy={self.rank_strategy};deflate={'on' if self.deflate else 'off'}"
        )


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


def _lift_all(gs, d, eigs, flags):
    """Lift every backend eigenvector to the full linearization.

    Without deflation (or when it deflated nothing, so the transforms are
    the identity) the backend's unit vectors are already full-size.
    Otherwise right vectors go through one product with Q (unitary, so they
    stay unit), and the left vectors of the finite eigenvalues through one
    batched :func:`eigvec.lift_left`. Returns ``(zfull, wfull, has_left)``,
    where ``has_left`` marks the columns of ``wfull`` that hold a left
    vector (``wfull`` is None without left vectors).
    """
    if d is None or d.size == d.full_size:
        return gs.right, gs.left, np.full(len(eigs), gs.left is not None)
    zfull = d.q[:, : d.size] @ gs.right
    has_left = np.zeros(len(eigs), dtype=bool)
    idx = np.flatnonzero([e.cls == EIG_FINITE for e in eigs])
    if gs.left is None or not idx.size:
        return zfull, None, has_left
    wfull = np.zeros((d.full_size, len(eigs)), dtype=np.complex128)
    wfull[:, idx], ok = eigvec.lift_left(gs.left[:, idx], [eigs[i] for i in idx], d)
    flags.extend(f"lift_left_failed_index_{i}" for i in idx[~ok])
    has_left[idx[ok]] = True
    return zfull, wfull, has_left


def _basis_column(basis, k):
    """Column k (cyclically) of a nullspace basis; None for no basis."""
    if basis is None or not basis.shape[1]:
        return None
    return basis[:, k % basis.shape[1]]


def _recover_all(eigs, zfull, wfull, has_left, ctx, qw, config, flags):
    """Quartic eigenvectors for every backend eigenpair."""
    n = qw.n
    nj = len(eigs)
    right = [None] * nj
    left = [None] * nj
    methods = ["unset"] * nj
    finite_idx = [i for i, e in enumerate(eigs) if e.cls == EIG_FINITE]
    if finite_idx:
        if config.eigvec_mode == "least_squares":
            for i in finite_idx:
                right[i] = eigvec.recover_right_ls(zfull[:, i], eigs[i], ctx)
                methods[i] = "least_squares"
        else:
            batch = eigvec.recover_right_many(
                zfull[:, finite_idx], [eigs[i] for i in finite_idx], ctx
            )
            for i, (x, method, _) in zip(finite_idx, batch):
                right[i] = x
                methods[i] = method
                if x is None:
                    flags.append(f"recover_right_degenerate_index_{i}")
        left_idx = [i for i in finite_idx if has_left[i]]
        if left_idx:
            ys, ok = eigvec.recover_left(wfull[:, left_idx])
            for col, i in enumerate(left_idx):
                if ok[col]:
                    left[i] = ys[:, col]
                else:
                    flags.append(f"recover_left_degenerate_index_{i}")
    for i, eig in enumerate(eigs):
        if eig.cls == EIG_ZERO:
            try:
                right[i], _ = eigvec.recover_right_zero(zfull[:, i], qw)
                methods[i] = "zero_class_z1"
            except DegenerateVectorError:
                methods[i] = "zero_class_degenerate"
            if has_left[i] and np.linalg.norm(wfull[3 * n :, i]) > 0:
                left[i] = unit(wfull[3 * n :, i])
        elif eig.cls == EIG_INFINITE:
            z1 = zfull[:n, i]
            if np.linalg.norm(z1) > 0:
                right[i] = unit(z1)
                methods[i] = "inf_class_z1"
            else:
                methods[i] = "inf_class_degenerate"
            if has_left[i] and np.linalg.norm(wfull[:n, i]) > 0:
                left[i] = unit(wfull[:n, i])
    return right, left, methods


def solve_pencil(q0: QuarticPencil, config: SolveConfig = SolveConfig(), name="problem") -> SolveResult:
    """Solve the quartic eigenvalue problem for the given coefficients.

    Runs with the BLAS at ``config.threads`` threads and records the count
    read back during the solve in ``blas_threads``. Where no BLAS thread
    count can be set, that is None and the result carries the flag
    ``blas_threads_not_set``.
    """
    config.validate()
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
        scaling.balance(q0, config.balance_iters)
        if config.balance
        else (q0, scaling.ScalingRecord())
    )
    qs, rec_scale = scaling.param_scale(qb) if config.scale else (qb, scaling.ScalingRecord())
    rec = rec_bal.merged(rec_scale)
    flags.extend(rec.flags)

    strategy = make_strategy(config.rank_strategy, config.tol)
    rp = analyze_ranks(qs, strategy)

    reversed_problem = bool(config.deflate and rp.r_a < n and rp.r_e == n)
    qw = reverse(qs) if reversed_problem else qs
    rp_w = rp.swapped() if reversed_problem else rp
    lin = linearize(qw)

    d = None
    if config.deflate:
        sl = None
        if rp_w.r_a < n or rp_w.r_e < n:
            sl = second_level(qw, rp_w)
        d = deflate(lin, qw, rp_w, sl, strategy=strategy)
        flags.extend(d.flags)
        if reversed_problem:
            # counts in the result always refer to the original problem
            d.reversed = True
            d.zeros_deflated, d.infs_deflated = d.infs_deflated, d.zeros_deflated
        gs = gevp.solve_gevp(d.pencil, want_left=config.want_left)
    else:
        gs = gevp.solve_gevp(lin, want_left=config.want_left)

    needs_ctx = any(e.cls == EIG_FINITE for e in gs.eigs)
    ctx = eigvec.build_context(qw) if needs_ctx else None

    eigs = list(gs.eigs)
    zfull, wfull, has_left = _lift_all(gs, d, eigs, flags)
    right, left, methods = _recover_all(eigs, zfull, wfull, has_left, ctx, qw, config, flags)

    if d is not None:
        # counts in the working (possibly reversed) problem's orientation
        zeros_w = d.infs_deflated if d.reversed else d.zeros_deflated
        infs_w = d.zeros_deflated if d.reversed else d.infs_deflated
        for count, which, make in ((zeros_w, "zero_class", eig_zero),
                                   (infs_w, "inf_class", eig_infinite)):
            right_b = eigvec.nullspace_vectors(rp_w, which, "right")
            # a right-only solve gives no pair a left vector
            left_b = eigvec.nullspace_vectors(rp_w, which, "left") if config.want_left else None
            for k in range(count):
                eigs.append(make())
                right.append(_basis_column(right_b, k))
                left.append(_basis_column(left_b, k))
                methods.append("deflated_nullspace")

    if reversed_problem:
        eigs = [reciprocal_eig(e) for e in eigs]

    sol = EigenSolution(eigs=eigs, right=right, left=left, methods=methods)
    sol = scaling.descale(sol, rec)

    norms0 = diagnostics.CoefficientNorms(q0)
    diags = diagnostics.diagnostics_many(sol.eigs, sol.right, sol.left, q0, norms0)
    sol.diags = diags
    summary = diagnostics.summarize(diags)

    if len(sol.eigs) != 4 * n:
        flags.append(f"eigenvalue_count_{len(sol.eigs)}_of_{4 * n}")

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


def _finite_or_none(val):
    return None if val is None or not np.isfinite(val) else float(val)


def build_report(res: SolveResult) -> dict:
    """JSON-able report document (deterministic: no timestamps)."""
    cfg = res.config
    pairs = []
    order = res.summary.order
    for rank_pos, idx in enumerate(order):
        eig = res.solution.eigs[idx]
        dg = res.solution.diags[idx]
        lam = eig.lam
        pairs.append(
            {
                "index": rank_pos,
                "alpha": [float(np.real(eig.alpha)), float(np.imag(eig.alpha))],
                "beta": float(eig.beta),
                "lambda": None
                if eig.cls == EIG_INFINITE
                else [float(np.real(lam)), float(np.imag(lam))],
                "class": eig.cls,
                "eta_right": _finite_or_none(dg.eta_right),
                "eta_left": _finite_or_none(dg.eta_left),
                "omega_right": _finite_or_none(dg.omega_right),
                "omega_left": _finite_or_none(dg.omega_left),
                "method": res.solution.methods[idx],
            }
        )
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
            "steps": [s.as_dict() for s in d.steps],
            "flags": list(d.flags),
        }
    return {
        "problem": res.problem,
        "n": res.n,
        "config": {
            "scale": cfg.scale,
            "balance": cfg.balance,
            "balance_iters": cfg.balance_iters,
            "rank_strategy": cfg.rank_strategy,
            "tol": cfg.tol,
            "deflate": cfg.deflate,
            "eigvec_mode": cfg.eigvec_mode,
        },
        "scaling": {
            "gamma": res.record.gamma,
            "theta": res.record.theta,
            "balanced": res.record.dl is not None or res.record.dr is not None,
        },
        "deflation": deflation,
        "eigenpairs": pairs,
        "summary": res.summary.as_dict(),
        "flags": list(res.flags),
        "meta": {"backend": res.backend, "package": _PKG_VERSION, "threads": res.blas_threads},
    }
