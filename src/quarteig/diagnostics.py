"""Backward-error diagnostics for computed eigenpairs.

The norm-wise backward error of a right eigenpair (lambda, x) is the
normalized residual

    eta(lambda, x) = ||P(lambda) x|| / ((|lambda|^4 ||A|| + ... + ||E||) ||x||)

with spectral norms of the coefficients, and eta(inf, x) = ||Ax||/(||A|| ||x||).
Both are evaluated in homogeneous (alpha, beta) form so no power of lambda is
ever formed explicitly. The component-wise error omega uses row-wise
absolute-value weights instead and is defined for finite eigenvalues only.
Left eigenpairs use y* P(lambda) in the same way. :func:`diagnostics_many`
evaluates all four errors for a whole solution at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pencil import (
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    HomogeneousEig,
    QuarticPencil,
)


class CoefficientNorms:
    """Cached spectral norms and entrywise magnitudes of the coefficients."""

    def __init__(self, q: QuarticPencil):
        self.q = q
        self.two = np.array([np.linalg.norm(m, 2) for m in q.coeffs])  # (A, ..., E)
        self._abs = None

    @property
    def abs_coeffs(self):
        if self._abs is None:
            self._abs = tuple(np.abs(m) for m in self.q.coeffs)
        return self._abs


def homogeneous_weights(eigs):
    """Rows (a^4, a^3 b, a^2 b^2, a b^3, b^4), one column per eigenvalue."""
    w = np.empty((5, len(eigs)), dtype=np.complex128)
    for j, e in enumerate(eigs):
        a, b = e.alpha, e.beta
        w[:, j] = (a**4, a**3 * b, a**2 * b**2, a * b**3, b**4)
    return w


def diagnostics_many(eigs, rights, lefts, q: QuarticPencil, norms: CoefficientNorms | None = None):
    """Per-pair backward errors for a whole solution in a few matrix products.

    Entries of ``rights``/``lefts`` may be None (their diagnostics come back
    None); omega is None for infinite eigenvalues. A zero vector gets
    eta = omega = inf, so it can never pass for an exact pair.
    """
    norms = norms or CoefficientNorms(q)
    nj = len(eigs)
    w = homogeneous_weights(eigs)
    wa = np.abs(w)
    den = wa.T @ norms.two

    def side(vectors, left):
        """(eta, omega) per pair of one side; the left side is y* P(lambda)."""
        etas, omegas = [None] * nj, [None] * nj
        cols = [j for j, v in enumerate(vectors) if v is not None]
        if not cols:
            return etas, omegas
        x = np.column_stack([vectors[j] for j in cols])
        r = np.zeros(x.shape, dtype=np.complex128)
        s = np.zeros(x.shape)
        ax = np.abs(x)
        for k, (m, am) in enumerate(zip(q.coeffs, norms.abs_coeffs)):
            if left:
                r += np.conj(w[k, cols])[None, :] * (m.conj().T @ x)
                s += wa[k, cols][None, :] * (am.T @ ax)
            else:
                r += w[k, cols][None, :] * (m @ x)
                s += wa[k, cols][None, :] * (am @ ax)
        rabs = np.abs(r)
        nums = np.linalg.norm(rabs, axis=0)
        xn = np.linalg.norm(x, axis=0)
        d = den[cols] * xn
        eta = np.where(d > 0.0, nums / np.where(d > 0.0, d, 1.0), np.where(nums > 0.0, np.inf, 0.0))
        ratio = np.where(s > 0.0, rabs / np.where(s > 0.0, s, 1.0), np.where(rabs > 0.0, np.inf, 0.0))
        omega = ratio.max(axis=0)
        eta[xn == 0.0] = omega[xn == 0.0] = np.inf
        for i, j in enumerate(cols):
            etas[j] = float(eta[i])
            if eigs[j].cls != EIG_INFINITE:
                omegas[j] = float(omega[i])
        return etas, omegas

    eta_r, om_r = side(rights, left=False)
    eta_l, om_l = side(lefts, left=True)
    return [
        PairDiagnostics(
            eta_right=eta_r[j],
            eta_left=eta_l[j],
            omega_right=om_r[j],
            omega_left=om_l[j],
            cls=eigs[j].cls,
            eig=eigs[j],
        )
        for j in range(nj)
    ]


@dataclass
class PairDiagnostics:
    """Per-eigenpair backward errors (None where undefined/not computed)."""

    eta_right: float | None
    eta_left: float | None
    omega_right: float | None
    omega_left: float | None
    cls: str
    eig: HomogeneousEig | None = None


@dataclass
class SummaryReport:
    counts: dict
    stats: dict
    order: list = field(default_factory=list)

    def as_dict(self):
        return {"counts": dict(self.counts), **{k: dict(v) for k, v in self.stats.items()}}


def _stat(vals):
    """min/max/median of the finite entries of a float array (None where
    there are none)."""
    vals = vals[np.isfinite(vals)]
    if not vals.size:
        return {"min": None, "max": None, "median": None}
    return {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "median": float(np.median(vals)),
    }


def summarize(diags) -> SummaryReport:
    """Aggregate per-pair diagnostics: min/max/median, class counts, order.

    The order sorts pairs by eigenvalue modulus (infinite and unknown ones
    last), ties broken by index.
    """
    diags = list(diags)
    if not diags:
        raise ValueError("summarize requires at least one eigenpair")
    classes = [d.cls for d in diags]
    counts = {c: classes.count(c) for c in (EIG_ZERO, EIG_FINITE, EIG_INFINITE)}
    modulus = np.array([np.inf if d.eig is None else d.eig.modulus for d in diags])
    order = np.lexsort((np.arange(len(diags)), modulus)).tolist()
    # one column per error; None (not computed) becomes NaN and drops out
    errors = np.array(
        [(d.eta_right, d.eta_left, d.omega_right, d.omega_left) for d in diags], dtype=float
    )
    names = ("eta_right", "eta_left", "omega_right", "omega_left")
    stats = {name: _stat(errors[:, k]) for k, name in enumerate(names)}
    return SummaryReport(counts=counts, stats=stats, order=order)
