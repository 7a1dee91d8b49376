"""Backward-error diagnostics for computed eigenpairs.

The norm-wise backward error of a right eigenpair (lambda, x) is the
normalized residual

    eta(lambda, x) = ||P(lambda) x|| / ((|lambda|^4 ||A|| + ... + ||E||) ||x||)

with spectral norms of the coefficients, and eta(inf, x) = ||Ax||/(||A|| ||x||).
Both are evaluated in homogeneous (alpha, beta) form so no power of lambda is
ever formed explicitly. The component-wise error omega uses row-wise
absolute-value weights instead and is defined for finite eigenvalues only.
Left eigenpairs use y* P(lambda) in the same way. :func:`diagnostics_many`
evaluates all four errors for a whole solution at once and returns one
array per error; the residual norms are taken by :func:`numkit.safe_norm`,
so eta neither overflows nor underflows on coefficients of extreme scale.
:func:`summarize` reads those arrays straight off the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import safe_norm
from .pencil import CLASS_NAMES, EIG_INFINITE, QuarticPencil

ERRORS = ("eta_right", "eta_left", "omega_right", "omega_left")

# eta_right or eta_left above this flags a pair as untrustworthy: stable pairs
# come out near n*eps, a spectrum lost to unscaled coefficients at 1e-4 to 1
ETA_TOL = 1e-12


class CoefficientNorms:
    """Cached spectral norms and entrywise magnitudes of the coefficients."""

    def __init__(self, q: QuarticPencil):
        self.q = q
        # (A, ..., E): the largest singular values from one batched SVD, the
        # bits of np.linalg.norm(m, 2) per coefficient
        self.two = np.linalg.svd(np.stack(q.coeffs), compute_uv=False).max(axis=1)
        self._abs = None

    @property
    def abs_coeffs(self):
        if self._abs is None:
            self._abs = tuple(np.abs(m) for m in self.q.coeffs)
        return self._abs


def homogeneous_weights(alpha, beta):
    """Rows (a^4, a^3 b, a^2 b^2, a b^3, b^4), one column per eigenvalue."""
    return np.stack([alpha ** (4 - k) * beta**k for k in range(5)])


def weighted_products(mats, w, x):
    """sum_k w[k] * (mats[k] @ x), with one weight per column of x.

    The sum starts from zeros and adds the terms in the order of ``mats``,
    the one rounding of every residual P(lambda) x (and of its absolute
    bound) in the package.
    """
    out = np.zeros(x.shape, dtype=np.result_type(w, x, mats[0]))
    for wk, m in zip(w, mats):
        out += wk[None, :] * (m @ x)
    return out


def diagnostics_many(sol, q: QuarticPencil, norms: CoefficientNorms | None = None):
    """Backward errors of every pair of a solution in a few matrix products.

    ``sol`` is an :class:`~quarteig.pencil.EigenSolution`. Returns a dict of
    the four arrays named in ``ERRORS``, NaN where the side has no vector and
    for omega of an infinite eigenvalue. A zero vector gets eta = omega =
    inf, so it can never pass for an exact pair.
    """
    norms = norms or CoefficientNorms(q)
    w = homogeneous_weights(sol.alpha, sol.beta)
    wa = np.abs(w)
    den = wa.T @ norms.two
    out = {}
    for side, vectors, has in (("right", sol.x, sol.has_right), ("left", sol.y, sol.has_left)):
        eta = np.full(len(sol), np.nan)
        omega = np.full(len(sol), np.nan)
        cols = np.flatnonzero(has)
        if cols.size:
            x = np.ascontiguousarray(vectors[:, cols])
            if side == "left":  # y* P(lambda)
                r = weighted_products([m.conj().T for m in q.coeffs], np.conj(w[:, cols]), x)
                s = weighted_products([am.T for am in norms.abs_coeffs], wa[:, cols], np.abs(x))
            else:
                r = weighted_products(q.coeffs, w[:, cols], x)
                s = weighted_products(norms.abs_coeffs, wa[:, cols], np.abs(x))
            rabs = np.abs(r)
            nums = safe_norm(rabs, axis=0)
            xn = np.linalg.norm(x, axis=0)
            d = den[cols] * xn
            eta[cols] = np.where(d > 0.0, nums / np.where(d > 0.0, d, 1.0),
                                 np.where(nums > 0.0, np.inf, 0.0))
            ratio = np.where(s > 0.0, rabs / np.where(s > 0.0, s, 1.0),
                             np.where(rabs > 0.0, np.inf, 0.0))
            omega[cols] = ratio.max(axis=0)
            eta[cols[xn == 0.0]] = omega[cols[xn == 0.0]] = np.inf
        omega[sol.cls == EIG_INFINITE] = np.nan
        out[f"eta_{side}"], out[f"omega_{side}"] = eta, omega
    return out


@dataclass
class SummaryReport:
    counts: dict
    stats: dict
    order: list = field(default_factory=list)

    def as_dict(self):
        return {"counts": dict(self.counts), **{k: dict(v) for k, v in self.stats.items()}}


def _stat(vals):
    """min/max/median of the finite entries of a float array (None where
    there are none).

    The median is read off the sorted values, the mean of the two middle
    ones for an even count, as ``np.median`` computes it; ``np.median``
    itself imports ``numpy.ma``, which would cost a command-line solve more
    than the rest of its statistics.
    """
    vals = np.sort(vals[np.isfinite(vals)])
    if not vals.size:
        return {"min": None, "max": None, "median": None}
    mid = vals.size // 2
    return {
        "min": float(vals[0]),
        "max": float(vals[-1]),
        "median": float(vals[mid] if vals.size % 2 else (vals[mid - 1] + vals[mid]) / 2.0),
    }


def summarize(sol) -> SummaryReport:
    """Class counts, min/max/median of each backward error, and the order.

    The order sorts pairs by eigenvalue modulus (infinite ones last), ties
    broken by index. Errors that are NaN (not computed) or inf drop out of
    the statistics.
    """
    if not len(sol):
        raise ValueError("summarize requires at least one eigenpair")
    counts = dict(zip(CLASS_NAMES, np.bincount(sol.cls, minlength=3).tolist()))
    with np.errstate(divide="ignore"):
        modulus = np.where(sol.cls == EIG_INFINITE, np.inf,
                           np.hypot(sol.alpha.real, sol.alpha.imag) / sol.beta)
    order = np.lexsort((np.arange(len(sol)), modulus)).tolist()
    stats = {name: _stat(getattr(sol, name)) for name in ERRORS}
    return SummaryReport(counts=counts, stats=stats, order=order)
