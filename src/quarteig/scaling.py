"""Parameter scaling and two-sided diagonal balancing.

Parameter scaling substitutes lambda = gamma*nu and multiplies the whole
polynomial by theta so the coefficient norms are equilibrated. With A_k
the coefficient of lambda^k (A = A_4, ..., E = A_0) and lo, hi the lowest
and highest degrees with A_k nonzero (0 and 4 when A and E are):

    gamma = (||A_lo||_F / ||A_hi||_F)^(1/(hi-lo))
    theta = (hi-lo) / (sum over lo <= k < hi of gamma^k ||A_k||_F)

With ``--scale off``, or fewer than two nonzero A_k, gamma = 1 and theta
is the power of two that puts the largest norm in [0.5, 1).

Balancing applies diagonal Dl (.) Dr with power-of-two entries chosen to
equilibrate the row/column sums of S = |A|+|B|+|C|+|D|+|E|; powers of
two make the inverse map on eigenvectors exact. The solver balances first,
with S weighted as parameter scaling weights the raw coefficients,
gamma^4|A| + gamma^3|B| + ... + |E| (Betcke, SIMAX 30 (2008)): unweighted,
the largest of graded coefficients alone would decide D.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ScalingError
from .numkit import safe_norm, unit_columns
from .pencil import EigenSolution, QuarticPencil, normalize


BALANCE_ITERS = 5  # balance's row and column passes


@dataclass(frozen=True)
class ScalingRecord:
    """Applied scaling: lambda = gamma*nu, polynomial times theta, Dl (.) Dr."""

    gamma: float = 1.0
    theta: float = 1.0
    dl: np.ndarray | None = None
    dr: np.ndarray | None = None


def _factors(q: QuarticPencil, equilibrate: bool):
    """(gamma, theta) of the module docstring.

    The Frobenius norms are taken by :func:`numkit.safe_norm`, so they
    neither overflow nor underflow at any coefficient scale. Raises
    :class:`ScalingError` when a factor leaves the floating-point range: the
    norms are too far apart when gamma or gamma^hi theta does or theta is 0,
    too small (subnormal coefficients, say) when theta overflows.
    """
    norms = [safe_norm(m) for m in reversed(q.coeffs)]  # norms[k] = ||A_k||_F
    deg = [k for k, nk in enumerate(norms) if nk > 0.0]
    if not equilibrate or len(deg) < 2:
        e = min(max(int(np.frexp(max(norms))[1]), -1021), 1022)  # theta stays normal
        return 1.0, 2.0**-e
    lo, hi, total = deg[0], deg[-1], 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gamma = (norms[lo] / norms[hi]) ** (1.0 / (hi - lo))  # numpy floats overflow to inf
        for k in range(lo, hi):
            total += gamma**k * norms[k]
        gamma, theta = float(gamma), float((hi - lo) / total)
        top = np.float64(gamma) ** hi * theta  # so gamma^k theta is finite for k <= hi
    if not (0.0 < gamma < np.inf and 0.0 < theta < np.inf and top < np.inf):
        cause = "too small" if 0.0 < gamma < np.inf and theta == np.inf else "too far apart"
        raise ScalingError(f"coefficient norms {cause} for parameter scaling: ||{'EDCBA'[lo]}||_F"
                           f"/||{'EDCBA'[hi]}||_F = {norms[lo]:.3g}/{norms[hi]:.3g} gives "
                           f"gamma = {gamma:.3g}, theta = {theta:.3g}")
    return gamma, theta


def param_scale(q: QuarticPencil, equilibrate: bool = True):
    """Fan-Lin-Van Dooren style parameter scaling of the coefficients;
    ``equilibrate`` off scales by the power of two theta alone."""
    gamma, theta = _factors(q, equilibrate)
    # a zero coefficient stays as it is: gamma^k may overflow above degree hi
    scaled = QuarticPencil(*(gamma**k * theta * m if m.any() else m
                             for k, m in zip(range(4, -1, -1), q.coeffs)))
    return scaled, ScalingRecord(gamma=gamma, theta=theta)


def _spread(s):
    """max/min over the nonzero row and column sums of s."""
    vals = np.concatenate([s.sum(axis=1), s.sum(axis=0)])
    vals = vals[vals > 0.0]
    if vals.size == 0:
        return 1.0
    return float(vals.max() / vals.min())


def balance(q: QuarticPencil, weighted: bool = False):
    """Two-sided power-of-two equilibration of S = |A|+...+|E|.

    ``weighted`` puts gamma^(4-k) over the largest such weight on the k-th
    term, with the gamma of :func:`param_scale` on ``q``. Alternates row
    and column passes that scale each row (column) sum toward the geometric
    mean of the nonzero sums; the iterate with the smallest spread (the
    start included) is returned, so the spread never increases.
    """
    n = q.n
    gamma = _factors(q, weighted)[0]
    w = [gamma ** (4 - k) if gamma <= 1.0 else gamma**-k for k in range(5)]
    s0 = sum(wk * np.abs(m) for wk, m in zip(w, q.coeffs))
    dl = np.ones(n)
    dr = np.ones(n)
    best = (_spread(s0), dl.copy(), dr.copy())
    for _ in range(BALANCE_ITERS):
        s = dl[:, None] * s0 * dr[None, :]
        for axis, vec in ((1, dl), (0, dr)):
            agg = s.sum(axis=axis)
            nz = agg > 0.0
            if not np.any(nz):
                continue
            g = np.exp(np.mean(np.log(agg[nz])))
            expo = np.zeros(n)
            expo[nz] = -np.round(np.log2(agg[nz] / g))
            vec *= 2.0**expo
            s = dl[:, None] * s0 * dr[None, :]
        sp = _spread(s)
        if sp < best[0]:
            best = (sp, dl.copy(), dr.copy())
        if sp <= 2.0:
            break
    _, dl, dr = best
    if np.all(dl == 1.0) and np.all(dr == 1.0):
        return q, ScalingRecord()
    scaled = QuarticPencil(*(dl[:, None] * m * dr[None, :] for m in q.coeffs))
    return scaled, ScalingRecord(dl=dl, dr=dr)


def _remap(v, has, diag):
    """Columns of v marked in ``has`` scaled by diag and renormalized."""
    if diag is None or not has.any():
        return v
    out = v.copy()
    out[:, has] = unit_columns(diag[:, None] * v[:, has])
    return out


def descale(sol: EigenSolution, rec: ScalingRecord) -> EigenSolution:
    """Map a solution of the scaled/balanced problem back to the original.

    Finite eigenvalues pick up the factor gamma (alpha <- gamma*alpha on the
    homogeneous pair, renormalized; exact for the zero/infinite classes);
    right vectors are rescaled by Dr and left vectors by Dl, then
    renormalized.
    """
    if rec.gamma == 1.0 and rec.dl is None and rec.dr is None:
        return sol
    alpha, beta = sol.alpha, sol.beta
    if rec.gamma != 1.0:
        moved = (beta != 0.0) & (alpha != 0.0)
        ga, gb = normalize(rec.gamma * alpha, beta)
        alpha, beta = np.where(moved, ga, alpha), np.where(moved, gb, beta)
    return dataclasses.replace(sol, alpha=alpha, beta=beta,
                               x=_remap(sol.x, sol.has_right, rec.dr),
                               y=_remap(sol.y, sol.has_left, rec.dl))
