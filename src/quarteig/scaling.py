"""Parameter scaling and two-sided diagonal balancing.

Parameter scaling substitutes lambda = gamma*nu and multiplies the whole
polynomial by theta so the coefficient norms are equilibrated:

    gamma = (||E||_F / ||A||_F)^(1/4)
    theta = 4 / (||E||_F + gamma ||D||_F + gamma^2 ||C||_F + gamma^3 ||B||_F)

Balancing applies diagonal Dl (.) Dr with power-of-two entries chosen to
equilibrate the row/column aggregates of S = |A|+|B|+|C|+|D|+|E|; powers of
two make the inverse map on eigenvectors exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pencil import (
    EigenSolution,
    HomogeneousEig,
    QuarticPencil,
    normalize_pair,
)


@dataclass(frozen=True)
class ScalingRecord:
    """Applied scaling: lambda = gamma*nu, polynomial times theta, Dl (.) Dr."""

    gamma: float = 1.0
    theta: float = 1.0
    dl: np.ndarray | None = None
    dr: np.ndarray | None = None
    flags: tuple = ()

    @property
    def is_identity(self):
        return (
            self.gamma == 1.0
            and self.theta == 1.0
            and self.dl is None
            and self.dr is None
        )

    def merged(self, other: "ScalingRecord") -> "ScalingRecord":
        """Combine a balancing record with a parameter-scaling record."""
        if self.dl is not None and other.dl is not None:
            raise ValueError("cannot merge two balancing records")
        return ScalingRecord(
            gamma=self.gamma * other.gamma,
            theta=self.theta * other.theta,
            dl=self.dl if self.dl is not None else other.dl,
            dr=self.dr if self.dr is not None else other.dr,
            flags=self.flags + other.flags,
        )


def param_scale(q: QuarticPencil):
    """Fan-Lin-Van Dooren style parameter scaling of the coefficients."""
    na = np.linalg.norm(q.a)
    ne = np.linalg.norm(q.e)
    if na == 0.0 or ne == 0.0:
        rec = ScalingRecord(flags=("scale_skipped_zero_extreme_coefficient",))
        return q, rec
    gamma = float((ne / na) ** 0.25)
    theta = float(
        4.0
        / (
            ne
            + gamma * np.linalg.norm(q.d)
            + gamma**2 * np.linalg.norm(q.c)
            + gamma**3 * np.linalg.norm(q.b)
        )
    )
    scaled = QuarticPencil(
        a=gamma**4 * theta * q.a,
        b=gamma**3 * theta * q.b,
        c=gamma**2 * theta * q.c,
        d=gamma * theta * q.d,
        e=theta * q.e,
    )
    return scaled, ScalingRecord(gamma=gamma, theta=theta)


def _aggregate(s, axis, how):
    if how == "sum":
        return s.sum(axis=axis)
    if how == "max":
        return s.max(axis=axis, initial=0.0)
    raise ValueError(f"unknown aggregate {how!r}")


def _spread(s, how):
    """max/min over nonzero row and column aggregates of s."""
    vals = np.concatenate([_aggregate(s, 1, how), _aggregate(s, 0, how)])
    vals = vals[vals > 0.0]
    if vals.size == 0:
        return 1.0
    return float(vals.max() / vals.min())


def balance(q: QuarticPencil, max_iter: int = 5, aggregate: str = "sum"):
    """Two-sided power-of-two equilibration of S = |A|+...+|E|.

    Alternates row and column passes that scale each aggregate toward the
    geometric mean of the nonzero aggregates; the iterate with the smallest
    spread (the start included) is returned, so the spread never increases.
    """
    n = q.n
    s0 = sum(np.abs(m) for m in q.coeffs)
    dl = np.ones(n)
    dr = np.ones(n)
    best = (_spread(s0, aggregate), dl.copy(), dr.copy())
    for _ in range(max_iter):
        s = dl[:, None] * s0 * dr[None, :]
        for axis, vec in ((1, dl), (0, dr)):
            agg = _aggregate(s, axis, aggregate)
            nz = agg > 0.0
            if not np.any(nz):
                continue
            g = np.exp(np.mean(np.log(agg[nz])))
            expo = np.zeros(n)
            expo[nz] = -np.round(np.log2(agg[nz] / g))
            vec *= 2.0**expo
            s = dl[:, None] * s0 * dr[None, :]
        sp = _spread(s, aggregate)
        if sp < best[0]:
            best = (sp, dl.copy(), dr.copy())
        if sp <= 2.0:
            break
    _, dl, dr = best
    if np.all(dl == 1.0) and np.all(dr == 1.0):
        return q, ScalingRecord()
    scaled = QuarticPencil(*(dl[:, None] * m * dr[None, :] for m in q.coeffs))
    return scaled, ScalingRecord(dl=dl, dr=dr)


def descale(sol: EigenSolution, rec: ScalingRecord) -> EigenSolution:
    """Map a solution of the scaled/balanced problem back to the original.

    Finite eigenvalues pick up the factor gamma (alpha <- gamma*alpha on the
    homogeneous pair, exact for the zero/infinite classes); right vectors are
    rescaled by Dr and left vectors by Dl, then renormalized, each side as
    one array.
    """
    if rec.is_identity:
        return sol
    eigs = []
    for eig in sol.eigs:
        if rec.gamma != 1.0 and eig.beta != 0.0 and eig.alpha != 0.0:
            alpha, beta = normalize_pair(rec.gamma * eig.alpha, eig.beta)
            eigs.append(HomogeneousEig(alpha=alpha, beta=beta, cls=eig.cls))
        else:
            eigs.append(eig)

    def remap(vecs, diag):
        """Scale every vector by diag and renormalize, as one array."""
        idx = [i for i, v in enumerate(vecs) if v is not None]
        out = list(vecs)
        if diag is None or not idx:
            return out
        w = np.stack([vecs[i] for i in idx]) * diag[None, :]
        nrm = np.linalg.norm(w, axis=1, keepdims=True)
        w = np.divide(w, nrm, out=w, where=nrm > 0.0)
        for row, i in enumerate(idx):
            out[i] = w[row]
        return out

    return EigenSolution(
        eigs=eigs,
        right=remap(sol.right, rec.dr),
        left=remap(sol.left, rec.dl),
        methods=list(sol.methods),
        diags=sol.diags,
    )
