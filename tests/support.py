"""Problem builders and small helpers shared by the tests.

``orr_sommerfeld`` builds an application quartic with numpy alone,
``far_apart_norms`` quartics beyond the reach of parameter scaling and
``reverse`` the reversal of a quartic;
``from_lambda`` and ``solution`` turn affine eigenvalues and vectors into
the package's arrays, the input that the batched eigenvector and
diagnostics routines take; ``assert_equivalent`` checks a deflation's
work matrices against the pencil it started from.
"""

import numpy as np

from oracles import equivalence_left_factor
from quarteig.pencil import EigenSolution, QuarticPencil, Spectrum, classify

# the critical point of plane Poiseuille flow (Orszag, J. Fluid Mech. 50, 1971)
R_CRIT = 5772.22
OMEGA_CRIT = 0.26943
ALPHA_CRIT = 1.02056


def unit(v):
    """v normalized to unit 2-norm (a zero vector is returned as it is)."""
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 0 else v


def reverse(q):
    """Coefficient reversal: eigenvalues map to reciprocals (0 <-> inf)."""
    return QuarticPencil(a=q.e, b=q.d, c=q.c, d=q.b, e=q.a)


def far_apart_norms(case):
    """An n = 5 complex quartic whose coefficient norms are too far apart for
    parameter scaling: case 0 scales A by 1e-200 and E by 1e200, so that
    ||E||/||A|| overflows; case 1 scales A, B and E by 1e-150, 1e100 and
    1e150, so that gamma^3 ||B|| overflows and theta is 0; case 2 scales A
    by 1e200 and E by 1e-200, so that ||E||/||A|| underflows and gamma is 0;
    case 3 scales all five by 1e-310 (subnormal), so that theta = 4 / (sum
    of the norms) overflows. All cases draw from ``default_rng(0)``, each
    after the earlier cases' matrices."""
    rng = np.random.default_rng(0)
    for factors in ((1e-200, 1, 1, 1, 1e200), (1e-150, 1e100, 1, 1, 1e150),
                    (1e200, 1, 1, 1, 1e-200), (1e-310,) * 5)[: case + 1]:
        mats = [f * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
                for f in factors]
    return QuarticPencil.from_matrices(*mats)


def from_lambda(lams, dim=1):
    """Normalized, classified homogeneous pairs for affine eigenvalues
    (``inf`` allowed), as a :class:`~quarteig.pencil.Spectrum`."""
    lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
    inf = np.isinf(lams)
    alpha, beta, cls = classify(np.where(inf, 1.0, lams), np.where(inf, 0.0, 1.0), dim)
    return Spectrum(alpha=alpha, beta=beta, cls=cls)


def solution(spec, rights, lefts, **errors):
    """An :class:`~quarteig.pencil.EigenSolution` of the pairs of ``spec``
    with the given vectors (None where missing) and error arrays."""
    m = len(spec)
    n = next((len(v) for v in (*rights, *lefts) if v is not None), 1)
    stacked = []
    for vectors in (rights, lefts):
        x = np.zeros((n, m), dtype=np.complex128)
        for j, v in enumerate(vectors):
            if v is not None:
                x[:, j] = v
        stacked.append((x, np.array([v is not None for v in vectors], dtype=bool).reshape(m)))
    return EigenSolution(spec.alpha, spec.beta, spec.cls, np.full(m, "given", dtype=object),
                         *stacked[0], *stacked[1], **errors)


def assert_equivalent(aa0, bb0, red, tol):
    """(red.work_a, red.work_b) = P (aa0, bb0) Q for unitary P and Q: Q (the
    identity where none was built) and the oracle's fit P are within tol of
    unitary, and the fit's residual is within tol relative to each
    coefficient. Returns P."""
    q = np.eye(len(aa0)) if red.q is None else red.q
    p = equivalence_left_factor(aa0, bb0, q, red.work_a, red.work_b)
    for w0, w in ((aa0, red.work_a), (bb0, red.work_b)):
        assert np.linalg.norm(p @ w0 @ q - w) <= tol * np.linalg.norm(w0)
    for u in (p, q):
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= tol
    return p


def cheb(N):
    """Chebyshev differentiation matrix and points x_j = cos(pi j / N), j = 0..N
    (Trefethen, Spectral Methods in MATLAB, program cheb.m)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.concatenate([[2.0], np.ones(N - 1), [2.0]]) * (-1.0) ** np.arange(N + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    return d - np.diag(d.sum(axis=1)), x


def orr_sommerfeld(N, R=R_CRIT, omega=OMEGA_CRIT, variant="clamped"):
    """Coefficients (A, B, C, D, E) of the spatial Orr-Sommerfeld quartic.

    Plane Poiseuille flow U = 1 - y^2 with phi(+-1) = phi'(+-1) = 0; for a
    fixed frequency omega the wave number alpha solves

        P(alpha) = alpha^4 I + alpha^3 (iRU) + alpha^2 (-2D^2 - iR omega I)
                   + alpha (-iRU D^2 - 2iR I) + (D^4 + iR omega D^2),

    discretized by Chebyshev collocation. ``clamped``: phi = (1 - y^2) g on
    the N - 1 interior points, with the fourth derivative that builds in
    phi' = 0 (Trefethen, ch. 14); A = I, so the quartic is regular.
    ``bordered``: all N + 1 points, with the four boundary conditions in
    the first two and last two rows of E and those rows zero in A-D, which
    gives exactly 16 infinite eigenvalues.
    """
    d, x = cheb(N)
    d2 = d @ d
    if variant == "clamped":
        s = np.diag(np.concatenate([[0.0], 1.0 / (1.0 - x[1:N] ** 2), [0.0]]))
        d4 = (np.diag(1.0 - x**2) @ np.linalg.matrix_power(d, 4)
              - 8.0 * np.diag(x) @ np.linalg.matrix_power(d, 3) - 12.0 * d2) @ s
        inner = slice(1, N)
        x, d2, d4 = x[inner], d2[inner, inner], d4[inner, inner]
    elif variant == "bordered":
        d4 = d2 @ d2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = x.shape[0]
    eye = np.eye(n)
    u = np.diag(1.0 - x**2)
    coeffs = [
        eye.astype(np.complex128),
        1j * R * u,
        -2.0 * d2 - 1j * R * omega * eye,
        -1j * R * u @ d2 - 2j * R * eye,
        d4 + 1j * R * omega * d2,
    ]
    if variant == "bordered":
        rows = [0, 1, N - 1, N]
        for m in coeffs[:4]:
            m[rows] = 0.0
        coeffs[4][rows] = np.vstack([eye[0], d[0], d[N], eye[N]])
    return tuple(coeffs)
