"""Independent oracles used to pin expected values in the tests.

Nothing here reuses the package's deflation/recovery/diagnostics paths:
determinants go through evaluation-interpolation plus np.roots (or, for
real coefficients, exact rational arithmetic in :func:`exact_counts`), reference
eigensolves call LAPACK directly on explicitly assembled matrices, subspace
comparisons use principal angles from the SVD, and backward errors are
evaluated with explicit powers of lambda.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg as sla


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    return q * np.sign(np.diag(r))[None, :]


def well_conditioned(rng, n, cond=10.0):
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    s = np.logspace(0.0, -np.log10(cond), n)
    return u @ (s[:, None] * v.conj().T)


def random_regular_quartic(rng, n, cond=10.0):
    """Coefficients with well-conditioned A and E (all eigenvalues finite)."""
    from quarteig import QuarticPencil

    return QuarticPencil.from_matrices(
        well_conditioned(rng, n, cond),
        rand_complex(rng, (n, n)) / np.sqrt(n),
        rand_complex(rng, (n, n)) / np.sqrt(n),
        rand_complex(rng, (n, n)) / np.sqrt(n),
        well_conditioned(rng, n, cond),
    )


def singular_quartic(rng, n=6, col=2):
    """Dense coefficients sharing one exactly zero column: det P(lambda) == 0."""
    from quarteig import QuarticPencil

    mats = [rand_complex(rng, (n, n)) for _ in range(5)]
    for m in mats:
        m[:, col] = 0.0
    return QuarticPencil.from_matrices(*mats)


def det_poly_coeffs(mats):
    """Coefficients (ascending powers) of det(sum_k z^k M_k).

    Evaluation at scaled roots of unity followed by an inverse DFT; degree is
    (len(mats)-1) * n at most.
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    n = mats[0].shape[0]
    deg = (len(mats) - 1) * n
    npts = deg + 1
    radius = 1.0
    zs = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = np.array(
        [np.linalg.det(sum(z**k * m for k, m in enumerate(mats))) for z in zs]
    )
    coeffs = np.fft.fft(vals) / npts
    coeffs /= radius ** np.arange(npts)
    return coeffs


def _exact_det(m):
    """Determinant of a square list of lists of Fractions (Gaussian
    elimination on a copy)."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def exact_counts(q):
    """Exact ``{"zero", "finite", "infinite"}`` eigenvalue counts of a
    quartic with real coefficients, or None where det P(lambda) vanishes
    identically (a singular quartic).

    Floats convert to Fractions exactly, so det P, a polynomial of degree
    at most 4n, is known exactly from its Fraction determinants at the
    4n + 1 integer points 0..4n (Newton forward differences, then the
    monomial form). Its lowest nonzero degree is the number of zero
    eigenvalues, and 4n minus its degree the number of infinite ones.
    """
    coeffs = [np.asarray(c) for c in q.coeffs]
    if any(np.iscomplexobj(c) and np.any(c.imag) for c in coeffs):
        raise ValueError("exact_counts takes real coefficients")
    mats = [[[Fraction(float(v)) for v in row] for row in c.real.tolist()] for c in coeffs]
    n, top = q.n, 4 * q.n
    vals = [_exact_det([[sum(t ** (4 - k) * mats[k][i][j] for k in range(5)) for j in range(n)]
                        for i in range(n)]) for t in range(top + 1)]
    # Newton form on the nodes 0..4n: p(t) = sum_k c_k t (t - 1) ... (t - k + 1)
    # with c_k the k-th forward difference at 0 over k!
    c = []
    for k in range(top + 1):
        c.append(vals[0] / math.factorial(k))
        vals = [b - a for a, b in zip(vals, vals[1:])]
    poly = [c[top]]  # ascending powers, by Horner's rule in the Newton basis
    for k in range(top - 1, -1, -1):
        poly = [x - k * y for x, y in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
        poly[0] += c[k]
    nonzero = [i for i, v in enumerate(poly) if v]
    if not nonzero:
        return None
    low, deg = nonzero[0], nonzero[-1]
    return {"zero": low, "finite": deg - low, "infinite": top - deg}


def quartic_det_roots(q, drop_tol=1e-10):
    """Roots of det(lambda^4 A + ... + E) plus the infinite multiplicity.

    Returns (finite_roots, n_infinite); tiny leading coefficients (relative to
    the largest) count as degree deficiency, i.e. infinite eigenvalues.
    """
    coeffs = det_poly_coeffs([q.e, q.d, q.c, q.b, q.a])  # ascending in lambda
    desc = coeffs[::-1]
    scale = np.abs(desc).max()
    if scale == 0.0:
        raise ValueError("identically singular quartic")
    k = 0
    while k < len(desc) - 1 and abs(desc[k]) <= drop_tol * scale:
        k += 1
    finite = np.roots(desc[k:])
    return finite, k


def pencil_det_roots(aa, bb, drop_tol=1e-10):
    """Roots of det(aa - z bb) with infinite multiplicity from the degree."""
    coeffs = det_poly_coeffs([aa, -np.asarray(bb)])
    desc = coeffs[::-1]
    scale = np.abs(desc).max()
    k = 0
    while k < len(desc) - 1 and abs(desc[k]) <= drop_tol * scale:
        k += 1
    return np.roots(desc[k:]), k


def equivalence_left_factor(aa, bb, q, wa, wb):
    """The least-squares P with P [AA Q, BB Q] = [WA, WB].

    Unique when [AA, BB] has full row rank, as it has for a regular pencil;
    with a unitary Q the equivalence (WA, WB) = P (AA, BB) Q holds when P is
    unitary and the residual of its fit is small.
    """
    m = np.hstack([aa @ q, bb @ q])
    w = np.hstack([wa, wb])
    return np.linalg.lstsq(m.conj().T, w.conj().T, rcond=None)[0].conj().T


def dense_gevp(aa, bb):
    """Reference dense generalized eigensolve: homogeneous (alpha, beta)."""
    ab = sla.eig(np.asarray(aa), np.asarray(bb), right=False, homogeneous_eigvals=True)
    return ab[0], ab[1]


def classify_dense(aa, bb):
    """Classify a dense solve of (aa, bb) with the package's thresholds.

    The rule is re-implemented here: with |alpha|^2 + |beta|^2 = 1, a pair
    is infinite when |beta| <= m*eps and zero when |alpha| <= m*eps and
    |beta| > 1/2. Returns ``(lam, cls)``: the affine eigenvalues (inf for the
    infinite class) and the class names.
    """
    alpha, beta = dense_gevp(aa, bb)
    m = np.asarray(aa).shape[0]
    s = np.hypot(np.abs(alpha), np.abs(beta))
    thr = max(m, 1) * np.finfo(np.float64).eps
    a, b = np.abs(alpha) / s, np.abs(beta) / s
    cls = np.where(b <= thr, "infinite", np.where((a <= thr) & (b > 0.5), "zero", "finite"))
    inf = cls == "infinite"
    return np.where(inf, np.inf, alpha / np.where(inf, 1.0, beta)), cls


def match_values(got, expected, rtol):
    """Greedy nearest matching of two equal-length multisets of complex
    numbers; asserts every pair within rtol relative distance."""
    got = list(got)
    expected = list(expected)
    assert len(got) == len(expected)
    worst = 0.0
    rem = expected[:]
    for g in got:
        dists = [abs(g - e) / max(1.0, abs(e)) for e in rem]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        rem.pop(j)
    assert worst <= rtol, f"multiset mismatch: worst relative distance {worst:.3e}"
    return worst


def min_pairwise_gap(values):
    vals = list(values)
    gap = np.inf
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            gap = min(gap, abs(vals[i] - vals[j]) / max(1.0, abs(vals[i])))
    return gap


def principal_angle(u, v):
    """Largest principal angle (radians) between the column spans.

    Sine-based formulation, accurate for tiny angles (arccos saturates at
    sqrt(eps))."""
    qu, _ = np.linalg.qr(np.asarray(u))
    qv, _ = np.linalg.qr(np.asarray(v))
    resid = qv - qu @ (qu.conj().T @ qv)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(np.arcsin(np.clip(s.max(), 0.0, 1.0))) if s.size else 0.0


def eigvec_from_lambda(q, lam):
    """Right eigenvector of the quartic at lambda via the smallest singular
    vector of P(lambda)."""
    p = lam**4 * q.a + lam**3 * q.b + lam**2 * q.c + lam * q.d + q.e
    _, _, vh = np.linalg.svd(p)
    return vh[-1].conj()


def quartic_with_eigenpair(rng, n, lam):
    """Random quartic modified so that (lam, x) is an exact eigenpair."""
    from quarteig import QuarticPencil

    a, b, c, d = (rand_complex(rng, (n, n)) for _ in range(4))
    e = rand_complex(rng, (n, n))
    x = rand_complex(rng, (n,))
    x /= np.linalg.norm(x)
    resid = (lam**4 * a + lam**3 * b + lam**2 * c + lam * d + e) @ x
    e = e - np.outer(resid, x.conj())
    return QuarticPencil.from_matrices(a, b, c, d, e), x


def backward_errors(q, lam, x, left=False):
    """(eta, omega) of one eigenpair straight from the definitions.

    Explicit powers of lambda and spectral norms; at lambda = inf eta is
    ||A x|| / (||A|| ||x||) and omega is None. ``left`` measures y* P(lambda)
    through P(lambda)* y. A zero vector gives (inf, inf).
    """
    mats = [m.conj().T if left else m for m in q.coeffs]
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return np.inf, None if np.isinf(lam) else np.inf
    if np.isinf(lam):
        return np.linalg.norm(mats[0] @ x) / (np.linalg.norm(mats[0], 2) * nx), None
    lam = np.conj(lam) if left else lam
    r = sum(lam ** (4 - k) * m for k, m in enumerate(mats)) @ x
    s = sum(abs(lam) ** (4 - k) * np.abs(m) for k, m in enumerate(mats)) @ np.abs(x)
    den = sum(abs(lam) ** (4 - k) * np.linalg.norm(m, 2) for k, m in enumerate(mats))
    ratio = np.where(s > 0, np.abs(r) / np.where(s > 0, s, 1.0), np.where(r != 0, np.inf, 0.0))
    return np.linalg.norm(r) / (den * nx), ratio.max()
