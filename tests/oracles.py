"""Independent oracles used to pin expected values in the tests.

Nothing here reuses the package's deflation/recovery paths: determinants go
through evaluation-interpolation plus np.roots, reference eigensolves call
LAPACK directly on explicitly assembled matrices, and subspace comparisons
use principal angles from the SVD.
"""

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


def dense_gevp(aa, bb):
    """Reference dense generalized eigensolve: homogeneous (alpha, beta)."""
    ab = sla.eig(np.asarray(aa), np.asarray(bb), right=False, homogeneous_eigvals=True)
    return ab[0], ab[1]


def classify_dense(aa, bb):
    """Classify a dense solve of (aa, bb) with the package thresholds."""
    from quarteig.pencil import classify_pair

    alphas, betas = dense_gevp(aa, bb)
    m = np.asarray(aa).shape[0]
    return [classify_pair(alphas[i], betas[i], m) for i in range(m)]


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
