"""Domain types for the quartic problem and its linearization.

The quartic (lambda^4 A + lambda^3 B + lambda^2 C + lambda D + E) x = 0 is
first quadratified with the second companion form of grade 2,

    M = [[A, 0], [C, I]],  Cq = [[B, 0], [D, 0]],  K = [[0, -I], [E, 0]],

and the quadratic lambda^2 M + lambda Cq + K is then linearized into the
4n x 4n pencil AA - lambda BB whose generalized eigenvalues are the quartic
eigenvalues with multiplicity, infinities included. Block placement is exact
(identities and zeros are exact, coefficient blocks are the original arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import EPS, as_matrix

EIG_ZERO = "zero"
EIG_FINITE = "finite"
EIG_INFINITE = "infinite"


@dataclass(frozen=True)
class QuarticPencil:
    """Coefficients of lambda^4 a + lambda^3 b + lambda^2 c + lambda d + e."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    @classmethod
    def from_matrices(cls, a, b, c, d, e):
        mats = [as_matrix(m) for m in (a, b, c, d, e)]
        n = mats[0].shape[0]
        if n == 0 or any(m.shape != (n, n) for m in mats):
            raise ValueError(
                f"coefficients must be square, equally sized and at least 1x1, "
                f"got {[x.shape for x in mats]}"
            )
        return cls(*mats)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def coeffs(self):
        """Coefficients ordered by descending power: (a, b, c, d, e)."""
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass(frozen=True)
class LinearPencil:
    """Square pencil aa - lambda * bb."""

    aa: np.ndarray
    bb: np.ndarray

    @property
    def size(self):
        return self.aa.shape[0]


@dataclass(frozen=True)
class HomogeneousEig:
    """Eigenvalue as a normalized pair (alpha, beta), |alpha|^2 + beta^2 = 1."""

    alpha: complex
    beta: float
    cls: str

    @property
    def lam(self):
        """The affine eigenvalue alpha/beta (inf for the infinite class)."""
        if self.cls == EIG_INFINITE or self.beta == 0.0:
            return np.inf
        return self.alpha / self.beta

    @property
    def modulus(self):
        if self.cls == EIG_INFINITE or self.beta == 0.0:
            return np.inf
        return abs(self.alpha) / self.beta


def normalize_pair(alpha, beta):
    """Scale (alpha, beta) so that |alpha|^2 + beta^2 = 1 with beta real >= 0."""
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(beta) > 0.0:
        phase = beta / abs(beta)
        alpha = alpha / phase
        beta = float(abs(beta))
    else:
        beta = 0.0
    s = float(np.hypot(abs(alpha), beta))
    if s == 0.0:
        raise ValueError("(0, 0) is not a valid homogeneous eigenvalue")
    return alpha / s, beta / s


def classify_pair(alpha, beta, dim) -> HomogeneousEig:
    """Classify a homogeneous pair as zero/finite/infinite.

    Thresholds: beta <= dim*eps => infinite; |alpha| <= dim*eps with
    beta > 1/2 => zero.
    """
    alpha, beta = normalize_pair(alpha, beta)
    thr = max(dim, 1) * EPS
    if beta <= thr:
        return HomogeneousEig(alpha=alpha, beta=beta, cls=EIG_INFINITE)
    if abs(alpha) <= thr and beta > 0.5:
        return HomogeneousEig(alpha=alpha, beta=beta, cls=EIG_ZERO)
    return HomogeneousEig(alpha=alpha, beta=beta, cls=EIG_FINITE)


def eig_zero():
    return HomogeneousEig(alpha=0.0 + 0.0j, beta=1.0, cls=EIG_ZERO)


def eig_infinite():
    return HomogeneousEig(alpha=1.0 + 0.0j, beta=0.0, cls=EIG_INFINITE)


def from_lambda(lam, dim=1):
    """Homogeneous pair for an affine eigenvalue (inf allowed)."""
    if np.isinf(lam):
        return eig_infinite()
    return classify_pair(lam, 1.0, dim)


def reciprocal_eig(eig: HomogeneousEig) -> HomogeneousEig:
    """Map (alpha, beta) to the reciprocal eigenvalue (beta, alpha)."""
    alpha, beta = normalize_pair(eig.beta, eig.alpha)
    if eig.cls == EIG_ZERO:
        cls = EIG_INFINITE
    elif eig.cls == EIG_INFINITE:
        cls = EIG_ZERO
    else:
        cls = EIG_FINITE
    return HomogeneousEig(alpha=alpha, beta=beta, cls=cls)


@dataclass
class EigenSolution:
    """Full solver output: 4n homogeneous eigenvalues with eigenvectors."""

    eigs: list
    right: list
    left: list
    methods: list
    diags: list | None = None

    def __len__(self):
        return len(self.eigs)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def linearize(q: QuarticPencil) -> LinearPencil:
    """4n x 4n strong linearization built on the grade-2 companion blocks."""
    n = q.n
    eye = np.eye(n, dtype=np.complex128)
    zero = np.zeros((n, n), dtype=np.complex128)
    aa = np.block(
        [
            [q.b, zero, -eye, zero],
            [q.d, zero, zero, -eye],
            [zero, -eye, zero, zero],
            [q.e, zero, zero, zero],
        ]
    )
    bb = np.block(
        [
            [-q.a, zero, zero, zero],
            [-q.c, -eye, zero, zero],
            [zero, zero, -eye, zero],
            [zero, zero, zero, -eye],
        ]
    )
    return LinearPencil(aa=aa, bb=bb)


def reverse(q: QuarticPencil) -> QuarticPencil:
    """Coefficient reversal: eigenvalues map to reciprocals (0 <-> inf)."""
    return QuarticPencil(a=q.e, b=q.d, c=q.c, d=q.b, e=q.a)
