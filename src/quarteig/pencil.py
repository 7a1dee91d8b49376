"""Domain types for the quartic problem and its linearization.

The quartic (lambda^4 A + lambda^3 B + lambda^2 C + lambda D + E) x = 0 is
first quadratified with the second companion form of grade 2,

    M = [[A, 0], [C, I]],  Cq = [[B, 0], [D, 0]],  K = [[0, -I], [E, 0]],

and the quadratic lambda^2 M + lambda Cq + K is then linearized into the
4n x 4n pencil AA - lambda BB whose generalized eigenvalues are the quartic
eigenvalues with multiplicity, infinities included. Block placement is exact
(identities and zeros are exact, coefficient blocks are the original arrays).

Eigenvalues travel through the pipeline as arrays, one per field
(:class:`Spectrum`, :class:`EigenSolution`): homogeneous pairs (alpha, beta)
normalized to |alpha|^2 + beta^2 = 1 with beta real >= 0, class codes, and
eigenvectors as the columns of n x 4n arrays with masks. :func:`classify`
and :func:`affine` act on whole arrays.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .numkit import EPS, as_matrix

# eigenvalue classes as small-integer codes; CLASS_NAMES[code] is the report name
EIG_ZERO, EIG_FINITE, EIG_INFINITE = 0, 1, 2
CLASS_NAMES = ("zero", "finite", "infinite")

# one entry of the per-pair view EigenSolution.eigs
Eig = namedtuple("Eig", "alpha beta cls")


@dataclass(frozen=True)
class QuarticPencil:
    """Coefficients of lambda^4 a + lambda^3 b + lambda^2 c + lambda d + e:
    2-d arrays of one square shape, at least 1x1, checked on construction
    (:meth:`from_matrices` also promotes them and rejects NaN and Inf)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        shapes = [m.shape if isinstance(m, np.ndarray) else type(m).__name__
                  for m in self.coeffs]
        n = shapes[0][0] if isinstance(shapes[0], tuple) and shapes[0] else 0
        if n == 0 or any(s != (n, n) for s in shapes):
            raise ValueError(f"coefficients must be square, equally sized and at least 1x1, "
                             f"got {shapes}")

    @classmethod
    def from_matrices(cls, a, b, c, d, e):
        return cls(*(as_matrix(m) for m in (a, b, c, d, e)))

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


# ---------------------------------------------------------------------------
# homogeneous eigenvalues as arrays
# ---------------------------------------------------------------------------


def normalize(alpha, beta):
    """Scale pairs so that |alpha|^2 + beta^2 = 1 with beta real >= 0."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    mod = np.abs(beta)
    # alpha * conj(beta)/|beta| where beta is nonzero; beta becomes |beta|
    alpha = alpha * np.divide(beta.conj(), mod, out=np.ones_like(beta), where=mod > 0.0)
    s = np.hypot(np.abs(alpha), mod)
    if np.any(s == 0.0):
        raise ValueError("(0, 0) is not a valid homogeneous eigenvalue")
    return alpha / s, mod / s


def classify(alpha, beta, dim):
    """Normalize homogeneous pairs and classify them as zero/finite/infinite.

    Thresholds: beta <= dim*eps => infinite; |alpha| <= dim*eps with
    beta > 1/2 => zero. Those pairs are stored at the value their class
    states, (0, 1) or (alpha/|alpha|, 0), so their backward errors and
    vectors are taken there. Returns ``(alpha, beta, cls)`` arrays.
    """
    alpha, beta = normalize(alpha, beta)
    thr = max(dim, 1) * EPS
    mod = np.hypot(alpha.real, alpha.imag)
    inf, zero = beta <= thr, (mod <= thr) & (beta > 0.5)
    alpha[inf] /= mod[inf]
    alpha[zero], beta[inf], beta[zero] = 0.0, 0.0, 1.0
    cls = np.where(inf, EIG_INFINITE, np.where(zero, EIG_ZERO, EIG_FINITE))
    return alpha, beta, cls.astype(np.int8)


def affine(alpha, beta):
    """lambda = alpha/beta, inf where beta is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta == 0.0, np.inf, alpha / beta)


@dataclass(eq=False)
class Spectrum:
    """Homogeneous eigenvalues, one array per field: complex ``alpha`` and
    real ``beta`` >= 0 with |alpha|^2 + beta^2 = 1, and class codes ``cls``."""

    alpha: np.ndarray
    beta: np.ndarray
    cls: np.ndarray

    def __len__(self):
        return len(self.alpha)

    @property
    def lam(self):
        """The affine eigenvalues alpha/beta (inf for the infinite class)."""
        return np.where(self.cls == EIG_INFINITE, np.inf, affine(self.alpha, self.beta))


@dataclass(eq=False)
class EigenSolution(Spectrum):
    """Full solver output: 4n homogeneous eigenvalues with eigenvectors.

    Column j of ``x`` (right) and ``y`` (left) is the unit quartic
    eigenvector of pair j where ``has_right[j]`` (``has_left[j]``) is set,
    and zero elsewhere; ``methods[j]`` names how it was found. The four
    backward-error arrays come from
    :func:`quarteig.diagnostics.diagnostics_many`, NaN where not computed.

    ``eigs``, ``right`` and ``left`` are per-pair views derived from the
    arrays on first read and kept, so an edit to one of these lists stays
    visible: ``(alpha, beta, cls)`` named tuples with the class name, and
    vectors (columns of ``x``, ``y``) with None where there is none.
    """

    methods: np.ndarray
    x: np.ndarray
    has_right: np.ndarray
    y: np.ndarray
    has_left: np.ndarray
    eta_right: np.ndarray | None = None
    eta_left: np.ndarray | None = None
    omega_right: np.ndarray | None = None
    omega_left: np.ndarray | None = None

    @functools.cached_property
    def eigs(self):
        names = [CLASS_NAMES[c] for c in self.cls.tolist()]
        return list(map(Eig, self.alpha.tolist(), self.beta.tolist(), names))

    @functools.cached_property
    def right(self):
        return [v if ok else None for v, ok in zip(self.x.T, self.has_right.tolist())]

    @functools.cached_property
    def left(self):
        return [v if ok else None for v, ok in zip(self.y.T, self.has_left.tolist())]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def place_blocks(grid, n) -> np.ndarray:
    """The complex matrix of a grid (a list of rows) of n x n blocks, each an
    array, ``0`` (a zero block) or ``-1`` (-I, the bits of ``-np.eye``).

    Equal to ``np.block`` of the same blocks, with less overhead at small n.
    """
    out = np.zeros((n * len(grid), n * len(grid[0])), dtype=np.complex128)
    special = {0: None, -1: -np.eye(n, dtype=np.complex128)}
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            b = b if isinstance(b, np.ndarray) else special[b]
            if b is not None:
                out[i * n : (i + 1) * n, j * n : (j + 1) * n] = b
    return out


def linearize(q: QuarticPencil) -> LinearPencil:
    """4n x 4n strong linearization built on the grade-2 companion blocks."""
    aa = place_blocks([[q.b, 0, -1, 0],
                       [q.d, 0, 0, -1],
                       [0, -1, 0, 0],
                       [q.e, 0, 0, 0]], q.n)
    bb = place_blocks([[-q.a, 0, 0, 0],
                       [-q.c, -1, 0, 0],
                       [0, 0, -1, 0],
                       [0, 0, 0, -1]], q.n)
    return LinearPencil(aa=aa, bb=bb)

