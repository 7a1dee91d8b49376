"""Deflation of zero and infinite eigenvalues before the QZ stage.

The decision tree branches on the numerical ranks of the extreme
coefficients A and E:

* both regular: nothing is deflated and the linearization reaches QZ
  unchanged (identity transforms); the backend (LAPACK zggev3) starts with
  its own QR of the lambda coefficient, so a triangularization here would be
  repeated work.
* exactly one singular: a structured transformation exposes n - r_E zero
  rows built from the factors of E (a quartic with only A singular is
  reversed by the caller first); a second-level matrix
  Psi = [Q_E2* D; R_E Pi_E^T] decides whether another zero block exists, in
  which case a permutation, a second rank-revealing factorization and a
  complete orthogonal decomposition deflate it. Longer chains continue
  generically.
* both singular: with the second-level matrices Phi and Psi both regular, a
  single structured transformation followed by one column compression
  removes the zero and the infinite block in one pass; otherwise zeros are
  chased first (structured two-step plus generic continuation) and the
  infinite chain is deflated on the reversed pencil with the first block
  sizes known from the ranks of A and Phi.

All transformations are accumulated as explicit unitary-times-permutation
factors P, Q so that P @ AA0 @ Q and P @ BB0 @ Q are block upper triangular
with the deflated part trailing; the retained work matrices are exactly what
eigenvector assembly needs later. Every step that deflates k eigenvalues
puts a k x k diagonal block on top of the trailing staircase, with exact
zeros to its left and, in AA after a zero step or in BB after an infinite
step, on the block itself; ``DeflationResult.steps`` records the sizes and
sides, from which left-vector lifting solves the staircase block by block.

Rank decisions read only the R factor of a pivoted QR; its Q is formed only
where a step transforms with it (:class:`numkit.PivotedQR`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeflationError
from .numkit import PivotedQR, rrqr, safe_norm, urv
from .pencil import LinearPencil, QuarticPencil


@dataclass
class RankProfile:
    """Rank-revealing factorizations of the extreme coefficients A and E.

    ``tol`` is the rank tolerance of :func:`numkit.rrqr` for every rank
    decision of the deflation (None: max(shape)*eps).
    """

    qr_a: PivotedQR
    qr_e: PivotedQR
    tol: float | None

    @property
    def r_a(self):
        return self.qr_a.rank

    @property
    def r_e(self):
        return self.qr_e.rank

    @property
    def n(self):
        return self.qr_a.rows

    def swapped(self):
        """Profile of the reversed problem (A and E trade places)."""
        return RankProfile(qr_a=self.qr_e, qr_e=self.qr_a, tol=self.tol)


def analyze_ranks(q: QuarticPencil, tol=None) -> RankProfile:
    """Rank-revealing QR of A and E."""
    return RankProfile(qr_a=rrqr(q.a, tol), qr_e=rrqr(q.e, tol), tol=tol)


@dataclass
class SecondLevel:
    """Second-level block matrices deciding multi-block 0/inf structure."""

    phi: np.ndarray
    psi: np.ndarray
    qr_phi: PivotedQR
    qr_psi: PivotedQR

    @property
    def r_phi(self):
        return self.qr_phi.rank

    @property
    def r_psi(self):
        return self.qr_psi.rank


def second_level(q: QuarticPencil, rp: RankProfile) -> SecondLevel:
    """Assemble Phi = [Q_A2* B; R_A Pi_A^T] and Psi = [Q_E2* D; R_E Pi_E^T]."""
    n = q.n
    if rp.r_a == n and rp.r_e == n:
        raise ValueError("second_level is only defined when A or E is rank deficient")
    phi = np.vstack([rp.qr_a.q2.conj().T @ q.b, rp.qr_a.r_hat_unpermuted()])
    psi = np.vstack([rp.qr_e.q2.conj().T @ q.d, rp.qr_e.r_hat_unpermuted()])
    return SecondLevel(
        phi=phi,
        psi=psi,
        qr_phi=rrqr(phi, rp.tol),
        qr_psi=rrqr(psi, rp.tol),
    )


@dataclass
class DeflationStep:
    """One truncation; a report lists these fields in this order (``dataclasses.asdict``)."""

    kind: str
    deflated: int
    zeros: int = 0
    infs: int = 0
    rank: int | None = None
    evidence: dict = field(default_factory=dict)
    dropped: float = 0.0


@dataclass
class DeflationResult:
    """Deflated regular pencil plus the accumulated equivalence transforms.

    ``size == full_size`` means nothing was deflated and the transforms are
    the identity: ``pencil`` is the linearization itself.
    """

    pencil: LinearPencil
    p: np.ndarray
    q: np.ndarray
    zeros_deflated: int
    infs_deflated: int
    steps: list
    work_a: np.ndarray
    work_b: np.ndarray
    size: int
    reversed: bool = False
    a_regular: bool | None = None
    b_regular: bool | None = None
    flags: list = field(default_factory=list)

    @property
    def full_size(self):
        return self.work_a.shape[0]


class _Reducer:
    """Accumulates equivalence transformations on the 4n linearization.

    Starts from the images wa = P AA Q and wb = P BB Q of a first step
    (P and Q unitary), which it owns and updates in place.
    """

    def __init__(self, wa, wb, p, q):
        self.wa, self.wb, self.p, self.q = wa, wb, p, q
        self.m = wa.shape[0]
        self.zeros = 0
        self.infs = 0
        self.steps = []
        self.flags = []

    def left(self, l, start=0):
        """Multiply the active rows from ``start`` on by l from the left."""
        m = self.m
        for w in (self.wa, self.wb, self.p):
            w[start:m, :] = l @ w[start:m, :]

    def permute_rows(self, order):
        """Reorder the active rows: new row i is old row ``order[i]``."""
        m = self.m
        for w in (self.wa, self.wb, self.p):
            w[:m, :] = w[order, :]

    def right(self, r):
        """Multiply the active columns by r; below the active rows they are
        exact zeros (left so by :meth:`truncate`) and stay untouched."""
        m = self.m
        self.wa[:m, :m] = self.wa[:m, :m] @ r
        self.wb[:m, :m] = self.wb[:m, :m] @ r
        self.q[:, :m] = self.q[:, :m] @ r

    def truncate(self, k, kind, side, zeros=0, infs=0, rank=None, evidence=None):
        """Cut the trailing k rows and columns off the active pencil.

        The entries left of the cut block in both matrices, and the block
        itself in AA (side "zero") or BB (side "inf"), are set to zero;
        ``dropped`` is the Frobenius norm of what they held.
        """
        m = self.m
        new = m - k
        cut = (self.wa[new:m, :new], self.wb[new:m, :new],
               (self.wa if side == "zero" else self.wb)[new:m, new:m])
        dropped = float(safe_norm([safe_norm(c) for c in cut]))
        for c in cut:
            c[...] = 0.0
        self.m = new
        self.zeros += zeros
        self.infs += infs
        self.steps.append(
            DeflationStep(
                kind=kind,
                deflated=k,
                zeros=zeros,
                infs=infs,
                rank=rank,
                evidence=evidence or {},
                dropped=dropped,
            )
        )


def _blocks(n):
    return np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)


def _block_diag(x, y):
    """The square block diagonal matrix with diagonal blocks x and y."""
    k = x.shape[0]
    out = np.zeros((k + y.shape[0],) * 2, dtype=np.complex128)
    out[:k, :k] = x
    out[k:, k:] = y
    return out


def _q_k(rp: RankProfile):
    """diag(I, Q_E), the right factor of the structured first step."""
    eye, zero = _blocks(rp.n)
    return np.block([[eye, zero], [zero, rp.qr_e.q]])


def _first_step(rp: RankProfile, q_k, u, top_a, top_b) -> _Reducer:
    """The structured first step, shared by both decision trees.

    P = diag(u*, q_k*) and Q = diag(I, q_k) transform the linearization,
    with ``q_k`` from :func:`_q_k`; ``top_a`` and ``top_b`` are the top 2n
    rows of its images, which depend on the 2n x 2n unitary ``u``. The
    bottom 2n rows, the same in both trees, are assembled here with their
    identity and zero blocks exact, and the first block of n - r_E zeros is
    truncated.
    """
    n = rp.n
    eye, zero = _blocks(n)
    wa = np.vstack([top_a, np.block([[zero, -eye, zero, zero],
                                     [rp.qr_e.r_hat_unpermuted(pad=True), zero, zero, zero]])])
    wb = np.vstack([top_b, np.block([[zero, zero, -eye, zero], [zero, zero, zero, -eye]])])
    red = _Reducer(wa, wb, _block_diag(u.conj().T, q_k.conj().T),
                   _block_diag(np.eye(2 * n, dtype=np.complex128), q_k))
    red.truncate(
        n - rp.r_e,
        kind="zero_block_1",
        side="zero",
        zeros=n - rp.r_e,
        rank=rp.r_e,
        evidence=dict(rp.qr_e.truncation_log),
    )
    return red


def _step1_zero(q: QuarticPencil, rp: RankProfile) -> _Reducer:
    """E singular: expose and truncate the first block of n - r_E zeros."""
    n = q.n
    eye, zero = _blocks(n)
    qe_h = rp.qr_e.q.conj().T
    top_a = np.block([[q.b, zero, -eye, zero], [qe_h @ q.d, zero, zero, -eye]])
    top_b = np.block([[-q.a, zero, zero, zero], [-(qe_h @ q.c), -qe_h, zero, zero]])
    q_k = _q_k(rp)
    return _first_step(rp, q_k, q_k, top_a, top_b)


def _step2_zero(red: _Reducer, q: QuarticPencil, rp: RankProfile, sl: SecondLevel):
    """Second zero block from the rank deficiency of Psi."""
    n = q.n
    r_e = rp.r_e
    r2 = sl.r_psi
    m = red.m
    assert m == 3 * n + r_e
    order = np.concatenate(
        [
            np.arange(0, n + r_e),
            np.arange(2 * n, 3 * n),
            np.arange(n + r_e, 2 * n),
            np.arange(3 * n, 3 * n + r_e),
        ]
    )
    red.permute_rows(order)
    red.left(sl.qr_psi.q.conj().T, start=2 * n + r_e)
    # the bottom n rows of the constant term are Q_psi* Psi = R Pi^T exactly
    psi_rows = sl.qr_psi.r_hat_unpermuted(pad=True)
    red.wa[2 * n + r_e : 3 * n + r_e, :n] = psi_rows
    red.wa[2 * n + r_e : 3 * n + r_e, n:m] = 0.0
    trailing = red.wb[2 * n + r_e + r2 : m, :m]
    cod = urv(trailing, rp.tol)
    if cod.rank < n - r2:
        red.flags.append("zero_chain_trailing_rank_deficient")
    red.right(cod.v)
    red.truncate(
        n - r2,
        kind="zero_block_2",
        side="zero",
        zeros=n - r2,
        rank=r2,
        evidence=dict(sl.qr_psi.truncation_log),
    )


def _case_both_full(q: QuarticPencil, rp: RankProfile) -> _Reducer:
    """Both A and E singular, Phi and Psi regular: one block each for 0/inf."""
    n = q.n
    eye, zero = _blocks(n)
    qa_h = rp.qr_a.q.conj().T
    q_m = np.block([[zero, rp.qr_a.q], [eye, zero]])
    top_a = np.block([[q.d, zero, zero, -rp.qr_e.q], [qa_h @ q.b, zero, -qa_h, zero]])
    top_b = np.block([[-q.c, -eye, zero, zero],
                      [-rp.qr_a.r_hat_unpermuted(pad=True), zero, zero, zero]])
    red = _first_step(rp, _q_k(rp), q_m, top_a, top_b)
    # infinite block: the rows holding Q_A2* (exactly zero on the lambda side)
    m = red.m
    rows = np.arange(n + rp.r_a, 2 * n)
    trailing = red.wa[rows, :m]
    cod = urv(trailing, rp.tol)
    if cod.rank < n - rp.r_a:
        red.flags.append("inf_block_trailing_rank_deficient")
    red.right(cod.v)
    red.permute_rows(np.concatenate([np.delete(np.arange(m), rows), rows]))
    red.truncate(
        n - rp.r_a,
        kind="inf_block_1",
        side="inf",
        infs=n - rp.r_a,
        rank=rp.r_a,
        evidence=dict(rp.qr_a.truncation_log),
    )
    return red


def _generic_layer(red: _Reducer, on, tol, known=None, kind=None):
    """One staircase reduction layer for the zero (on='zero') or infinite
    (on='inf') eigenvalue of the active pencil. Returns the deflated count."""
    m = red.m
    if m == 0:
        return 0
    const = red.wa if on == "zero" else red.wb
    f = rrqr(const[:m, :m], tol)
    rank = m - known if known is not None else f.rank
    if rank >= m:
        return 0
    red.left(f.q.conj().T)
    other = red.wb if on == "zero" else red.wa
    trailing = other[rank:m, :m]
    cod = urv(trailing, tol)
    if cod.rank < m - rank:
        red.flags.append(f"staircase_{on}_trailing_rank_deficient")
        return 0
    red.right(cod.v)
    red.truncate(
        m - rank,
        kind=kind or f"staircase_{on}",
        side=on,
        zeros=m - rank if on == "zero" else 0,
        infs=m - rank if on == "inf" else 0,
        rank=rank,
        evidence=dict(f.truncation_log),
    )
    return m - rank


def _check_consistent(q: QuarticPencil, rp: RankProfile):
    if rp.qr_a.rows != q.n or rp.qr_e.rows != q.n:
        raise DeflationError("rank profile dimensions do not match the pencil")
    rng = np.random.default_rng(12345)
    v = (rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n))[:, None]
    for mat, f, name in ((q.a, rp.qr_a, "A"), (q.e, rp.qr_e, "E")):
        lhs = mat[:, f.perm] @ v
        rhs = f.q_times(f.r @ v)  # forms no Q, which a regular problem never needs
        if safe_norm(lhs - rhs) > 1e-6 * safe_norm(mat) * safe_norm(v):
            raise DeflationError(f"rank profile inconsistent with coefficient {name}")


def deflate(
    lin: LinearPencil,
    q: QuarticPencil,
    rp: RankProfile,
    sl: SecondLevel | None = None,
) -> DeflationResult:
    """Run the full deflation decision tree on the 4n linearization.

    Every rank decision uses the rank tolerance of ``rp``. A quartic
    with only A singular is deflated through its reversal, whose E is the
    singular one (:func:`solve_pencil` reverses such problems), so that
    profile raises :class:`DeflationError` here.
    """
    n = q.n
    if lin.size != 4 * n:
        raise DeflationError(f"linearization size {lin.size} != 4n = {4 * n}")
    _check_consistent(q, rp)
    tol = rp.tol

    if rp.r_a < n and rp.r_e == n:
        raise DeflationError(
            "only A is singular: reverse the quartic first and deflate the "
            "reversed problem, whose E is the singular coefficient"
        )

    if rp.r_a == n and rp.r_e == n:
        # nothing to deflate; BB is block lower triangular with diagonal
        # (-A, -I, -I, -I) and AA, with its block columns permuted, is block
        # upper triangular with diagonal (-I, -I, -I, E), so both are regular
        # exactly when A and E are
        full = lin.size
        return DeflationResult(
            pencil=lin,
            p=np.eye(full, dtype=np.complex128),
            q=np.eye(full, dtype=np.complex128),
            zeros_deflated=0,
            infs_deflated=0,
            steps=[
                DeflationStep(kind="regular", deflated=0, rank=rp.r_a,
                              evidence=dict(rp.qr_a.truncation_log))
            ],
            work_a=lin.aa,
            work_b=lin.bb,
            size=full,
            a_regular=True,
            b_regular=True,
        )

    if sl is None:
        sl = second_level(q, rp)
    if rp.r_a < n and sl.r_phi == n and sl.r_psi == n:
        red = _case_both_full(q, rp)
    else:
        red = _step1_zero(q, rp)
        if sl.r_psi < n:
            _step2_zero(red, q, rp, sl)
            while _generic_layer(red, "zero", tol):
                pass
        if rp.r_a < n:
            # infinite chain on the reversed pencil; the first block sizes
            # are known from the ranks of A and Phi
            _generic_layer(red, "inf", tol, known=n - rp.r_a,
                           kind="inf_block_1")
            if sl.r_phi < n:
                _generic_layer(red, "inf", tol, known=n - sl.r_phi,
                               kind="inf_block_2")
                while _generic_layer(red, "inf", tol):
                    pass

    m = red.m
    fa = rrqr(red.wa[:m, :m], tol)
    fb = rrqr(red.wb[:m, :m], tol)
    a_regular = bool(fa.rank == m)
    b_regular = bool(fb.rank == m)
    if not b_regular:
        red.flags.append("deflated_pencil_bb_rank_deficient")
    if not a_regular and (red.zeros or red.infs):
        red.flags.append("deflated_pencil_aa_rank_deficient")
    pencil = LinearPencil(aa=red.wa[:m, :m].copy(), bb=red.wb[:m, :m].copy())
    return DeflationResult(
        pencil=pencil,
        p=red.p,
        q=red.q,
        zeros_deflated=red.zeros,
        infs_deflated=red.infs,
        steps=red.steps,
        work_a=red.wa,
        work_b=red.wb,
        size=m,
        a_regular=a_regular,
        b_regular=b_regular,
        flags=red.flags,
    )

