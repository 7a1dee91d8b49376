"""Deflation of zero and infinite eigenvalues before the QZ stage.

The decision tree branches on the numerical ranks of the extreme
coefficients A and E:

* both regular: nothing is deflated and the linearization, formed here
  and only here, reaches QZ unchanged (no transform is built); the backend
  (LAPACK zggev3) starts with its own QR of the lambda coefficient, so a
  triangularization here would be repeated work.
* otherwise one path. A structured first step built from the factors of
  A and E exposes, with E singular, n - r_E zero rows of AA (R_E's
  truncated rows), cut off at once, and, with A singular, n - r_A zero rows
  of BB (R_A's). The second-level matrices Psi = [Q_E2* D; R_E Pi_E^T]
  (only with E singular) and Phi = [Q_A2* B; R_A Pi_A^T] (only with A
  singular) decide whether another zero or infinite block exists. Each
  further structured block moves a set of rows last, multiplies them by a
  unitary from the factors, compresses their trailing rows in the other
  coefficient with one complete orthogonal decomposition and cuts those
  off: with Psi deficient the second zero block, from Q_Psi; with A
  singular the first infinite block (the rows exposed in BB) and, with Phi
  deficient, the second, from Q_A and Q_Phi. Longer chains continue with
  generic staircase layers (Van Dooren, LAA 27 (1979)), the infinite one on
  BB as the zero one on AA. Block rows are numbered from 0.

The steps apply a unitary equivalence P (AA0, BB0) Q whose images are
block upper triangular with the deflated part trailing. The returned
:class:`DeflationResult` keeps only Q, which lifts the right eigenvectors
of the deflated pencil to the full linearization; left eigenvectors come
from the quartic itself, so P is never stored. Every step that deflates k
eigenvalues puts a k x k diagonal block on top of the trailing staircase,
with exact zeros to its left and, in AA after a zero step or in BB after an
infinite step, on the block itself; its ``steps`` record the sizes and
sides.

Every stage takes the :class:`RankProfile` of the working quartic, which
carries the quartic itself, so the factors cannot belong to another one.
Rank decisions read only the R factor of a pivoted QR; its Q is formed only
where a step transforms with it (:class:`numkit.PivotedQR`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import EPS, PivotedQR, rrqr, safe_norm, urv
from .pencil import LinearPencil, QuarticPencil, linearize, place_blocks


@dataclass
class RankProfile:
    """The quartic ``q`` with rank-revealing factorizations of its extreme
    coefficients A and E, by :func:`numkit.rrqr`'s rule, as is every rank
    decision of the deflation."""

    q: QuarticPencil
    qr_a: PivotedQR
    qr_e: PivotedQR

    @property
    def r_a(self):
        return self.qr_a.rank

    @property
    def r_e(self):
        return self.qr_e.rank

    @property
    def n(self):
        return self.q.n


def analyze_ranks(q: QuarticPencil) -> RankProfile:
    """Rank-revealing QR of A and E."""
    return RankProfile(q=q, qr_a=rrqr(q.a), qr_e=rrqr(q.e))


@dataclass
class SecondLevel:
    """Second-level block matrices deciding multi-block 0/inf structure;
    Phi (Psi) and its factorization are None where A (E) is regular."""

    phi: np.ndarray | None
    psi: np.ndarray | None
    qr_phi: PivotedQR | None
    qr_psi: PivotedQR | None

    @property
    def r_phi(self):
        return None if self.qr_phi is None else self.qr_phi.rank

    @property
    def r_psi(self):
        return None if self.qr_psi is None else self.qr_psi.rank


def second_level(rp: RankProfile) -> SecondLevel:
    """Assemble, with E singular, Psi = [Q_E2* D; R_E Pi_E^T] and, with A
    singular, Phi = [Q_A2* B; R_A Pi_A^T]."""
    q, n = rp.q, rp.n
    if rp.r_a == n and rp.r_e == n:
        raise ValueError("second_level is only defined when A or E is rank deficient")
    phi = qr_phi = psi = qr_psi = None
    if rp.r_a < n:
        phi = np.vstack([rp.qr_a.q2.conj().T @ q.b, rp.qr_a.r_hat_unpermuted()])
        qr_phi = rrqr(phi)
    if rp.r_e < n:
        psi = np.vstack([rp.qr_e.q2.conj().T @ q.d, rp.qr_e.r_hat_unpermuted()])
        qr_psi = rrqr(psi)
    return SecondLevel(phi=phi, psi=psi, qr_phi=qr_phi, qr_psi=qr_psi)


@dataclass
class DeflationStep:
    """One truncation; a report lists these fields in this order (:meth:`as_dict`)."""

    kind: str
    deflated: int
    zeros: int = 0
    infs: int = 0
    rank: int | None = None
    evidence: dict = field(default_factory=dict)
    dropped: float = 0.0

    def as_dict(self):
        """The fields as a dict, sharing no mutable value with the step: the
        ``evidence`` dict and its lists (``diag``) are copies."""
        return {"kind": self.kind, "deflated": self.deflated, "zeros": self.zeros,
                "infs": self.infs, "rank": self.rank,
                "evidence": {k: list(v) if isinstance(v, list) else v
                             for k, v in self.evidence.items()},
                "dropped": self.dropped}


@dataclass
class DeflationResult:
    """Deflated regular pencil plus the accumulated right transform.

    Starts from the images work_a = P AA Q and work_b = P BB Q of a first
    step (P and Q unitary). It owns the work matrices and Q and updates them
    in place; P acts on the work matrices' rows and is not stored. The
    counts are the steps' sums. ``q`` is None when nothing was deflated: the
    work matrices are the linearization itself.
    """

    work_a: np.ndarray
    work_b: np.ndarray
    q: np.ndarray | None
    steps: list = field(default_factory=list)
    a_regular: bool | None = None
    b_regular: bool | None = None
    flags: list = field(default_factory=list)

    @property
    def full_size(self):
        return self.work_a.shape[0]

    @property
    def size(self):
        return self.full_size - sum(s.deflated for s in self.steps)

    @property
    def zeros_deflated(self):
        return sum(s.zeros for s in self.steps)

    @property
    def infs_deflated(self):
        return sum(s.infs for s in self.steps)

    @property
    def pencil(self):
        """The deflated pencil: the leading ``size`` block of the work matrices."""
        m = self.size
        return LinearPencil(aa=self.work_a[:m, :m], bb=self.work_b[:m, :m])

    def lift(self, v):
        """Q v: right vectors of the deflated pencil, as columns of v, lifted
        to the full linearization (unit ones stay unit)."""
        return v if self.q is None else self.q[:, : self.size] @ v

    def left(self, l, start=0):
        """Multiply the active rows from ``start`` on by l from the left."""
        m = self.size
        for w in (self.work_a, self.work_b):
            w[start:m, :] = l @ w[start:m, :]

    def permute_rows(self, order):
        """Reorder the active rows: new row i is old row ``order[i]``."""
        m = self.size
        for w in (self.work_a, self.work_b):
            w[:m, :] = w[order, :]

    def right(self, r):
        """Multiply the active columns by r; below the active rows they are
        exact zeros (left so by :meth:`truncate`) and stay untouched."""
        m = self.size
        self.work_a[:m, :m] = self.work_a[:m, :m] @ r
        self.work_b[:m, :m] = self.work_b[:m, :m] @ r
        self.q[:, :m] = self.q[:, :m] @ r

    def truncate(self, k, kind, side, rank=None, evidence=None):
        """Cut the trailing k rows and columns off the active pencil, k zero
        (side "zero") or infinite (side "inf") eigenvalues.

        The entries left of the cut block in both matrices, and the block
        itself in AA (side "zero") or BB (side "inf"), are set to zero;
        ``dropped`` is the Frobenius norm of what they held.
        """
        m = self.size
        new = m - k
        cut = (self.work_a[new:m, :new], self.work_b[new:m, :new],
               (self.work_a if side == "zero" else self.work_b)[new:m, new:m])
        dropped = float(safe_norm([safe_norm(c) for c in cut]))
        for c in cut:
            c[...] = 0.0
        zeros, infs = (k, 0) if side == "zero" else (0, k)
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


def _step1_zero(rp: RankProfile) -> DeflationResult:
    """The structured first step: P = diag(Q_A*, Q_E*, I_n, Q_E*) and
    Q = diag(I_3n, Q_E) transform the linearization, whose images are built
    from the coefficients with their identity and zero blocks exact. With E
    singular, R_E's truncated rows of AA are cut off as the first block of
    n - r_E zeros. With A singular, R_A's are exact zero rows of BB in block
    row 0, left for :func:`_inf_blocks`. Q_A* (Q_E* and Q_E) is applied
    only where A (E) is singular."""
    q, n = rp.q, rp.n
    if rp.r_a < n:
        qa_h = rp.qr_a.q.conj().T
        top_a, top_b = [qa_h @ q.b, 0, -qa_h, 0], [-rp.qr_a.r_hat_unpermuted(pad=True), 0, 0, 0]
    else:
        top_a, top_b = [q.b, 0, -1, 0], [-q.a, 0, 0, 0]
    q_right = np.eye(4 * n, dtype=np.complex128)
    if rp.r_e < n:
        qe_h = rp.qr_e.q.conj().T
        mid_a, mid_b = [qe_h @ q.d, 0, 0, -1], [-(qe_h @ q.c), -qe_h, 0, 0]
        low_a = [rp.qr_e.r_hat_unpermuted(pad=True), 0, 0, 0]
        q_right[3 * n :, 3 * n :] = rp.qr_e.q
    else:
        mid_a, mid_b, low_a = [q.d, 0, 0, -1], [-q.c, -1, 0, 0], [q.e, 0, 0, 0]
    wa = place_blocks([top_a, mid_a, [0, -1, 0, 0], low_a], n)
    wb = place_blocks([top_b, mid_b, [0, 0, -1, 0], [0, 0, 0, -1]], n)
    d = DeflationResult(wa, wb, q_right)
    if rp.r_e < n:
        d.truncate(n - rp.r_e, kind="zero_block_1", side="zero", rank=rp.r_e,
                   evidence=dict(rp.qr_e.truncation_log))
    return d


def _structured_block(d: DeflationResult, rows, w, f: PivotedQR, kind, flag, exact=None):
    """Deflate the block that ``f`` sizes: move ``rows`` last and multiply
    them by the unitary w* (None: the identity), which leaves their trailing
    f.cols - f.rank rows zero in the constant term (AA for a zero block, BB
    for an infinite one); compress those rows of the other term with one URV
    and cut them off, recording f's rank and log (and ``flag`` where they
    are rank deficient). ``exact`` replaces the moved rows of the constant
    term: their leading columns, and zeros after."""
    side = kind.split("_")[0]
    const, other = (d.work_a, d.work_b) if side == "zero" else (d.work_b, d.work_a)
    m, k, start = d.size, f.cols - f.rank, d.size - len(rows)
    d.permute_rows(np.concatenate([np.delete(np.arange(m), rows), rows]))
    if w is not None:
        d.left(w.conj().T, start=start)
    if exact is not None:
        const[start:m, :m] = 0.0
        const[start:m, : exact.shape[1]] = exact
    cod = urv(other[m - k : m, :m])
    if cod.rank < k:
        d.flags.append(flag)
    d.right(cod.v)
    d.truncate(k, kind=kind, side=side, rank=f.rank, evidence=dict(f.truncation_log))


def _step2_zero(d: DeflationResult, rp: RankProfile, sl: SecondLevel):
    """Second zero block: the rows of Psi, block row 1 past its first r_E
    and block row 3, become R_Psi Pi^T exactly under Q_Psi*."""
    n, r_e = rp.n, rp.r_e
    assert d.size == 3 * n + r_e
    rows = np.concatenate([np.arange(n + r_e, 2 * n), np.arange(3 * n, 3 * n + r_e)])
    _structured_block(d, rows, sl.qr_psi.q, sl.qr_psi, "zero_block_2",
                      "zero_chain_trailing_rank_deficient",
                      exact=sl.qr_psi.r_hat_unpermuted(pad=True))


def _inf_blocks(d: DeflationResult, rp: RankProfile, sl: SecondLevel):
    """A singular: the first two infinite blocks, cut before any staircase
    layer mixes the rows they are read from.

    The first is rows r_A..n of block row 0, exact zeros in BB since
    :func:`_step1_zero`. Then the left null rows of the active BB are
    u = [a; Q_A2 d] over R_A's rows and block row 2, for [d; a] in the
    trailing n - r_Phi columns of Q_Phi: u* BB = d* Q_A2* [B, 0, -I, 0] are
    the rows the first block compressed. W = [[0; Q_A1], M Q_Phi] with
    M = [[0, I]; [Q_A2, 0]] is unitary; its trailing columns give the second."""
    n, r_a = rp.n, rp.r_a
    _structured_block(d, np.arange(r_a, n), None, rp.qr_a, "inf_block_1",
                      "inf_block_trailing_rank_deficient")
    if sl.r_phi == n:
        return
    qa, qphi = rp.qr_a.q, sl.qr_phi.q
    w = np.block([[np.zeros((r_a, r_a)), qphi[n - r_a :]],
                  [qa[:, :r_a], qa[:, r_a:] @ qphi[: n - r_a]]])
    # block row 2 follows R_A's rows and block row 1, of which _step2_zero
    # keeps the first r_E rows here (all n where it did not run)
    start = r_a + (n if sl.r_psi in (None, n) else rp.r_e)
    rows = np.concatenate([np.arange(r_a), np.arange(start, start + n)])
    _structured_block(d, rows, w, sl.qr_phi, "inf_block_2",
                      "inf_chain_trailing_rank_deficient")


def _generic_layer(d: DeflationResult, on):
    """One staircase reduction layer for the zero (on='zero') or infinite
    (on='inf') eigenvalue of the active pencil. Returns the deflated count:
    the null columns of the active constant term's pivoted QR.

    Its threshold is never below full_size*eps (4n*eps) times the norm of
    the whole work matrix: the roundoff of the earlier steps does not shrink
    with the active block, and a relative rule alone cannot judge a 1x1
    block singular."""
    m = d.size
    if m == 0:
        return 0
    const = d.work_a if on == "zero" else d.work_b
    floor = d.full_size * EPS * float(safe_norm(const))
    f = rrqr(const[:m, :m], floor=floor)
    k = f.cols - f.rank
    if k <= 0:
        return 0
    d.left(f.q.conj().T)
    other = d.work_b if on == "zero" else d.work_a
    cod = urv(other[m - k : m, :m])
    if cod.rank < k:
        d.flags.append(f"staircase_{on}_trailing_rank_deficient")
        return 0
    d.right(cod.v)
    d.truncate(k, kind=f"staircase_{on}", side=on, rank=f.rank, evidence=dict(f.truncation_log))
    return k


def deflate(rp: RankProfile) -> DeflationResult:
    """Run the full deflation decision tree on the 4n linearization of
    ``rp.q``.

    Every rank decision follows :func:`numkit.rrqr`'s fixed rule, the
    staircase's with its floor (:func:`_generic_layer`); a singular A or E
    brings in the :func:`second_level` matrices of ``rp``. The structured
    first steps build their images from the coefficients; only a regular
    quartic has its linearization formed. Every singular quartic takes one
    path: E's zero chain is deflated as zero blocks and A's infinite chain
    as infinite blocks, each only where that coefficient is singular.
    """
    n = rp.n

    if rp.r_a == n and rp.r_e == n:
        # nothing to deflate; BB is block lower triangular with diagonal
        # (-A, -I, -I, -I) and AA, with its block columns permuted, is block
        # upper triangular with diagonal (-I, -I, -I, E), so both are regular
        # exactly when A and E are
        lin = linearize(rp.q)
        d = DeflationResult(lin.aa, lin.bb, None, a_regular=True, b_regular=True)
        d.steps.append(DeflationStep(kind="regular", deflated=0, rank=rp.r_a,
                                     evidence=dict(rp.qr_a.truncation_log)))
        return d
    sl = second_level(rp)
    zero_chain = sl.r_psi not in (None, n)
    d = _step1_zero(rp)
    if zero_chain:
        _step2_zero(d, rp, sl)
    if rp.r_a < n:
        _inf_blocks(d, rp, sl)
    if zero_chain:
        while _generic_layer(d, "zero"):
            pass
    if rp.r_a < n and sl.r_phi < n:
        while _generic_layer(d, "inf"):
            pass
    m = d.size
    d.a_regular = bool(rrqr(d.work_a[:m, :m]).rank == m)
    d.b_regular = bool(rrqr(d.work_b[:m, :m]).rank == m)
    if not d.b_regular:
        d.flags.append("deflated_pencil_bb_rank_deficient")
    if not d.a_regular:
        d.flags.append("deflated_pencil_aa_rank_deficient")
    return d
