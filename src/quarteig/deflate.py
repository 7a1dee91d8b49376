"""Deflation of zero and infinite eigenvalues before the QZ stage.

The decision tree branches on the numerical ranks of the extreme
coefficients A and E:

* both regular: nothing is deflated and the linearization reaches QZ
  unchanged (identity transforms); the backend (LAPACK zggev) starts with
  its own QR of the lambda coefficient, so a triangularization here would be
  repeated work.
* exactly one singular: a structured transformation exposes n - r_E zero
  rows built from the factors of E (the reversed problem is processed when A
  is the singular one); a second-level matrix Psi = [Q_E2* D; R_E Pi_E^T]
  decides whether another zero block exists, in which case a permutation,
  a second rank-revealing factorization and a complete orthogonal
  decomposition deflate it. Longer chains continue generically.
* both singular: with the second-level matrices Phi and Psi both regular, a
  single structured transformation followed by one column compression
  removes the zero and the infinite block in one pass; otherwise zeros are
  chased first (structured two-step plus generic continuation) and the
  infinite chain is deflated on the reversed pencil with the first block
  sizes known from the ranks of A and Phi.

All transformations are accumulated as explicit unitary-times-permutation
factors P, Q so that P @ AA0 @ Q and P @ BB0 @ Q are block upper triangular
with the deflated part trailing; the retained work matrices are exactly what
eigenvector assembly needs later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import DeflationError
from .numkit import NormThreshold, PivotedQR, TriHessPair, rrqr, tri_hess_reduce, urv
from .pencil import LinearPencil, QuarticPencil, linearize, reverse


@dataclass
class RankProfile:
    """Rank-revealing factorizations of the extreme coefficients A and E."""

    qr_a: PivotedQR
    qr_e: PivotedQR
    strategy: object
    source: QuarticPencil | None = None

    @property
    def r_a(self):
        return self.qr_a.rank

    @property
    def r_e(self):
        return self.qr_e.rank

    @property
    def n(self):
        return self.qr_a.rows

    def swapped(self, source=None):
        """Profile of the reversed problem (A and E trade places)."""
        return RankProfile(
            qr_a=self.qr_e, qr_e=self.qr_a, strategy=self.strategy, source=source
        )

    def structured_m(self):
        """Structure-preserving factors of M = [[A, 0], [C, I]]."""
        q = self.source
        n = self.n
        eye = np.eye(n, dtype=np.complex128)
        zero = np.zeros((n, n), dtype=np.complex128)
        q_m = np.block([[zero, self.qr_a.q], [eye, zero]])
        pi_m = np.block([[zero, self.qr_a.perm_matrix()], [eye, zero]])
        r_m = np.block([[eye, q.c[:, self.qr_a.perm]], [zero, self.qr_a.r]])
        return q_m, pi_m, r_m

    def structured_k(self):
        """Structure-preserving factors of K = [[0, -I], [E, 0]]."""
        n = self.n
        eye = np.eye(n, dtype=np.complex128)
        zero = np.zeros((n, n), dtype=np.complex128)
        q_k = np.block([[eye, zero], [zero, self.qr_e.q]])
        pi_k = np.block([[zero, self.qr_e.perm_matrix()], [eye, zero]])
        r_k = np.block([[-eye, zero], [zero, self.qr_e.r]])
        return q_k, pi_k, r_k


def analyze_ranks(q: QuarticPencil, strategy=None) -> RankProfile:
    """Rank-revealing QR of A and E."""
    strategy = strategy or NormThreshold()
    return RankProfile(
        qr_a=rrqr(q.a, strategy),
        qr_e=rrqr(q.e, strategy),
        strategy=strategy,
        source=q,
    )


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
        qr_phi=rrqr(phi, rp.strategy),
        qr_psi=rrqr(psi, rp.strategy),
    )


@dataclass
class DeflationStep:
    kind: str
    deflated: int
    zeros: int = 0
    infs: int = 0
    rank: int | None = None
    evidence: dict = field(default_factory=dict)
    dropped: float = 0.0

    def as_dict(self):
        ev = {k: v for k, v in self.evidence.items() if k != "diag"}
        ev["diag"] = self.evidence.get("diag")
        return {
            "kind": self.kind,
            "deflated": self.deflated,
            "zeros": self.zeros,
            "infs": self.infs,
            "rank": self.rank,
            "evidence": ev,
            "dropped": self.dropped,
        }


@dataclass
class TrailingSchur:
    """Generalized Schur form of the deflated trailing pencil plus the
    coupling blocks multiplied by its right factor (see
    :attr:`DeflationResult.trailing_schur`)."""

    pair: TriHessPair
    xa: np.ndarray
    xb: np.ndarray


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
    n: int
    reversed: bool = False
    a_regular: bool | None = None
    b_regular: bool | None = None
    flags: list = field(default_factory=list)

    @property
    def full_size(self):
        return self.work_a.shape[0]

    @property
    def p_adj(self):
        """Cached adjoint of the left transformation (used per eigenvalue)."""
        if getattr(self, "_p_adj", None) is None:
            self._p_adj = self.p.conj().T.copy()
        return self._p_adj

    @property
    def trailing_schur(self):
        """Cached generalized Schur form of the trailing (deflated) pencil.

        ``pair`` reduces work_a[m:, m:] = q t z* and work_b[m:, m:] = q h z*
        with t, h upper triangular; ``xa``, ``xb`` are the coupling blocks
        work_a[:m, m:] z and work_b[:m, m:] z. Left-vector lifting uses them
        for every eigenvalue.
        """
        if getattr(self, "_trailing_schur", None) is None:
            m = self.size
            pair = tri_hess_reduce(self.work_a[m:, m:], self.work_b[m:, m:])
            self._trailing_schur = TrailingSchur(
                pair=pair,
                xa=self.work_a[:m, m:] @ pair.z,
                xb=self.work_b[:m, m:] @ pair.z,
            )
        return self._trailing_schur


class _Reducer:
    """Accumulates equivalence transformations on the 4n linearization."""

    def __init__(self, lin: LinearPencil):
        full = lin.size
        self.wa = lin.aa.astype(np.complex128).copy()
        self.wb = lin.bb.astype(np.complex128).copy()
        self.p = np.eye(full, dtype=np.complex128)
        self.q = np.eye(full, dtype=np.complex128)
        self.m = full
        self.zeros = 0
        self.infs = 0
        self.steps = []
        self.flags = []

    def left(self, l):
        m = self.m
        self.wa[:m, :] = l @ self.wa[:m, :]
        self.wb[:m, :] = l @ self.wb[:m, :]
        self.p[:m, :] = l @ self.p[:m, :]

    def right(self, r):
        m = self.m
        self.wa[:, :m] = self.wa[:, :m] @ r
        self.wb[:, :m] = self.wb[:, :m] @ r
        self.q[:, :m] = self.q[:, :m] @ r

    def apply_structured(self, l, r, wa_active, wb_active):
        """Apply (l, r), writing the active blocks as their exactly assembled
        images (identity/zero blocks exact)."""
        m = self.m
        self.p[:m, :] = l @ self.p[:m, :]
        self.q[:, :m] = self.q[:, :m] @ r
        self.wa[:m, m:] = l @ self.wa[:m, m:]
        self.wb[:m, m:] = l @ self.wb[:m, m:]
        self.wa[:m, :m] = wa_active
        self.wb[:m, :m] = wb_active

    def truncate(self, k, kind, side, zeros=0, infs=0, rank=None, evidence=None):
        m = self.m
        new = m - k
        dropped = float(
            np.linalg.norm(self.wa[new:m, :new]) ** 2
            + np.linalg.norm(self.wb[new:m, :new]) ** 2
        )
        self.wa[new:m, :new] = 0.0
        self.wb[new:m, :new] = 0.0
        if side == "zero":
            dropped += float(np.linalg.norm(self.wa[new:m, new:m]) ** 2)
            self.wa[new:m, new:m] = 0.0
        elif side == "inf":
            dropped += float(np.linalg.norm(self.wb[new:m, new:m]) ** 2)
            self.wb[new:m, new:m] = 0.0
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
                dropped=np.sqrt(dropped),
            )
        )


def _blocks(n):
    return np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)


def _step1_zero(red: _Reducer, q: QuarticPencil, rp: RankProfile):
    """E singular: expose and truncate the first block of n - r_E zeros."""
    n = q.n
    eye, zero = _blocks(n)
    qe_h = rp.qr_e.q.conj().T
    q_k = np.block([[eye, zero], [zero, rp.qr_e.q]])
    l = sla.block_diag(q_k.conj().T, q_k.conj().T)
    r = sla.block_diag(np.eye(2 * n, dtype=np.complex128), q_k)
    re_rows = rp.qr_e.r_hat_unpermuted(pad=True)
    wa = np.block(
        [
            [q.b, zero, -eye, zero],
            [qe_h @ q.d, zero, zero, -eye],
            [zero, -eye, zero, zero],
            [re_rows, zero, zero, zero],
        ]
    )
    wb = np.block(
        [
            [-q.a, zero, zero, zero],
            [-(qe_h @ q.c), -qe_h, zero, zero],
            [zero, zero, -eye, zero],
            [zero, zero, zero, -eye],
        ]
    )
    red.apply_structured(l, r, wa, wb)
    red.truncate(
        n - rp.r_e,
        kind="zero_block_1",
        side="zero",
        zeros=n - rp.r_e,
        rank=rp.r_e,
        evidence=dict(rp.qr_e.truncation_log),
    )


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
    perm = np.eye(m, dtype=np.complex128)[order, :]
    l = sla.block_diag(
        np.eye(2 * n + r_e, dtype=np.complex128), sl.qr_psi.q.conj().T
    ) @ perm
    red.left(l)
    # the bottom n rows of the constant term are Q_psi* Psi = R Pi^T exactly
    psi_rows = sl.qr_psi.r_hat_unpermuted(pad=True)
    red.wa[2 * n + r_e : 3 * n + r_e, :n] = psi_rows
    red.wa[2 * n + r_e : 3 * n + r_e, n:m] = 0.0
    trailing = red.wb[2 * n + r_e + r2 : m, :m]
    cod = urv(trailing, rp.strategy)
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


def _case_both_full(red: _Reducer, q: QuarticPencil, rp: RankProfile):
    """Both A and E singular, Phi and Psi regular: one block each for 0/inf."""
    n = q.n
    eye, zero = _blocks(n)
    qa_h = rp.qr_a.q.conj().T
    q_m = rp.structured_m()[0]
    q_k = np.block([[eye, zero], [zero, rp.qr_e.q]])
    l = sla.block_diag(q_m.conj().T, q_k.conj().T)
    r = sla.block_diag(np.eye(2 * n, dtype=np.complex128), q_k)
    ra_rows = rp.qr_a.r_hat_unpermuted(pad=True)
    re_rows = rp.qr_e.r_hat_unpermuted(pad=True)
    wa = np.block(
        [
            [q.d, zero, zero, -rp.qr_e.q],
            [qa_h @ q.b, zero, -qa_h, zero],
            [zero, -eye, zero, zero],
            [re_rows, zero, zero, zero],
        ]
    )
    wb = np.block(
        [
            [-q.c, -eye, zero, zero],
            [-ra_rows, zero, zero, zero],
            [zero, zero, -eye, zero],
            [zero, zero, zero, -eye],
        ]
    )
    red.apply_structured(l, r, wa, wb)
    red.truncate(
        n - rp.r_e,
        kind="zero_block_1",
        side="zero",
        zeros=n - rp.r_e,
        rank=rp.r_e,
        evidence=dict(rp.qr_e.truncation_log),
    )
    # infinite block: the rows holding Q_A2* (exactly zero on the lambda side)
    m = red.m
    rows = np.arange(n + rp.r_a, 2 * n)
    trailing = red.wa[rows, :m]
    cod = urv(trailing, rp.strategy)
    if cod.rank < n - rp.r_a:
        red.flags.append("inf_block_trailing_rank_deficient")
    red.right(cod.v)
    keep = np.array([i for i in range(m) if i not in set(rows)])
    order = np.concatenate([keep, rows])
    red.left(np.eye(m, dtype=np.complex128)[order, :])
    red.truncate(
        n - rp.r_a,
        kind="inf_block_1",
        side="inf",
        infs=n - rp.r_a,
        rank=rp.r_a,
        evidence=dict(rp.qr_a.truncation_log),
    )


def _generic_layer(red: _Reducer, on, strategy, known=None, kind=None):
    """One staircase reduction layer for the zero (on='zero') or infinite
    (on='inf') eigenvalue of the active pencil. Returns the deflated count."""
    m = red.m
    if m == 0:
        return 0
    const = red.wa if on == "zero" else red.wb
    f = rrqr(const[:m, :m], strategy)
    rank = m - known if known is not None else f.rank
    if rank >= m:
        return 0
    red.left(f.q.conj().T)
    other = red.wb if on == "zero" else red.wa
    trailing = other[rank:m, :m]
    cod = urv(trailing, strategy)
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
    v = rng.standard_normal(q.n) + 1j * rng.standard_normal(q.n)
    for mat, f, name in ((q.a, rp.qr_a, "A"), (q.e, rp.qr_e, "E")):
        lhs = mat[:, f.perm] @ v
        rhs = f.q @ (f.r @ v)
        scale = max(np.linalg.norm(mat), 1.0) * np.linalg.norm(v)
        if np.linalg.norm(lhs - rhs) > 1e-6 * scale:
            raise DeflationError(f"rank profile inconsistent with coefficient {name}")


def deflate(
    lin: LinearPencil,
    q: QuarticPencil,
    rp: RankProfile,
    sl: SecondLevel | None = None,
    *,
    strategy=None,
    max_steps=None,
) -> DeflationResult:
    """Run the full deflation decision tree on the 4n linearization."""
    n = q.n
    if lin.size != 4 * n:
        raise DeflationError(f"linearization size {lin.size} != 4n = {4 * n}")
    _check_consistent(q, rp)
    strategy = strategy or rp.strategy
    max_steps = max_steps if max_steps is not None else 4 * n

    if rp.r_a < n and rp.r_e == n:
        # only A singular: process the reversed problem, single code path
        q_rev = reverse(q)
        res = deflate(
            linearize(q_rev),
            q_rev,
            rp.swapped(source=q_rev),
            None,
            strategy=strategy,
            max_steps=max_steps,
        )
        res.reversed = True
        res.zeros_deflated, res.infs_deflated = (
            res.infs_deflated,
            res.zeros_deflated,
        )
        res.steps.insert(
            0, DeflationStep(kind="reversed_problem", deflated=0, evidence={})
        )
        return res

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
            n=n,
            a_regular=True,
            b_regular=True,
        )

    red = _Reducer(lin)
    nsteps = 0

    if rp.r_e < n and rp.r_a == n:
        _step1_zero(red, q, rp)
        if sl is None:
            sl = second_level(q, rp)
        if sl.r_psi < n:
            _step2_zero(red, q, rp, sl)
            while nsteps < max_steps:
                nsteps += 1
                if _generic_layer(red, "zero", strategy) == 0:
                    break
            else:
                red.flags.append("staircase_budget_exceeded")
    else:
        if sl is None:
            sl = second_level(q, rp)
        if sl.r_phi == n and sl.r_psi == n:
            _case_both_full(red, q, rp)
        else:
            _step1_zero(red, q, rp)
            if sl.r_psi < n:
                _step2_zero(red, q, rp, sl)
                while nsteps < max_steps:
                    nsteps += 1
                    if _generic_layer(red, "zero", strategy) == 0:
                        break
                else:
                    red.flags.append("staircase_budget_exceeded")
            # infinite chain on the reversed pencil; the first block sizes
            # are known from the ranks of A and Phi
            _generic_layer(red, "inf", strategy, known=n - rp.r_a,
                           kind="inf_block_1")
            if sl.r_phi < n:
                _generic_layer(red, "inf", strategy, known=n - sl.r_phi,
                               kind="inf_block_2")
                while nsteps < max_steps:
                    nsteps += 1
                    if _generic_layer(red, "inf", strategy) == 0:
                        break
                else:
                    red.flags.append("staircase_budget_exceeded")

    m = red.m
    fa = rrqr(red.wa[:m, :m], strategy)
    fb = rrqr(red.wb[:m, :m], strategy)
    a_regular = bool(fa.rank == m)
    b_regular = bool(fb.rank == m)
    if not b_regular:
        red.flags.append("deflated_pencil_bb_rank_deficient")
    if not a_regular and (red.zeros or red.infs):
        red.flags.append("deflated_pencil_aa_rank_deficient")
    pencil = LinearPencil(
        aa=red.wa[:m, :m].copy(),
        bb=red.wb[:m, :m].copy(),
        block_map={"kind": "deflated", "base": lin.block_map, "size": m},
    )
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
        n=n,
        a_regular=a_regular,
        b_regular=b_regular,
        flags=red.flags,
    )


@dataclass
class StepTransforms:
    u: np.ndarray
    v: np.ndarray
    flags: list = field(default_factory=list)


def staircase_step(p: LinearPencil, known_block=None, strategy=None):
    """One generic reduction layer toward the upper triangular Kronecker form.

    Column-compresses the constant term (its rank decided by ``strategy``
    unless ``known_block`` fixes the nullity), row-compresses the trailing
    rows of the lambda term, and splits off the nilpotent block; this is the
    decision tree's own staircase layer. When the trailing block is rank
    deficient the layer is flagged and deflates nothing. Returns
    ``(reduced_pencil, transforms, deflated)``; with nothing deflated the
    input pencil comes back with identity transforms.
    """
    red = _Reducer(p)
    k = _generic_layer(red, "zero", strategy or NormThreshold(), known=known_block)
    if k == 0:
        eye = np.eye(p.size, dtype=np.complex128)
        return p, StepTransforms(u=eye, v=eye, flags=red.flags), 0
    m = red.m
    reduced = LinearPencil(
        aa=red.wa[:m, :m].copy(),
        bb=red.wb[:m, :m].copy(),
        block_map={"kind": "staircase", "base": p.block_map, "size": m},
    )
    return reduced, StepTransforms(u=red.p.conj().T, v=red.q, flags=red.flags), k
