import numpy as np
import pytest
import scipy.linalg as sla

import quarteig.deflate
from quarteig import QuarticPencil
from quarteig.deflate import _generic_layer, _Reducer, analyze_ranks, deflate, second_level
from quarteig.errors import DeflationError
from quarteig.numkit import EPS, rrqr
from quarteig.pencil import LinearPencil, linearize, reverse
from oracles import (
    classify_dense,
    haar_unitary,
    match_values,
    rand_complex,
    random_regular_quartic,
)
from problems import gen_jordan_chain, gen_mirror_like, gen_planted


def dense_counts(q):
    """Class counts of a dense solve of the linearization, and its finite
    eigenvalues."""
    lin = linearize(q)
    lam, cls = classify_dense(lin.aa, lin.bb)
    return {c: int(np.sum(cls == c)) for c in ("zero", "finite", "infinite")}, lam[cls == "finite"]


def run_deflate(q, with_sl=True):
    """Deflate as solve_pencil does: a quartic with only A singular is
    deflated through ``analyze_ranks(q).swapped()``, and its counts are
    swapped back to q's orientation. Returns ``(lin, rp_w, sl, d)`` with
    the linearization and rank profile of the working quartic ``rp_w.q``."""
    rp = analyze_ranks(q)
    flip = rp.r_a < q.n and rp.r_e == q.n
    rp_w = rp.swapped() if flip else rp
    lin = linearize(rp_w.q)
    sl = None
    if with_sl and (rp.r_a < q.n or rp.r_e < q.n):
        sl = second_level(rp_w)
    d = deflate(lin, rp_w, sl)
    if flip:
        d.reversed = True
        d.zeros_deflated, d.infs_deflated = d.infs_deflated, d.zeros_deflated
    return lin, rp_w, sl, d


class TestAnalyzeRanks:
    def test_full_rank_diagonals(self):
        n = 5
        q = QuarticPencil.from_matrices(
            np.diag(np.arange(1.0, n + 1)), np.eye(n), np.eye(n), np.eye(n), np.eye(n)
        )
        rp = analyze_ranks(q)
        assert rp.r_a == n and rp.r_e == n

    def test_zero_columns_in_e(self):
        rng = np.random.default_rng(0)
        n = 9
        e = haar_unitary(rng, n)
        e[:, [0, 3, 7]] = 0.0
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), np.eye(n), e)
        assert analyze_ranks(q).r_e == 6

    def test_rank_one_a_vs_svd_oracle(self):
        rng = np.random.default_rng(1)
        n = 5
        a = np.outer(rand_complex(rng, (n,)), rand_complex(rng, (n,)))
        q = QuarticPencil.from_matrices(
            a, *(rand_complex(rng, (n, n)) for _ in range(4))
        )
        rp = analyze_ranks(q)
        svd_rank = int(np.sum(np.linalg.svd(a, compute_uv=False) > n * EPS * np.linalg.norm(a)))
        assert rp.r_a == svd_rank == 1


class TestSecondLevel:
    def test_zero_e_identity_d(self):
        n = 4
        q = QuarticPencil.from_matrices(
            np.eye(n), np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n))
        )
        rp = analyze_ranks(q)
        sl = second_level(rp)
        assert rp.r_e == 0
        assert sl.r_psi == n  # psi rows reduce to D = I

    def test_zero_e_zero_d(self):
        n = 4
        z = np.zeros((n, n))
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), z, z)
        sl = second_level(analyze_ranks(q))
        assert sl.r_psi == 0
        assert np.array_equal(sl.psi, z)

    def test_mirror_structure_psi_rank(self):
        b = gen_mirror_like(seed=0)
        sl = second_level(analyze_ranks(b.pencil))
        assert sl.r_psi == 7
        assert sl.r_phi == 7
        # two exactly-zero columns in each second-level matrix
        zero_cols_psi = np.sum(np.linalg.norm(sl.psi, axis=0) == 0.0)
        zero_cols_phi = np.sum(np.linalg.norm(sl.phi, axis=0) == 0.0)
        assert zero_cols_psi == 2 and zero_cols_phi == 2

    def test_rejected_when_both_full(self):
        rng = np.random.default_rng(3)
        q = random_regular_quartic(rng, 3)
        with pytest.raises(ValueError):
            second_level(analyze_ranks(q))

    def test_row_partition(self):
        b = gen_planted(5, 2, 1, seed=9)
        sl = second_level(analyze_ranks(b.pencil))
        assert sl.psi.shape == (5, 5)
        assert sl.phi.shape == (5, 5)


class TestDeflateCases:
    def test_case_regular_no_deflation(self):
        rng = np.random.default_rng(4)
        n = 3
        q = QuarticPencil.from_matrices(
            haar_unitary(rng, n),
            rand_complex(rng, (n, n)),
            rand_complex(rng, (n, n)),
            rand_complex(rng, (n, n)),
            haar_unitary(rng, n),
        )
        lin, rp, sl, d = run_deflate(q)
        assert d.size == 4 * n
        assert d.zeros_deflated == 0 and d.infs_deflated == 0
        assert np.array_equal(d.pencil.aa, lin.aa) and np.array_equal(d.pencil.bb, lin.bb)
        assert np.array_equal(d.p, np.eye(4 * n)) and np.array_equal(d.q, np.eye(4 * n))
        assert [s.kind for s in d.steps] == ["regular"]
        assert d.a_regular and d.b_regular

    def test_regular_solve_same_with_deflation_off(self):
        from quarteig import SolveConfig, build_report, solve_pencil

        rng = np.random.default_rng(27)
        q = random_regular_quartic(rng, 5)
        on = solve_pencil(q, SolveConfig(deflate=True))
        off = solve_pencil(q, SolveConfig(deflate=False))
        match_values(on.solution.lam, off.solution.lam, 1e-10)
        rep = build_report(on)["deflation"]
        assert isinstance(rep, dict)
        assert rep["zeros"] == rep["infinities"] == 0
        assert rep["size"] == 4 * q.n

    def test_single_zero_spectral_union(self):
        rng = np.random.default_rng(5)
        n = 2
        q = QuarticPencil.from_matrices(
            haar_unitary(rng, n),
            rand_complex(rng, (n, n)),
            rand_complex(rng, (n, n)),
            rand_complex(rng, (n, n)),
            np.diag([1.0, 0.0]),
        )
        lin, rp, sl, d = run_deflate(q)
        assert d.zeros_deflated == 1 and d.infs_deflated == 0
        assert d.size == 3 * n + rp.r_e == 7
        lam_defl = sla.eig(d.pencil.aa, d.pencil.bb, right=False)
        counts, lam_full_finite = dense_counts(q)
        assert counts["zero"] == 1
        match_values(lam_defl, lam_full_finite, 1e-8)

    def test_mirror_nine_plus_nine(self):
        b = gen_mirror_like(seed=0)
        lin, rp, sl, d = run_deflate(b.pencil)
        assert rp.r_a == 2 and rp.r_e == 2
        assert d.zeros_deflated == 9
        assert d.infs_deflated == 9
        assert d.size == 36 - 18
        assert d.a_regular and d.b_regular

    def test_transformation_consistency(self):
        for seed, (ke, ka) in ((6, (1, 0)), (7, (1, 1)), (8, (2, 2)), (9, (0, 0))):
            b = gen_planted(4, ke, ka, seed=seed)
            q = b.pencil
            lin, rp, sl, d = run_deflate(q)
            n4 = 4 * q.n
            tol = 1e2 * n4 * EPS
            assert np.linalg.norm(d.p @ lin.aa @ d.q - d.work_a) <= tol * np.linalg.norm(lin.aa)
            assert np.linalg.norm(d.p @ lin.bb @ d.q - d.work_b) <= tol * np.linalg.norm(lin.bb)
            assert np.linalg.norm(d.p.conj().T @ d.p - np.eye(n4)) <= tol
            assert np.linalg.norm(d.q.conj().T @ d.q - np.eye(n4)) <= tol
            # block upper triangular: vanished bottom-left in the work matrices
            m = d.size
            assert np.linalg.norm(d.work_a[m:, :m]) == 0.0
            assert np.linalg.norm(d.work_b[m:, :m]) == 0.0

    def test_case_both_full_transforms(self):
        # the row permutation of the infinite block is applied by index
        b = gen_planted(10, 3, 2, seed=60)
        lin, rp, sl, d = run_deflate(b.pencil)
        assert [s.kind for s in d.steps] == ["zero_block_1", "inf_block_1"]
        for w0, w in ((lin.aa, d.work_a), (lin.bb, d.work_b)):
            assert np.linalg.norm(d.p @ w0 @ d.q - w) <= 1e-13 * np.linalg.norm(w0)
        # exact zeros below each deflated block, and on its diagonal in the
        # coefficient that vanishes there
        top = d.full_size
        for step in d.steps:
            lo = top - step.deflated
            assert not d.work_a[lo:top, :lo].any() and not d.work_b[lo:top, :lo].any()
            vanishing = d.work_a if step.zeros else d.work_b
            assert not vanishing[lo:top, lo:top].any()
            top = lo
        assert top == d.size

    def test_rank_only_factors_form_no_q(self):
        # a regular problem reads only the ranks of A and E; the both-full
        # case only the ranks of Phi and Psi
        q = random_regular_quartic(np.random.default_rng(61), 5)
        _, rp, _, d = run_deflate(q)
        assert d.size == d.full_size
        assert rp.qr_a._q is None and rp.qr_e._q is None
        _, rp, sl, d = run_deflate(gen_planted(10, 3, 2, seed=60).pencil)
        assert [s.kind for s in d.steps] == ["zero_block_1", "inf_block_1"]
        assert sl.qr_phi._q is None and sl.qr_psi._q is None

    def test_spectral_conservation_planted(self):
        for seed, n, ke, ka in ((10, 3, 1, 0), (11, 4, 2, 1), (12, 5, 1, 2), (13, 8, 3, 3)):
            b = gen_planted(n, ke, ka, seed=seed)
            lin, rp, sl, d = run_deflate(b.pencil)
            counts, lam_full_finite = dense_counts(b.pencil)
            assert d.zeros_deflated == counts["zero"]
            assert d.infs_deflated == counts["infinite"]
            lam_defl = sla.eig(d.pencil.aa, d.pencil.bb, right=False)
            match_values(lam_defl, lam_full_finite, 1e-8)
            assert d.size + d.zeros_deflated + d.infs_deflated == 4 * n

    def test_planted_lower_bounds(self):
        for seed in range(5):
            b = gen_planted(6, 2, 1, seed=100 + seed)
            _, _, _, d = run_deflate(b.pencil)
            assert d.zeros_deflated >= 2
            assert d.infs_deflated >= 1

    def test_reversal_duality(self):
        for seed, (ke, ka) in ((20, (1, 0)), (21, (0, 2)), (22, (2, 1))):
            b = gen_planted(4, ke, ka, seed=seed)
            q = b.pencil
            _, _, _, d_fwd = run_deflate(q)
            _, _, _, d_rev = run_deflate(reverse(q))
            assert d_fwd.zeros_deflated == d_rev.infs_deflated
            assert d_fwd.infs_deflated == d_rev.zeros_deflated

    def test_jordan_chain_multi_step(self):
        b = gen_jordan_chain(3, 3, "zero", seed=5)
        _, _, _, d = run_deflate(b.pencil)
        assert d.zeros_deflated == 3
        assert d.infs_deflated == 1
        kinds = [s.kind for s in d.steps if s.deflated > 0]
        assert kinds[:2] == ["zero_block_1", "zero_block_2"]
        assert "staircase_zero" in kinds

    def test_only_a_singular_rejected(self):
        # the reversal happens once, in the solver; deflate() asks for it
        q = gen_planted(4, 0, 2, seed=21).pencil
        rp = analyze_ranks(q)
        assert rp.r_a < q.n and rp.r_e == q.n
        with pytest.raises(DeflationError, match="reverse"):
            deflate(linearize(q), rp)


def staircase_layer(p, known_block=None, red=None):
    """One generic staircase layer for the zero eigenvalue of pencil p (or
    of the reducer's active pencil); returns (reducer, deflated)."""
    if red is None:
        eye = np.eye(p.size, dtype=np.complex128)
        red = _Reducer(p.aa.astype(np.complex128), p.bb.astype(np.complex128), eye, eye.copy())
    return red, _generic_layer(red, "zero", None, known=known_block)


class TestStaircaseStep:
    def test_nonsingular_constant_term(self):
        rng = np.random.default_rng(24)
        p = LinearPencil(aa=haar_unitary(rng, 4), bb=rand_complex(rng, (4, 4)))
        red, k = staircase_layer(p)
        assert k == 0
        assert red.m == 4 and not red.steps
        assert np.array_equal(red.wa, p.aa) and np.array_equal(red.wb, p.bb)

    def test_probe_that_deflates_nothing_forms_no_q(self, monkeypatch):
        made = []

        def recorded(*args, **kwargs):
            made.append(rrqr(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(quarteig.deflate, "rrqr", recorded)
        rng = np.random.default_rng(24)
        p = LinearPencil(aa=haar_unitary(rng, 4), bb=rand_complex(rng, (4, 4)))
        red, k = staircase_layer(p)
        assert k == 0 and len(made) == 1
        assert made[0]._q is None  # only the rank was read

    def test_jordan_two_block(self):
        # pencil J_2(0) - lambda I: two layers, one zero deflated in each
        aa = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        p = LinearPencil(aa=aa, bb=np.eye(2, dtype=complex))
        red, k1 = staircase_layer(p)
        assert k1 == 1
        red, k2 = staircase_layer(p, red=red)
        assert k2 == 1
        assert red.m == 0
        lam = sla.eig(aa, np.eye(2), right=False)
        assert np.allclose(lam, 0.0)

    def test_reversed_known_block(self):
        rng = np.random.default_rng(25)
        k, r = 3, 4
        bb = sla.block_diag(np.zeros((k, k)), haar_unitary(rng, r)).astype(complex)
        aa = haar_unitary(rng, k + r)
        # infinities of aa - lambda*bb are zeros of the reversed pencil
        reversed_pencil = LinearPencil(aa=bb, bb=aa)
        red, deflated = staircase_layer(reversed_pencil, known_block=k)
        assert deflated == k
        assert red.m == r

    def test_transform_shapes(self):
        rng = np.random.default_rng(26)
        aa = np.diag([1.0, 0.0]).astype(complex)
        p = LinearPencil(aa=aa, bb=haar_unitary(rng, 2))
        red, k = staircase_layer(p)
        assert k == 1
        assert red.p.shape == (2, 2) and red.q.shape == (2, 2)
        assert np.linalg.norm(red.p.conj().T @ red.p - np.eye(2)) < 50 * EPS


class TestBudgetAndChains:
    def test_infinity_chain_steps(self):
        b = gen_jordan_chain(3, 3, "infinity", seed=8)
        _, _, _, d = run_deflate(b.pencil)
        assert d.infs_deflated == 3
        assert d.zeros_deflated == 1
        kinds = [s.kind for s in d.steps if s.infs > 0]
        assert kinds[0] == "inf_block_1"
        assert len(kinds) == 3


CONTRACT_CASES = {
    "regular": lambda: random_regular_quartic(np.random.default_rng(70), 4),
    "only_e_singular": lambda: gen_planted(5, 2, 0, seed=71).pencil,
    "only_a_singular": lambda: gen_planted(6, 0, 2, seed=21).pencil,
    "both_full": lambda: gen_planted(10, 3, 2, seed=60).pencil,
    "mirror_like": lambda: gen_mirror_like(seed=0).pencil,
    **{f"jordan_{at}_{length}": (lambda at=at, length=length:
                                 gen_jordan_chain(6, length, at, seed=72).pencil)
       for at in ("zero", "infinity") for length in (2, 3, 4)},
}


class TestDeflationResultContract:
    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    def test_result_agrees_with_its_parts(self, case):
        q = CONTRACT_CASES[case]()
        lin, rp_w, _, d = run_deflate(q)
        assert d.reversed == (case in ("only_a_singular", "jordan_infinity_4"))
        # the working quartic is q, or its reversal taken from the profile
        want = reverse(q) if d.reversed else q
        assert all(x is y for x, y in zip(rp_w.q.coeffs, want.coeffs))
        assert all(x is y for x, y in zip(analyze_ranks(q).swapped().q.coeffs,
                                          reverse(q).coeffs))
        m = d.size
        assert np.array_equal(d.pencil.aa, d.work_a[:m, :m])
        assert np.array_equal(d.pencil.bb, d.work_b[:m, :m])
        zeros = sum(s.zeros for s in d.steps)
        infs = sum(s.infs for s in d.steps)
        # the steps describe the working quartic, the counts the input's
        if d.reversed:
            zeros, infs = infs, zeros
        assert (d.zeros_deflated, d.infs_deflated) == (zeros, infs)
        assert m + zeros + infs == d.full_size == 4 * q.n
        tol = 100 * 4 * q.n * EPS
        for w0, w in ((lin.aa, d.work_a), (lin.bb, d.work_b)):
            assert np.linalg.norm(d.p @ w0 @ d.q - w) <= tol * np.linalg.norm(w0)
