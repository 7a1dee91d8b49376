import numpy as np
import pytest
import scipy.linalg as sla

import quarteig.deflate
from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.deflate import DeflationResult, _generic_layer, analyze_ranks, deflate, second_level
from quarteig.numkit import EPS, rrqr
from quarteig.pencil import LinearPencil, linearize
from oracles import (
    classify_dense,
    equivalence_left_factor,
    haar_unitary,
    match_values,
    rand_complex,
    random_regular_quartic,
)
from problems import gen_jordan_chain, gen_mirror_like, gen_planted
from support import assert_equivalent, reverse


def dense_counts(q):
    """Class counts of a dense solve of the linearization, and its finite
    eigenvalues."""
    lin = linearize(q)
    lam, cls = classify_dense(lin.aa, lin.bb)
    return {c: int(np.sum(cls == c)) for c in ("zero", "finite", "infinite")}, lam[cls == "finite"]


def assert_staircase(lin, rp, d):
    """``d`` is a unitary equivalence of ``lin`` to 1e-13 with exact zeros
    below each deflated block and on its diagonal in the coefficient that
    vanishes there; its first two infinite blocks record the rank decisions
    of A and Phi."""
    assert_equivalent(lin.aa, lin.bb, d, 1e-13)
    top = d.full_size
    for step in d.steps:
        lo = top - step.deflated
        assert not d.work_a[lo:top, :lo].any() and not d.work_b[lo:top, :lo].any()
        vanishing = d.work_a if step.zeros else d.work_b
        assert not vanishing[lo:top, lo:top].any()
        top = lo
        if step.kind == "inf_block_1":
            assert step.rank == rp.r_a and step.evidence == rp.qr_a.truncation_log
        if step.kind == "inf_block_2":
            f = second_level(rp).qr_phi
            assert step.rank == f.rank and step.evidence == f.truncation_log
    assert top == d.size


def run_deflate(q):
    """Deflate as solve_pencil does. Returns ``(lin, rp, d)`` with the
    linearization and rank profile of q."""
    rp = analyze_ranks(q)
    return linearize(q), rp, deflate(rp)


class TestEquivalenceOracle:
    def test_recovers_a_random_unitary_p(self):
        rng = np.random.default_rng(80)
        aa, bb = rand_complex(rng, (8, 8)), rand_complex(rng, (8, 8))
        p, q = haar_unitary(rng, 8), haar_unitary(rng, 8)
        got = equivalence_left_factor(aa, bb, q, p @ aa @ q, p @ bb @ q)
        assert np.linalg.norm(got - p) <= 1e-13

    def test_perturbed_image_is_caught(self):
        # 8 equations per unknown row of P: a fit cannot absorb an error in wa
        rng = np.random.default_rng(81)
        aa, bb = rand_complex(rng, (8, 8)), rand_complex(rng, (8, 8))
        p, q = haar_unitary(rng, 8), haar_unitary(rng, 8)
        red = DeflationResult(p @ aa @ q, p @ bb @ q, q)
        assert_equivalent(aa, bb, red, 1e-13)
        red.work_a[3, 5] += 1e-8
        got = equivalence_left_factor(aa, bb, q, red.work_a, red.work_b)
        assert np.linalg.norm(got @ aa @ q - red.work_a) >= 1e-9
        with pytest.raises(AssertionError):
            assert_equivalent(aa, bb, red, 1e-13)


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
        # A is regular: no Phi is formed, and no Q_A for its rows
        assert sl.phi is None and sl.qr_phi is None and sl.r_phi is None
        assert rp.qr_a._q is None

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
        lin, rp, d = run_deflate(q)
        assert d.size == 4 * n
        assert d.zeros_deflated == 0 and d.infs_deflated == 0
        assert np.array_equal(d.pencil.aa, lin.aa) and np.array_equal(d.pencil.bb, lin.bb)
        # no transform is built, and lifting leaves the vectors as they are
        v = rand_complex(rng, (4 * n, 2))
        assert d.q is None and d.lift(v) is v
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
        lin, rp, d = run_deflate(q)
        assert d.zeros_deflated == 1 and d.infs_deflated == 0
        assert d.size == 3 * n + rp.r_e == 7
        lam_defl = sla.eig(d.pencil.aa, d.pencil.bb, right=False)
        counts, lam_full_finite = dense_counts(q)
        assert counts["zero"] == 1
        match_values(lam_defl, lam_full_finite, 1e-8)

    def test_mirror_nine_plus_nine(self):
        b = gen_mirror_like(seed=0)
        lin, rp, d = run_deflate(b.pencil)
        assert rp.r_a == 2 and rp.r_e == 2
        assert d.zeros_deflated == 9
        assert d.infs_deflated == 9
        assert d.size == 36 - 18
        assert d.a_regular and d.b_regular

    def test_transformation_consistency(self):
        for seed, (ke, ka) in ((6, (1, 0)), (7, (1, 1)), (8, (2, 2)), (9, (0, 0))):
            b = gen_planted(4, ke, ka, seed=seed)
            q = b.pencil
            lin, rp, d = run_deflate(q)
            assert_equivalent(lin.aa, lin.bb, d, 1e2 * 4 * q.n * EPS)
            # block upper triangular: vanished bottom-left in the work matrices
            m = d.size
            assert np.linalg.norm(d.work_a[m:, :m]) == 0.0
            assert np.linalg.norm(d.work_b[m:, :m]) == 0.0

    def test_case_both_full_transforms(self):
        # the row permutation of the infinite block is applied by index
        b = gen_planted(10, 3, 2, seed=60)
        lin, rp, d = run_deflate(b.pencil)
        assert [s.kind for s in d.steps] == ["zero_block_1", "inf_block_1"]
        assert_staircase(lin, rp, d)

    @pytest.mark.parametrize("case", ["mirror_like", *(f"jordan_{at}_{length}"
                                                       for at in ("zero", "infinity")
                                                       for length in (2, 3))])
    def test_chained_cases_take_the_structured_first_infinite_block(self, case):
        # A and E singular with Phi or Psi deficient: the first infinite
        # block is read off Q_A* as in the single-pass case, and is sized by A
        lin, rp, d = run_deflate(CONTRACT_CASES[case]())
        assert rp.r_a < rp.n and rp.r_e < rp.n
        assert [s.kind for s in d.steps].count("inf_block_1") == 1
        assert_staircase(lin, rp, d)

    def test_phi_deficient_psi_regular(self):
        # A's zero columns 0 and 1, the first shared by B, make Phi
        # deficient; E's zero column 2 is not shared by D, so Psi is regular
        rng = np.random.default_rng(90)
        a, b, c, dd, e = (rand_complex(rng, (5, 5)) for _ in range(5))
        a[:, [0, 1]] = 0.0
        b[:, 0] = 0.0
        e[:, 2] = 0.0
        q = QuarticPencil.from_matrices(a, b, c, dd, e)
        lin, rp, d = run_deflate(q)
        sl = second_level(rp)
        assert (rp.r_a, rp.r_e, sl.r_phi, sl.r_psi) == (3, 4, 4, 5)
        assert [s.kind for s in d.steps] == ["zero_block_1", "inf_block_1", "inf_block_2"]
        assert_staircase(lin, rp, d)
        counts, _ = dense_counts(q)
        assert counts == {"zero": 1, "finite": 16, "infinite": 3}
        assert (d.zeros_deflated, d.infs_deflated) == (1, 3)

    def test_second_infinite_block_precedes_the_zero_staircase(self):
        # lambda^3 and lambda on two coordinates, random scalar quartics on
        # four, rotated: zero and infinite chains of 3. Both second blocks
        # are cut before any staircase layer mixes the rows they are read from
        rng = np.random.default_rng(91)
        coeffs = np.zeros((5, 6), dtype=complex)
        coeffs[1, 0] = coeffs[3, 1] = 1.0
        coeffs[:, 2:] = rand_complex(rng, (5, 4))
        u, v = haar_unitary(rng, 6), haar_unitary(rng, 6)
        q = QuarticPencil.from_matrices(*(u @ np.diag(c) @ v for c in coeffs))
        lin, rp, d = run_deflate(q)
        assert [s.kind for s in d.steps] == ["zero_block_1", "zero_block_2", "inf_block_1",
                                             "inf_block_2", "staircase_zero", "staircase_inf"]
        assert (d.zeros_deflated, d.size, d.infs_deflated) == (4, 16, 4)
        assert_staircase(lin, rp, d)
        sol = solve_pencil(q, SolveConfig()).solution
        assert np.bincount(sol.cls, minlength=3).tolist() == [4, 16, 4]

    def test_second_infinite_block_factors_nothing_new(self, monkeypatch):
        # inf_block_2 is read off Q_A and Q_Phi: it takes no QR of the
        # active pencil
        made = []

        def recorded(*args, **kwargs):
            made.append(rrqr(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(quarteig.deflate, "rrqr", recorded)
        _, _, d = run_deflate(gen_mirror_like(seed=0).pencil)
        assert [s.kind for s in d.steps] == ["zero_block_1", "zero_block_2", "inf_block_1",
                                             "inf_block_2"]
        # A, E, Phi, Psi, one staircase probe per chain, a_regular, b_regular
        assert len(made) == 8

    def test_rank_only_factors_form_no_q(self, monkeypatch):
        # a regular problem reads only the ranks of A and E, and forms no
        # second level; the both-full case reads only the ranks of the Phi
        # and Psi that deflate forms itself
        made = []

        def recorded(rp):
            made.append(second_level(rp))
            return made[-1]

        monkeypatch.setattr(quarteig.deflate, "second_level", recorded)
        q = random_regular_quartic(np.random.default_rng(61), 5)
        _, rp, d = run_deflate(q)
        assert d.size == d.full_size and not made
        assert rp.qr_a._q is None and rp.qr_e._q is None
        _, rp, d = run_deflate(gen_planted(10, 3, 2, seed=60).pencil)
        assert [s.kind for s in d.steps] == ["zero_block_1", "inf_block_1"]
        assert len(made) == 1 and made[0].qr_phi._q is None and made[0].qr_psi._q is None

    def test_spectral_conservation_planted(self):
        for seed, n, ke, ka in ((10, 3, 1, 0), (11, 4, 2, 1), (12, 5, 1, 2), (13, 8, 3, 3)):
            b = gen_planted(n, ke, ka, seed=seed)
            lin, rp, d = run_deflate(b.pencil)
            counts, lam_full_finite = dense_counts(b.pencil)
            assert d.zeros_deflated == counts["zero"]
            assert d.infs_deflated == counts["infinite"]
            lam_defl = sla.eig(d.pencil.aa, d.pencil.bb, right=False)
            match_values(lam_defl, lam_full_finite, 1e-8)
            assert d.size + d.zeros_deflated + d.infs_deflated == 4 * n

    def test_planted_lower_bounds(self):
        for seed in range(5):
            b = gen_planted(6, 2, 1, seed=100 + seed)
            _, _, d = run_deflate(b.pencil)
            assert d.zeros_deflated >= 2
            assert d.infs_deflated >= 1

    def test_reversal_duality(self):
        for seed, (ke, ka) in ((20, (1, 0)), (21, (0, 2)), (22, (2, 1))):
            b = gen_planted(4, ke, ka, seed=seed)
            q = b.pencil
            _, _, d_fwd = run_deflate(q)
            _, _, d_rev = run_deflate(reverse(q))
            assert d_fwd.zeros_deflated == d_rev.infs_deflated
            assert d_fwd.infs_deflated == d_rev.zeros_deflated

    def test_jordan_chain_multi_step(self):
        b = gen_jordan_chain(3, 3, "zero", seed=5)
        _, _, d = run_deflate(b.pencil)
        assert d.zeros_deflated == 3
        assert d.infs_deflated == 1
        kinds = [s.kind for s in d.steps if s.deflated > 0]
        assert kinds[:2] == ["zero_block_1", "zero_block_2"]
        assert "staircase_zero" in kinds

    def test_only_a_singular_deflates_infinite_blocks(self):
        # E regular: no zero step, and A's chain of length L is deflated
        # directly as infinite blocks, the first two structured
        kinds = ["inf_block_1", "inf_block_2", "staircase_inf", "staircase_inf"]
        cases = [(gen_planted(6, 0, 2, seed=21).pencil, 2, kinds[:1])]
        cases += [(gen_jordan_chain(5, length, "infinity", seed=30 + length,
                                    complement=False).pencil, length, kinds[:length])
                  for length in range(1, 5)]
        for q, infs, want in cases:
            lin, rp, d = run_deflate(q)
            assert rp.r_a < q.n and rp.r_e == q.n
            assert [s.kind for s in d.steps] == want
            assert (d.zeros_deflated, d.infs_deflated) == (0, infs)
            assert_staircase(lin, rp, d)
            # the dense oracle splits a chain of length L into L eigenvalues
            # of modulus about eps^(-1/L), or finds it infinite
            counts, lam = dense_counts(q)
            assert counts["zero"] == 0
            small = lam[np.abs(lam) < 1e3]
            assert len(small) == 4 * q.n - infs
            match_values(sla.eigvals(d.pencil.aa, d.pencil.bb), small, 1e-8)


def staircase_layer(p, red=None):
    """One generic staircase layer for the zero eigenvalue of pencil p (or
    of the active pencil of ``red``); returns (red, deflated)."""
    if red is None:
        red = DeflationResult(p.aa.astype(complex), p.bb.astype(complex),
                              np.eye(p.size, dtype=np.complex128))
    return red, _generic_layer(red, "zero")


class TestStaircaseStep:
    def test_nonsingular_constant_term(self):
        rng = np.random.default_rng(24)
        p = LinearPencil(aa=haar_unitary(rng, 4), bb=rand_complex(rng, (4, 4)))
        red, k = staircase_layer(p)
        assert k == 0
        assert red.size == 4 and not red.steps
        assert np.array_equal(red.work_a, p.aa) and np.array_equal(red.work_b, p.bb)

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
        assert red.size == 0
        lam = sla.eig(aa, np.eye(2), right=False)
        assert np.allclose(lam, 0.0)

    def test_reversed_known_block(self):
        rng = np.random.default_rng(25)
        k, r = 3, 4
        bb = sla.block_diag(np.zeros((k, k)), haar_unitary(rng, r)).astype(complex)
        aa = haar_unitary(rng, k + r)
        # infinities of aa - lambda*bb are zeros of the reversed pencil
        reversed_pencil = LinearPencil(aa=bb, bb=aa)
        # the layer sizes the block by its own QR of the constant term
        red, deflated = staircase_layer(reversed_pencil)
        assert deflated == k
        assert red.size == r
        step = red.steps[0]
        assert step.rank == r and step.evidence == rrqr(bb).truncation_log

    def test_transform_shapes(self):
        rng = np.random.default_rng(26)
        aa = np.diag([1.0, 0.0]).astype(complex)
        p = LinearPencil(aa=aa, bb=haar_unitary(rng, 2))
        red, k = staircase_layer(p)
        assert k == 1
        assert red.q.shape == (2, 2)
        assert assert_equivalent(p.aa, p.bb, red, 50 * EPS).shape == (2, 2)


class TestBudgetAndChains:
    def test_infinity_chain_steps(self):
        b = gen_jordan_chain(3, 3, "infinity", seed=8)
        lin, rp, d = run_deflate(b.pencil)
        assert_staircase(lin, rp, d)
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
        lin, _, d = run_deflate(q)
        m = d.size
        assert np.array_equal(d.pencil.aa, d.work_a[:m, :m])
        assert np.array_equal(d.pencil.bb, d.work_b[:m, :m])
        zeros = sum(s.zeros for s in d.steps)
        infs = sum(s.infs for s in d.steps)
        assert (d.zeros_deflated, d.infs_deflated) == (zeros, infs)
        assert m + zeros + infs == d.full_size == 4 * q.n
        assert_equivalent(lin.aa, lin.bb, d, 100 * 4 * q.n * EPS)
        # lifting applies the active columns of Q, which only deflation builds
        v = rand_complex(np.random.default_rng(82), (m, 3))
        if case == "regular":
            assert d.q is None and d.lift(v) is v
        else:
            assert m < d.full_size and np.array_equal(d.lift(v), d.q[:, :m] @ v)
