import numpy as np
import pytest
import scipy.linalg as sla

from quarteig import QuarticPencil, linearize
from quarteig.pencil import EigenSolution, eig_infinite, from_lambda
from quarteig.scaling import ScalingRecord, balance, descale, param_scale
from oracles import match_values, rand_complex, random_regular_quartic


def scalar_quartic(a, b, c, d, e):
    return QuarticPencil.from_matrices([[a]], [[b]], [[c]], [[d]], [[e]])


class TestParamScale:
    def test_gamma_theta_formula(self):
        q = scalar_quartic(16.0, 0.0, 0.0, 0.0, 1.0)
        scaled, rec = param_scale(q)
        assert rec.gamma == pytest.approx(0.5)
        assert rec.theta == pytest.approx(4.0)
        # coefficients become (gamma^4 theta A, ..., theta E)
        assert scaled.a[0, 0] == pytest.approx(0.5**4 * 4.0 * 16.0)
        assert scaled.e[0, 0] == pytest.approx(4.0)

    def test_identity_coefficients(self):
        q = scalar_quartic(1.0, 0.0, 0.0, 0.0, 1.0)
        _, rec = param_scale(q)
        assert rec.gamma == pytest.approx(1.0)
        assert rec.theta == pytest.approx(4.0)

    def test_zero_extreme_skips_with_flag(self):
        q = scalar_quartic(0.0, 1.0, 1.0, 1.0, 1.0)
        scaled, rec = param_scale(q)
        assert rec.gamma == 1.0 and rec.theta == 1.0
        assert any("skip" in f for f in rec.flags)
        assert np.array_equal(scaled.a, q.a)

    def test_scaled_norms_equilibrated(self):
        rng = np.random.default_rng(0)
        mats = [rand_complex(rng, (4, 4), s) for s in (1e6, 1e3, 1.0, 1e-2, 1e-4)]
        q = QuarticPencil.from_matrices(*mats)
        scaled, rec = param_scale(q)
        na = np.linalg.norm(scaled.a)
        ne = np.linalg.norm(scaled.e)
        assert abs(na - ne) <= 1e-10 * max(na, ne)  # gamma equalizes extremes


class TestBalance:
    def test_equilibrated_fixed_point(self):
        n = 4
        ones = np.ones((n, n))
        q = QuarticPencil.from_matrices(ones, ones, ones, ones, ones)
        balanced, rec = balance(q)
        assert rec.dl is None and rec.dr is None
        assert np.array_equal(balanced.a, q.a)

    def test_graded_rows_spread_reduction(self):
        rng = np.random.default_rng(1)
        n = 16
        base = [rand_complex(rng, (n, n)) for _ in range(5)]
        d = 2.0 ** np.arange(1, n + 1)
        q = QuarticPencil.from_matrices(*(d[:, None] * m for m in base))

        def spread(p):
            s = sum(np.abs(m) for m in p.coeffs)
            agg = np.concatenate([s.sum(axis=1), s.sum(axis=0)])
            agg = agg[agg > 0]
            return agg.max() / agg.min()

        before = spread(q)
        balanced, rec = balance(q)
        after = spread(balanced)
        assert before / after >= 2.0 ** (n / 2)

    def test_spread_never_increases(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            q = QuarticPencil.from_matrices(
                *[rand_complex(r2, (5, 5), 10.0 ** r2.integers(-6, 6)) for _ in range(5)]
            )

            def spread(p):
                s = sum(np.abs(m) for m in p.coeffs)
                agg = np.concatenate([s.sum(axis=1), s.sum(axis=0)])
                agg = agg[agg > 0]
                return agg.max() / agg.min()

            balanced, _ = balance(q)
            assert spread(balanced) <= spread(q) * (1 + 1e-12)

    def test_powers_of_two_and_exact_inverse(self):
        rng = np.random.default_rng(3)
        n = 6
        d = 2.0 ** rng.permutation(np.arange(1, n + 1)).astype(float)
        q = QuarticPencil.from_matrices(
            *(d[:, None] * rand_complex(rng, (n, n)) for _ in range(5))
        )
        balanced, rec = balance(q)
        assert rec.dl is not None
        for v in (rec.dl, rec.dr if rec.dr is not None else np.ones(n)):
            assert np.array_equal(np.log2(np.abs(v)), np.round(np.log2(np.abs(v))))
        dr = rec.dr if rec.dr is not None else np.ones(n)
        for m1, m2 in zip(balanced.coeffs, q.coeffs):
            restored = (1.0 / rec.dl)[:, None] * m1 * (1.0 / dr)[None, :]
            assert np.array_equal(restored, m2)  # bit-exact

    def test_eigenvalue_invariance(self):
        rng = np.random.default_rng(4)
        n = 4
        d = 2.0 ** rng.permutation(np.arange(1, n + 1)).astype(float)
        q = random_regular_quartic(rng, n)
        q = QuarticPencil.from_matrices(*(d[:, None] * m for m in q.coeffs))
        balanced, _ = balance(q)
        l1 = linearize(q)
        l2 = linearize(balanced)
        e1 = sla.eig(l1.aa, l1.bb, right=False)
        e2 = sla.eig(l2.aa, l2.bb, right=False)
        match_values(e2, e1, 1e-8)


class TestDescale:
    def test_identity_record_untouched(self):
        sol = EigenSolution(
            eigs=[from_lambda(2.0)],
            right=[np.array([1.0 + 0j])],
            left=[None],
            methods=["m"],
        )
        out = descale(sol, ScalingRecord())
        assert out is sol

    def test_gamma_applied(self):
        sol = EigenSolution(
            eigs=[from_lambda(2.0)], right=[None], left=[None], methods=["m"]
        )
        out = descale(sol, ScalingRecord(gamma=0.5, theta=3.0))
        assert abs(out.eigs[0].lam - 1.0) < 1e-15

    def test_infinite_class_fixed(self):
        sol = EigenSolution(
            eigs=[eig_infinite()], right=[None], left=[None], methods=["m"]
        )
        out = descale(sol, ScalingRecord(gamma=123.0, theta=1.0))
        assert out.eigs[0].cls == "infinite"
        assert out.eigs[0].beta == 0.0

    def test_vectors_rescaled_unit(self):
        dl = np.array([2.0, 4.0])
        dr = np.array([1.0, 8.0])
        x = np.array([1.0, 1.0 + 0j]) / np.sqrt(2)
        sol = EigenSolution(
            eigs=[from_lambda(1.0)], right=[x], left=[x], methods=["m"]
        )
        out = descale(sol, ScalingRecord(dl=dl, dr=dr))
        assert np.linalg.norm(out.right[0]) == pytest.approx(1.0)
        # direction is Dr x renormalized
        want = dr * x
        want /= np.linalg.norm(want)
        assert np.allclose(out.right[0], want)
        want_l = dl * x
        want_l /= np.linalg.norm(want_l)
        assert np.allclose(out.left[0], want_l)


class TestPipelineInvariance:
    def test_classification_invariant_under_scaling(self):
        from quarteig import SolveConfig, solve_pencil

        rng = np.random.default_rng(5)
        mats = [rand_complex(rng, (3, 3), s) for s in (1e5, 1.0, 1e-3, 1.0, 1e4)]
        q = QuarticPencil.from_matrices(*mats)
        counts = []
        for scale in (True, False):
            res = solve_pencil(q, SolveConfig(scale=scale, balance=False))
            counts.append(res.summary.counts)
        assert counts[0] == counts[1]

    def test_descaled_solve_matches_direct(self):
        from quarteig import SolveConfig, solve_pencil

        rng = np.random.default_rng(6)
        q = random_regular_quartic(rng, 3)
        res_scaled = solve_pencil(q, SolveConfig(scale=True, balance=True))
        res_plain = solve_pencil(q, SolveConfig(scale=False, balance=False))
        lam_s = [e.lam for e in res_scaled.solution.eigs]
        lam_p = [e.lam for e in res_plain.solution.eigs]
        match_values(lam_s, lam_p, 1e-8)

    def test_scalar_unit_roots_through_pipeline(self):
        from quarteig import SolveConfig, solve_pencil

        q = scalar_quartic(1.0, 0.0, 0.0, 0.0, -1.0)
        res = solve_pencil(q, SolveConfig())
        lam = [e.lam for e in res.solution.eigs]
        match_values(lam, [1.0, -1.0, 1.0j, -1.0j], 1e-14)


class TestAggregateKnob:
    def test_max_aggregate_supported(self):
        rng = np.random.default_rng(7)
        n = 6
        d = 2.0 ** rng.permutation(np.arange(1, n + 1)).astype(float)
        q = QuarticPencil.from_matrices(
            *(d[:, None] * rand_complex(rng, (n, n)) for _ in range(5))
        )
        balanced, rec = balance(q, aggregate="max")
        s_before = sum(np.abs(m) for m in q.coeffs)
        s_after = sum(np.abs(m) for m in balanced.coeffs)

        def spread(s):
            agg = np.concatenate([s.max(axis=1), s.max(axis=0)])
            agg = agg[agg > 0]
            return agg.max() / agg.min()

        assert spread(s_after) <= spread(s_before)
        with pytest.raises(ValueError):
            balance(q, aggregate="median")
