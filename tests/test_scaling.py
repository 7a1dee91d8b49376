import json

import numpy as np
import pytest
import scipy.linalg as sla

from quarteig import QuarticPencil
from quarteig.errors import ScalingError
from quarteig.pencil import EIG_INFINITE, linearize
from quarteig.scaling import ScalingRecord, balance, descale, param_scale
from oracles import match_values, rand_complex, random_regular_quartic
from support import far_apart_norms, from_lambda, solution


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

    def test_zero_extremes_scale_between_nonzero_ones(self):
        # A = 0: gamma is taken of E and B, the highest nonzero degree, 3
        q = scalar_quartic(0.0, 8.0, 0.0, 0.0, 1.0)
        scaled, rec = param_scale(q)
        assert rec.gamma == pytest.approx(0.5, rel=1e-15)
        assert rec.theta == pytest.approx(3.0, rel=1e-15)
        assert scaled.b[0, 0] == pytest.approx(scaled.e[0, 0], rel=1e-15)
        assert scaled.a[0, 0] == 0.0

    @pytest.mark.parametrize("s", [1e-300, 2.0**-40, 1.0, 1e16, 1e300])
    def test_scale_off_is_a_power_of_two(self, s):
        rng = np.random.default_rng(7)
        mats = [s * rand_complex(rng, (3, 3), f) for f in (1e3, 1.0, 1e-2, 1.0, 1e-5)]
        q = QuarticPencil.from_matrices(*mats)
        scaled, rec = param_scale(q, equilibrate=False)
        assert rec.gamma == 1.0
        mant, _ = np.frexp(rec.theta)
        assert mant == 0.5
        for m0, m in zip(q.coeffs, scaled.coeffs):
            assert np.array_equal(m, rec.theta * m0)  # exact: a power of two
        assert 0.5 <= max(np.linalg.norm(m) for m in scaled.coeffs) < 1.0

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
        sol = solution(from_lambda(2.0), [np.array([1.0 + 0j])], [None])
        out = descale(sol, ScalingRecord())
        assert out is sol

    def test_gamma_applied(self):
        sol = solution(from_lambda(2.0), [None], [None])
        out = descale(sol, ScalingRecord(gamma=0.5, theta=3.0))
        assert abs(out.lam[0] - 1.0) < 1e-15

    def test_infinite_class_fixed(self):
        sol = solution(from_lambda([np.inf, 0.0]), [None] * 2, [None] * 2)
        out = descale(sol, ScalingRecord(gamma=123.0, theta=1.0))
        assert out.cls[0] == EIG_INFINITE and out.beta[0] == 0.0
        assert out.alpha[1] == 0.0 and out.beta[1] == 1.0

    def test_vectors_rescaled_unit(self):
        dl = np.array([2.0, 4.0])
        dr = np.array([1.0, 8.0])
        x = np.array([1.0, 1.0 + 0j]) / np.sqrt(2)
        sol = solution(from_lambda([1.0, 2.0]), [x, None], [x, x])
        out = descale(sol, ScalingRecord(dl=dl, dr=dr))
        assert np.linalg.norm(out.x[:, 0]) == pytest.approx(1.0)
        # direction is Dr x renormalized; a missing vector stays missing
        want = dr * x
        want /= np.linalg.norm(want)
        assert np.allclose(out.x[:, 0], want)
        assert out.has_right.tolist() == [True, False] and not out.x[:, 1].any()
        want_l = dl * x
        want_l /= np.linalg.norm(want_l)
        assert np.allclose(out.y, want_l[:, None])
        assert np.allclose(sol.x[:, 0], x)  # the input is not modified


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
        match_values(res_scaled.solution.lam, res_plain.solution.lam, 1e-8)

    def test_scalar_unit_roots_through_pipeline(self):
        from quarteig import SolveConfig, solve_pencil

        q = scalar_quartic(1.0, 0.0, 0.0, 0.0, -1.0)
        res = solve_pencil(q, SolveConfig())
        match_values(res.solution.lam, [1.0, -1.0, 1.0j, -1.0j], 1e-14)


class TestExtremeCoefficientScales:
    """A quartic and its multiple s*P(lambda) have the same eigenpairs; the
    norms behind scaling and backward errors must neither overflow nor
    underflow on the way."""

    @pytest.mark.parametrize("config", [{}, {"deflate": False}, {"scale": False}],
                             ids=["default", "deflate_off", "scale_off"])
    @pytest.mark.parametrize("s", [1e-250, 1e-200, 1e-160, 1e160, 1e200, 1e250])
    def test_all_pairs_finite_with_small_eta(self, s, config):
        from quarteig import SolveConfig, solve_pencil

        rng = np.random.default_rng(3)
        mats = [rand_complex(rng, (4, 4)) for _ in range(5)]
        ref = solve_pencil(QuarticPencil.from_matrices(*mats)).solution
        res = solve_pencil(QuarticPencil.from_matrices(*(s * m for m in mats)),
                           SolveConfig(**config))
        sol = res.solution
        assert res.summary.counts == {"zero": 0, "finite": 16, "infinite": 0}
        assert not res.flags
        for eta in (sol.eta_right, sol.eta_left):
            assert np.all((eta > 0.0) & (eta <= 1e-14))
        match_values(sol.lam, ref.lam, 1e-12)

    @pytest.mark.parametrize("s", [1e200, 1e250])
    def test_unscaled_deflation_report_is_strict_json(self, s):
        # the norm of the truncated blocks (a step's ``dropped``) must not
        # overflow to Infinity, a token that RFC 8259 JSON does not have
        from quarteig import SolveConfig, build_report, solve_pencil
        from problems import gen_planted
        from quarteig.probio import report_json

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        q = gen_planted(6, 1, 1, seed=7).pencil
        res = solve_pencil(QuarticPencil.from_matrices(*(s * m for m in q.coeffs)),
                           SolveConfig(scale=False))
        report = json.loads(report_json(build_report(res)), parse_constant=reject)
        assert report["deflation"]["zeros"] > 0

    # theta overflows when all five norms are tiny, not far apart
    @pytest.mark.parametrize("case, cause", [(0, "too far apart"), (1, "too far apart"),
                                             (2, "too far apart"), (3, "too small")],
                             ids=["ratio_overflows", "theta_underflows", "ratio_underflows",
                                  "theta_overflows"])
    def test_norms_too_far_apart_raise(self, case, cause):
        from quarteig import solve_pencil

        q = far_apart_norms(case)
        with pytest.raises(ScalingError, match=f"norms {cause} for parameter scaling"):
            param_scale(q)
        with pytest.raises(ScalingError):
            solve_pencil(q)

    def test_param_scale_norms(self):
        rng = np.random.default_rng(4)
        mats = [rand_complex(rng, (4, 4)) for _ in range(5)]
        _, rec = param_scale(QuarticPencil.from_matrices(*mats))
        for s in (1e-200, 1e160):
            _, rec_s = param_scale(QuarticPencil.from_matrices(*(s * m for m in mats)))
            assert rec_s.gamma == pytest.approx(rec.gamma, rel=1e-14)
            assert rec_s.theta * s == pytest.approx(rec.theta, rel=1e-14)

