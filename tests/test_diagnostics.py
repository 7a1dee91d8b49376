import numpy as np
import pytest

from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.diagnostics import (
    CoefficientNorms,
    diagnostics_many,
    summarize,
)
from quarteig.numkit import EPS
from quarteig.pencil import EIG_INFINITE
from oracles import backward_errors, quartic_with_eigenpair, rand_complex, random_regular_quartic
from support import from_lambda, solution, unit

INF = from_lambda(np.inf)
ZERO = from_lambda(0.0)


def scalar_quartic(a, b, c, d, e):
    return QuarticPencil.from_matrices([[a]], [[b]], [[c]], [[d]], [[e]])


def one_pair(eig, x, q, left=False):
    """diagnostics_many on a one-pair batch (x on the requested side), as
    a dict of the four errors of that pair."""
    errs = diagnostics_many(solution(eig, [None if left else x], [x if left else None]), q)
    return {name: err[0] for name, err in errs.items()}


def eta(eig, x, q):
    return one_pair(eig, x, q)["eta_right"]


def omega(eig, x, q):
    return one_pair(eig, x, q)["omega_right"]


def omega_left(eig, y, q):
    return one_pair(eig, y, q, left=True)["omega_left"]


class TestEta:
    def test_exact_infinite_pair(self):
        rng = np.random.default_rng(0)
        n = 4
        a = rand_complex(rng, (n, n))
        a[:, 1] = 0.0
        q = QuarticPencil.from_matrices(a, *(rand_complex(rng, (n, n)) for _ in range(4)))
        x = np.zeros(n, dtype=complex)
        x[1] = 1.0
        assert eta(INF, x, q) == 0.0

    def test_scalar_unit_root(self):
        q = scalar_quartic(1.0, 0.0, 0.0, 0.0, -1.0)
        val = eta(from_lambda(1.0), np.array([1.0]), q)
        assert val <= 10 * EPS

    def test_pipeline_pairs_recompute(self):
        rng = np.random.default_rng(1)
        q = random_regular_quartic(rng, 5)
        res = solve_pencil(q, SolveConfig())
        norms = np.array([np.linalg.norm(m, 2) for m in q.coeffs])
        sol = res.solution
        for lam, x, eta_right in zip(sol.lam, sol.x.T, sol.eta_right):
            num = np.linalg.norm(
                (lam**4 * q.a + lam**3 * q.b + lam**2 * q.c + lam * q.d + q.e) @ x
            )
            w = np.array([abs(lam) ** k for k in (4, 3, 2, 1, 0)])
            indep = num / (float(w @ norms) * np.linalg.norm(x))
            assert eta_right <= 1e-12
            assert indep <= 2 * max(eta_right, EPS)

    def test_invariant_under_vector_scaling(self):
        rng = np.random.default_rng(2)
        q = random_regular_quartic(rng, 4)
        x = unit(rand_complex(rng, (4,)))
        e = from_lambda(0.3 + 2.0j, 4)
        v1 = eta(e, x, q)
        v2 = eta(e, (3.0 - 4.0j) * x, q)
        assert abs(v1 - v2) <= 1e-13 * max(v1, 1e-300)
        assert v1 == pytest.approx(backward_errors(q, e.lam[0], x)[0], rel=1e-6)

    def test_invariant_under_common_coefficient_scale(self):
        rng = np.random.default_rng(3)
        q = random_regular_quartic(rng, 3)
        q2 = QuarticPencil.from_matrices(*(7.5 * m for m in q.coeffs))
        x = unit(rand_complex(rng, (3,)))
        e = from_lambda(1.7, 3)
        assert abs(eta(e, x, q) - eta(e, x, q2)) <= 1e-13 * eta(e, x, q)

    def test_huge_modulus_no_overflow(self):
        rng = np.random.default_rng(4)
        q = random_regular_quartic(rng, 3)
        x = unit(rand_complex(rng, (3,)))
        e = from_lambda(1e150, 3)
        val = eta(e, x, q)
        assert np.isfinite(val)
        e2 = from_lambda(1e-150, 3)
        assert np.isfinite(eta(e2, x, q))

    def test_zero_vector_rejected(self):
        # a zero vector must never read as a perfect pair
        q = scalar_quartic(1, 0, 0, 0, 1)
        for left in (False, True):
            dg = one_pair(from_lambda(1.0), np.zeros(1), q, left=left)
            side = "left" if left else "right"
            assert (dg[f"eta_{side}"], dg[f"omega_{side}"]) == (np.inf, np.inf)
        dg = one_pair(INF, np.zeros(1), q)
        assert dg["eta_right"] == np.inf and np.isnan(dg["omega_right"])


class TestOmega:
    def test_exact_pair_roundoff(self):
        rng = np.random.default_rng(5)
        n = 4
        lam = 0.8 - 0.5j
        q, x = quartic_with_eigenpair(rng, n, lam)
        assert omega(from_lambda(lam, n), x, q) <= 1e2 * n * EPS

    def test_diagonal_reduces_to_scalar_rows(self):
        rng = np.random.default_rng(6)
        n = 4
        diags = rand_complex(rng, (5, n))
        q = QuarticPencil.from_matrices(*(np.diag(diags[k]) for k in range(5)))
        lam = 0.9 + 0.4j
        j = 2
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
        val = omega(from_lambda(lam, n), x, q)
        p = sum(lam ** (4 - k) * diags[k, j] for k in range(5))
        s = sum(abs(lam) ** (4 - k) * abs(diags[k, j]) for k in range(5))
        assert val == pytest.approx(abs(p) / s, rel=1e-12)

    def test_infinite_rejected(self):
        # omega is defined for finite eigenvalues only
        q = scalar_quartic(1, 0, 0, 0, 1)
        dg = one_pair(INF, np.ones(1), q)
        assert np.isnan(dg["omega_right"]) and np.isfinite(dg["eta_right"])

    def test_zero_weight_rows(self):
        # row with all-zero coefficients and zero residual contributes 0
        z = np.zeros((2, 2), dtype=complex)
        a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        q = QuarticPencil.from_matrices(a, z, z, z, a)
        x = np.array([1.0, 0.0], dtype=complex)
        val = omega(from_lambda(1.0j, 2), x, q)
        assert np.isfinite(val)
        assert val == pytest.approx(backward_errors(q, 1.0j, x)[1], abs=1e-15)


class TestOmegaLeft:
    def test_exact_left_pair(self):
        rng = np.random.default_rng(7)
        n = 4
        lam = 1.4
        q, x = quartic_with_eigenpair(rng, n, lam)
        # left pair of the conjugate-transposed problem
        qt = QuarticPencil.from_matrices(*(m.conj().T for m in q.coeffs))
        val = omega_left(from_lambda(np.conj(lam), n), x, qt)
        assert val <= 1e2 * n * EPS

    def test_hermitian_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        n = 3
        mats = []
        for _ in range(5):
            g = rand_complex(rng, (n, n))
            mats.append(g + g.conj().T)
        q = QuarticPencil.from_matrices(*mats)
        lam = 0.7 + 0.9j
        x = unit(rand_complex(rng, (n,)))
        v1 = omega(from_lambda(lam, n), x, q)
        v2 = omega_left(from_lambda(np.conj(lam), n), x, q)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert v1 == pytest.approx(backward_errors(q, lam, x)[1], rel=1e-6)


def summary_of(spec, **errors):
    """summarize over the pairs of ``spec`` with the given error arrays
    (None entries become NaN, and a missing array is all NaN)."""
    errors = {name: np.array(errors.get(name, [None] * len(spec)), dtype=float)
              for name in ("eta_right", "eta_left", "omega_right", "omega_left")}
    return summarize(solution(spec, [None] * len(spec), [None] * len(spec), **errors))


class TestSummarize:
    def test_single_pair(self):
        rep = summary_of(from_lambda(2.0), eta_right=[1e-15], eta_left=[2e-15],
                         omega_right=[1e-14])
        assert rep.stats["eta_right"]["min"] == rep.stats["eta_right"]["max"] == 1e-15
        assert rep.stats["omega_left"] == {"min": None, "max": None, "median": None}
        assert rep.counts["finite"] == 1

    def test_two_pairs_min_max(self):
        rep = summary_of(from_lambda([1.0, 2.0]), eta_right=[0.0, 1.0])
        assert rep.stats["eta_right"]["min"] == 0.0
        assert rep.stats["eta_right"]["max"] == 1.0

    def test_modulus_sort_order(self):
        rep = summary_of(from_lambda([np.inf, 5.0, 0.0, 1.0]), eta_right=[0.0] * 4)
        assert rep.order == [2, 3, 1, 0]

    def test_matches_loop_reference(self):
        # ties in modulus (several infinities, repeated eigenvalues) keep
        # index order; NaN (not computed) and inf errors drop out of the
        # statistics
        rng = np.random.default_rng(10)
        spec = from_lambda([np.inf, 2.0, 0.0, np.inf, -2.0, np.inf, 0.5j, 0.0, np.inf, 2.0])
        pool = [None, np.inf, np.nan, 0.0, 1e-16, 3e-15, 2e-14]
        names = ("eta_right", "eta_left", "omega_right", "omega_left")
        errors = {name: [pool[k] for k in rng.integers(0, len(pool), len(spec))]
                  for name in names}
        rep = summary_of(spec, **errors)

        def key(i):
            return (np.inf if spec.cls[i] == EIG_INFINITE else abs(spec.lam[i]), i)

        assert rep.order == sorted(range(len(spec)), key=key)
        assert rep.order[-4:] == [0, 3, 5, 8]
        for name in names:
            vals = [v for v in errors[name] if v is not None and np.isfinite(v)]
            want = {"min": None, "max": None, "median": None}
            if vals:
                want = {"min": min(vals), "max": max(vals), "median": float(np.median(vals))}
            assert rep.stats[name] == want
        assert rep.counts == {"zero": 2, "finite": 4, "infinite": 4}

    def test_mirror_counts(self):
        from quarteig import solve_bundle
        from problems import gen_mirror_like

        res = solve_bundle(gen_mirror_like(0))
        assert res.summary.counts == {"zero": 9, "finite": 18, "infinite": 9}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_of(from_lambda([]))


class TestSpectralNorm:
    def test_matches_dense(self):
        rng = np.random.default_rng(9)
        q = QuarticPencil.from_matrices(*(rand_complex(rng, (30, 30)) for _ in range(5)))
        two = CoefficientNorms(q).two
        for val, m in zip(two, q.coeffs):
            # largest singular value from the eigenvalues of m* m
            assert val == pytest.approx(np.sqrt(np.linalg.eigvalsh(m.conj().T @ m).max()))


class TestBatchDiagnostics:
    def test_matches_scalar_definitions(self):
        rng = np.random.default_rng(11)
        q = random_regular_quartic(rng, 4)
        norms = CoefficientNorms(q)
        lams = [rand_complex(rng, ()).item() for _ in range(6)] + [np.inf]
        rights = [unit(rand_complex(rng, (4,))) for _ in lams]
        lefts = [unit(rand_complex(rng, (4,))) if k % 2 == 0 else None for k in range(6)] + [None]
        spec = from_lambda(lams, 4)
        errs = diagnostics_many(solution(spec, rights, lefts), q, norms)
        for j, (lam, x, y) in enumerate(zip(spec.lam, rights, lefts)):
            ref, ref_o = backward_errors(q, lam, x)
            assert abs(errs["eta_right"][j] - ref) <= 1e-13 + 1e-6 * ref
            if y is not None:
                ref_l, ref_ol = backward_errors(q, lam, y, left=True)
                assert abs(errs["eta_left"][j] - ref_l) <= 1e-13 + 1e-6 * ref_l
                assert abs(errs["omega_left"][j] - ref_ol) <= 1e-13 + 1e-6 * ref_ol
            else:
                assert np.isnan(errs["eta_left"][j]) and np.isnan(errs["omega_left"][j])
            if spec.cls[j] != EIG_INFINITE:
                assert abs(errs["omega_right"][j] - ref_o) <= 1e-13 + 1e-6 * ref_o
            else:
                assert np.isnan(errs["omega_right"][j])

    def test_eta_at_extreme_coefficient_scales(self):
        # the residual norm neither underflows (eta = 0) nor overflows (inf)
        rng = np.random.default_rng(13)
        q = random_regular_quartic(rng, 4)
        x = unit(rand_complex(rng, (4,)))
        e = from_lambda(0.3 + 0.2j, 4)
        base = eta(e, x, q)
        for s in (1e-200, 1e-150, 1e150, 1e250):
            scaled = QuarticPencil.from_matrices(*(s * m for m in q.coeffs))
            assert eta(e, x, scaled) == pytest.approx(base, rel=1e-12)
