import numpy as np
import pytest

from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.diagnostics import (
    CoefficientNorms,
    PairDiagnostics,
    diagnostics_many,
    summarize,
)
from quarteig.numkit import EPS, unit
from quarteig.pencil import classify_pair, eig_infinite, eig_zero, from_lambda
from oracles import backward_errors, quartic_with_eigenpair, rand_complex, random_regular_quartic


def scalar_quartic(a, b, c, d, e):
    return QuarticPencil.from_matrices([[a]], [[b]], [[c]], [[d]], [[e]])


def one_pair(eig, x, q, left=False):
    """diagnostics_many on a one-pair batch (x on the requested side)."""
    return diagnostics_many([eig], [None if left else x], [x if left else None], q)[0]


def eta(eig, x, q):
    return one_pair(eig, x, q).eta_right


def omega(eig, x, q):
    return one_pair(eig, x, q).omega_right


def omega_left(eig, y, q):
    return one_pair(eig, y, q, left=True).omega_left


class TestEta:
    def test_exact_infinite_pair(self):
        rng = np.random.default_rng(0)
        n = 4
        a = rand_complex(rng, (n, n))
        a[:, 1] = 0.0
        q = QuarticPencil.from_matrices(a, *(rand_complex(rng, (n, n)) for _ in range(4)))
        x = np.zeros(n, dtype=complex)
        x[1] = 1.0
        assert eta(eig_infinite(), x, q) == 0.0

    def test_scalar_unit_root(self):
        q = scalar_quartic(1.0, 0.0, 0.0, 0.0, -1.0)
        val = eta(from_lambda(1.0), np.array([1.0]), q)
        assert val <= 10 * EPS

    def test_pipeline_pairs_recompute(self):
        rng = np.random.default_rng(1)
        q = random_regular_quartic(rng, 5)
        res = solve_pencil(q, SolveConfig())
        norms = np.array([np.linalg.norm(m, 2) for m in q.coeffs])
        for eig_, x, dg in zip(res.solution.eigs, res.solution.right, res.solution.diags):
            lam = eig_.lam
            num = np.linalg.norm(
                (lam**4 * q.a + lam**3 * q.b + lam**2 * q.c + lam * q.d + q.e) @ x
            )
            w = np.array([abs(lam) ** k for k in (4, 3, 2, 1, 0)])
            indep = num / (float(w @ norms) * np.linalg.norm(x))
            assert dg.eta_right <= 1e-12
            assert indep <= 2 * max(dg.eta_right, EPS)

    def test_invariant_under_vector_scaling(self):
        rng = np.random.default_rng(2)
        q = random_regular_quartic(rng, 4)
        x = unit(rand_complex(rng, (4,)))
        e = from_lambda(0.3 + 2.0j, 4)
        v1 = eta(e, x, q)
        v2 = eta(e, (3.0 - 4.0j) * x, q)
        assert abs(v1 - v2) <= 1e-13 * max(v1, 1e-300)
        assert v1 == pytest.approx(backward_errors(q, e.lam, x)[0], rel=1e-6)

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
        e = classify_pair(1e150, 1.0, 3)
        val = eta(e, x, q)
        assert np.isfinite(val)
        e2 = classify_pair(1e-150, 1.0, 3)
        assert np.isfinite(eta(e2, x, q))

    def test_zero_vector_rejected(self):
        # a zero vector must never read as a perfect pair
        q = scalar_quartic(1, 0, 0, 0, 1)
        for left in (False, True):
            dg = one_pair(from_lambda(1.0), np.zeros(1), q, left=left)
            errs = (dg.eta_left, dg.omega_left) if left else (dg.eta_right, dg.omega_right)
            assert errs == (np.inf, np.inf)
        dg = one_pair(eig_infinite(), np.zeros(1), q)
        assert dg.eta_right == np.inf and dg.omega_right is None


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
        dg = one_pair(eig_infinite(), np.ones(1), q)
        assert dg.omega_right is None and dg.eta_right is not None

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


class TestSummarize:
    def test_single_pair(self):
        d = PairDiagnostics(1e-15, 2e-15, 1e-14, None, "finite", from_lambda(2.0))
        rep = summarize([d])
        assert rep.stats["eta_right"]["min"] == rep.stats["eta_right"]["max"] == 1e-15
        assert rep.counts["finite"] == 1

    def test_two_pairs_min_max(self):
        ds = [
            PairDiagnostics(0.0, None, None, None, "finite", from_lambda(1.0)),
            PairDiagnostics(1.0, None, None, None, "finite", from_lambda(2.0)),
        ]
        rep = summarize(ds)
        assert rep.stats["eta_right"]["min"] == 0.0
        assert rep.stats["eta_right"]["max"] == 1.0

    def test_modulus_sort_order(self):
        ds = [
            PairDiagnostics(0.0, None, None, None, "infinite", eig_infinite()),
            PairDiagnostics(0.0, None, None, None, "finite", from_lambda(5.0)),
            PairDiagnostics(0.0, None, None, None, "zero", eig_zero()),
            PairDiagnostics(0.0, None, None, None, "finite", from_lambda(1.0)),
        ]
        rep = summarize(ds)
        assert rep.order == [2, 3, 1, 0]

    def test_matches_loop_reference(self):
        # ties in modulus (several infinities, repeated eigenvalues, pairs
        # without an eigenvalue) keep index order; None, inf and NaN errors
        # drop out of the statistics
        rng = np.random.default_rng(10)
        eigs = [eig_infinite(), from_lambda(2.0), eig_zero(), None, from_lambda(-2.0),
                eig_infinite(), from_lambda(0.5j), eig_zero(), None, from_lambda(2.0)]
        pool = [None, np.inf, np.nan, 0.0, 1e-16, 3e-15, 2e-14]
        ds = []
        for e in eigs:
            errs = [pool[k] for k in rng.integers(0, len(pool), 4)]
            ds.append(PairDiagnostics(*errs, "finite" if e is None else e.cls, e))
        rep = summarize(ds)

        def key(i):
            return (np.inf if ds[i].eig is None else ds[i].eig.modulus, i)

        assert rep.order == sorted(range(len(ds)), key=key)
        assert rep.order[-4:] == [0, 3, 5, 8]
        for name in ("eta_right", "eta_left", "omega_right", "omega_left"):
            vals = [getattr(d, name) for d in ds]
            vals = [v for v in vals if v is not None and np.isfinite(v)]
            want = {"min": None, "max": None, "median": None}
            if vals:
                want = {"min": min(vals), "max": max(vals), "median": float(np.median(vals))}
            assert rep.stats[name] == want
        counts = {"zero": 0, "finite": 0, "infinite": 0}
        for d in ds:
            counts[d.cls] += 1
        assert rep.counts == counts

    def test_mirror_counts(self):
        from quarteig import gen_mirror_like, solve_bundle

        res = solve_bundle(gen_mirror_like(0))
        assert res.summary.counts == {"zero": 9, "finite": 18, "infinite": 9}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


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
        eigs, rights, lefts = [], [], []
        for k in range(6):
            eigs.append(from_lambda(rand_complex(rng, ()).item(), 4))
            rights.append(unit(rand_complex(rng, (4,))))
            lefts.append(unit(rand_complex(rng, (4,))) if k % 2 == 0 else None)
        eigs.append(eig_infinite())
        rights.append(unit(rand_complex(rng, (4,))))
        lefts.append(None)
        diags = diagnostics_many(eigs, rights, lefts, q, norms)
        for e, x, y, dg in zip(eigs, rights, lefts, diags):
            ref, ref_o = backward_errors(q, e.lam, x)
            assert abs(dg.eta_right - ref) <= 1e-13 + 1e-6 * ref
            if y is not None:
                ref_l, ref_ol = backward_errors(q, e.lam, y, left=True)
                assert abs(dg.eta_left - ref_l) <= 1e-13 + 1e-6 * ref_l
                assert abs(dg.omega_left - ref_ol) <= 1e-13 + 1e-6 * ref_ol
            else:
                assert dg.eta_left is None
            if e.cls != "infinite":
                assert abs(dg.omega_right - ref_o) <= 1e-13 + 1e-6 * ref_o
            else:
                assert dg.omega_right is None
