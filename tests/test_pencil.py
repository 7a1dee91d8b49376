import numpy as np
import pytest
import scipy.linalg as sla

from quarteig import QuarticPencil, linearize, reverse
from quarteig.pencil import (
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    classify_pair,
    eig_infinite,
    eig_zero,
    from_lambda,
    normalize_pair,
    reciprocal_eig,
)
from oracles import (
    classify_dense,
    match_values,
    quartic_det_roots,
    rand_complex,
    random_regular_quartic,
)


def scalar_quartic(a, b, c, d, e):
    return QuarticPencil.from_matrices([[a]], [[b]], [[c]], [[d]], [[e]])


ROOTS4 = [1.0, -1.0, 1.0j, -1.0j]  # lambda^4 = 1


class TestLinearize:
    def test_scalar_unit_spectrum(self):
        q = scalar_quartic(1, 0, 0, 0, -1)
        lin = linearize(q)
        assert lin.size == 4
        lam = sla.eig(lin.aa, lin.bb, right=False)
        match_values(sorted(lam, key=lambda z: (z.real, z.imag)),
                     sorted(ROOTS4, key=lambda z: (z.real, z.imag)), 1e-10)

    def test_zero_leading_coefficient_gives_infinities(self):
        rng = np.random.default_rng(1)
        n = 3
        mats = [np.zeros((n, n))] + [rand_complex(rng, (n, n)) for _ in range(4)]
        q = QuarticPencil.from_matrices(*mats)
        lin = linearize(q)
        eigs = classify_dense(lin.aa, lin.bb)
        assert sum(e.cls == EIG_INFINITE for e in eigs) >= n

    def test_constant_block_bit_exact(self):
        rng = np.random.default_rng(2)
        mats = [rand_complex(rng, (4, 4)) for _ in range(5)]
        q = QuarticPencil.from_matrices(*mats)
        lin = linearize(q)
        n = 4
        assert np.array_equal(lin.aa[3 * n : 4 * n, :n], q.e)

    def test_identity_and_zero_blocks_exact(self):
        rng = np.random.default_rng(3)
        n = 3
        q = QuarticPencil.from_matrices(*[rand_complex(rng, (n, n)) for _ in range(5)])
        lin = linearize(q)
        eye = np.eye(n)
        assert np.array_equal(lin.aa[:n, 2 * n : 3 * n], -eye)
        assert np.array_equal(lin.aa[2 * n : 3 * n, n : 2 * n], -eye)
        assert np.array_equal(lin.aa[n : 2 * n, n : 2 * n], np.zeros((n, n)))
        assert np.array_equal(lin.bb[2 * n : 3 * n, 2 * n : 3 * n], -eye)
        assert np.array_equal(lin.bb[:n, :n], -q.a)

    def test_strong_linearization_vs_det_oracle(self):
        for seed, n in ((10, 2), (11, 4), (12, 6)):
            rng = np.random.default_rng(seed)
            q = random_regular_quartic(rng, n)
            roots, n_inf = quartic_det_roots(q)
            assert n_inf == 0
            lin = linearize(q)
            lam = sla.eig(lin.aa, lin.bb, right=False)
            match_values(lam, roots, 1e-8)


class TestReverse:
    def test_involution_bit_exact(self):
        rng = np.random.default_rng(4)
        q = QuarticPencil.from_matrices(*[rand_complex(rng, (3, 3)) for _ in range(5)])
        q2 = reverse(reverse(q))
        for m1, m2 in zip(q.coeffs, q2.coeffs):
            assert np.array_equal(m1, m2)

    def test_self_reciprocal_spectrum(self):
        q = scalar_quartic(1, 0, 0, 0, -1)
        lin = linearize(reverse(q))
        lam = sla.eig(lin.aa, lin.bb, right=False)
        match_values(sorted(lam, key=lambda z: (z.real, z.imag)),
                     sorted(ROOTS4, key=lambda z: (z.real, z.imag)), 1e-10)

    def test_eigenvalue_two_maps_to_half(self):
        # (lambda - 2)^4 expanded; the quadruple root is ill-conditioned
        # (eps^(1/4)), but its mean is recovered to full accuracy
        q = scalar_quartic(1.0, -8.0, 24.0, -32.0, 16.0)
        roots, n_inf = quartic_det_roots(reverse(q))
        assert n_inf == 0
        assert len(roots) == 4
        assert np.all(np.abs(roots - 0.5) < 1e-2)
        assert abs(np.mean(roots) - 0.5) < 1e-8

    def test_reciprocal_multiset_vs_oracle(self):
        rng = np.random.default_rng(13)
        q = random_regular_quartic(rng, 4)
        roots, _ = quartic_det_roots(q)
        rev_roots, _ = quartic_det_roots(reverse(q))
        match_values(rev_roots, [1.0 / r for r in roots], 1e-8)


class TestClassification:
    def test_thresholds(self):
        assert classify_pair(1.0, 1e-20, 4).cls == EIG_INFINITE
        assert classify_pair(1e-20, 1.0, 4).cls == EIG_ZERO
        assert classify_pair(1.0, 1.0, 4).cls == EIG_FINITE

    def test_normalization(self):
        e = classify_pair(3.0 + 4.0j, 5.0, 4)
        assert abs(abs(e.alpha) ** 2 + e.beta**2 - 1.0) < 1e-15
        assert e.beta >= 0.0
        assert abs(e.lam - (3.0 + 4.0j) / 5.0) < 1e-15

    def test_phase_is_removed_from_beta(self):
        # normalization keeps the affine eigenvalue alpha/beta fixed
        alpha, beta = normalize_pair(1.0, 1.0j)
        assert beta > 0.0
        assert abs(alpha / beta - 1.0 / 1.0j) < 1e-12

    def test_reciprocal(self):
        assert reciprocal_eig(eig_zero()).cls == EIG_INFINITE
        assert reciprocal_eig(eig_infinite()).cls == EIG_ZERO
        e = from_lambda(2.0)
        r = reciprocal_eig(e)
        assert abs(r.lam - 0.5) < 1e-15

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            normalize_pair(0.0, 0.0)


class TestValidation:
    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            QuarticPencil.from_matrices(
                np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(3)
            )

    def test_nan_rejected(self):
        bad = np.array([[np.nan]])
        with pytest.raises(ValueError):
            QuarticPencil.from_matrices(bad, [[0.0]], [[0.0]], [[0.0]], [[1.0]])

    def test_empty_rejected(self):
        z = np.zeros((0, 0))
        with pytest.raises(ValueError, match="at least 1x1"):
            QuarticPencil.from_matrices(z, z, z, z, z)
