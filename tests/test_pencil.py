import numpy as np
import pytest
import scipy.linalg as sla

from quarteig import QuarticPencil
from quarteig.diagnostics import homogeneous_weights
from quarteig.pencil import (
    EIG_FINITE,
    EIG_INFINITE,
    EIG_ZERO,
    affine,
    classify,
    linearize,
    normalize,
    reciprocal,
    reverse,
)
from oracles import (
    classify_dense,
    match_values,
    quartic_det_roots,
    rand_complex,
    random_regular_quartic,
)
from support import from_lambda


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
        _, cls = classify_dense(lin.aa, lin.bb)
        assert np.sum(cls == "infinite") >= n

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


def bits(values):
    """The IEEE bit patterns of complex or real values (signed zeros differ)."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


class TestClassification:
    def test_thresholds(self):
        _, _, cls = classify([1.0, 1e-20, 1.0], [1e-20, 1.0, 1.0], 4)
        assert cls.tolist() == [EIG_INFINITE, EIG_ZERO, EIG_FINITE]

    def test_normalization(self):
        alpha, beta, _ = classify([3.0 + 4.0j], [5.0], 4)
        assert abs(abs(alpha[0]) ** 2 + beta[0] ** 2 - 1.0) < 1e-15
        assert beta[0] >= 0.0
        assert abs(affine(alpha, beta)[0] - (3.0 + 4.0j) / 5.0) < 1e-15

    def test_phase_is_removed_from_beta(self):
        # normalization keeps the affine eigenvalue alpha/beta fixed
        alpha, beta = normalize(1.0, 1.0j)
        assert beta > 0.0
        assert abs(alpha / beta - 1.0 / 1.0j) < 1e-12

    def test_reciprocal(self):
        s = from_lambda([0.0, np.inf, 2.0])
        alpha, beta, cls = reciprocal(s.alpha, s.beta, s.cls)
        assert cls.tolist() == [EIG_INFINITE, EIG_ZERO, EIG_FINITE]
        assert abs(affine(alpha, beta)[2] - 0.5) < 1e-15

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            normalize([1.0, 0.0], [1.0, 0.0])

    def test_pair_bits_do_not_depend_on_the_batch(self):
        # a pair's normalization, affine value and residual weights come out
        # bit for bit the same alone, in a short batch (vector loop tails)
        # and in a long one, signed zeros included
        rng = np.random.default_rng(21)
        k = 4000
        alpha = rand_complex(rng, (k,)) * 10.0 ** rng.integers(-8, 8, k)
        beta = rand_complex(rng, (k,)) * 10.0 ** rng.integers(-8, 8, k)
        alpha[:40] = [0.0, -0.0, 1.0, -1.0, 1j, -1j, complex(-0.0, 2.0), complex(3.0, -0.0)] * 5
        beta[40:80] = [0.0, 1.0, -1.0, 0.5, 1j] * 8
        beta[100:200] = beta[100:200].real

        def pairs(alpha, beta):
            a, b = normalize(alpha, beta)
            return a, b, affine(a, b), homogeneous_weights(a, b)

        whole = pairs(alpha, beta)
        for size in (1, 7):
            for start in range(0, k, size):
                cut = slice(start, start + size)
                for got, want in zip(pairs(alpha[cut], beta[cut]), whole):
                    assert np.array_equal(bits(got), bits(want[..., cut]))
        _, b, lam, _ = whole
        fin = b != 0.0
        assert np.allclose(lam[fin], alpha[fin] / beta[fin], rtol=1e-14, atol=0.0)
        assert np.all(np.isinf(lam[~fin]))


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
