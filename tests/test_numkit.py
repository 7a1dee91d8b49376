import numpy as np
import pytest

from quarteig.errors import SingularShiftError
from quarteig.numkit import (
    EPS,
    DropOff,
    NormThreshold,
    make_strategy,
    rrqr,
    shifted_hess_solve,
    svd,
    tri_hess_reduce,
    urv,
)
from oracles import haar_unitary, rand_complex, well_conditioned


class TestRRQR:
    def test_exact_zero_columns(self):
        rng = np.random.default_rng(0)
        n, k = 7, 3
        m = haar_unitary(rng, n)
        m[:, [1, 4, 6]] = 0.0
        f = rrqr(m)
        assert f.rank == n - k

    def test_threshold_forces_truncation(self):
        m = np.diag([1.0, 1e-18]).astype(complex)
        f = rrqr(m, NormThreshold())  # tau = n*eps by default
        assert f.rank == 1

    def test_reconstruction_well_conditioned(self):
        rng = np.random.default_rng(1)
        n = 8
        m = well_conditioned(rng, n, cond=1e3)
        f = rrqr(m)
        assert f.rank == n
        err = np.linalg.norm(f.reconstruct() - m)
        assert err <= 10 * n * EPS * np.linalg.norm(m)

    def test_diag_nonincreasing(self):
        rng = np.random.default_rng(2)
        m = rand_complex(rng, (9, 6))
        f = rrqr(m)
        d = np.abs(np.diag(f.r))
        assert np.all(d[1:] <= d[:-1] * (1.0 + 1e-12))

    def test_zero_dimension(self):
        f = rrqr(np.zeros((0, 3)))
        assert f.rank == 0
        f = rrqr(np.zeros((3, 0)))
        assert f.rank == 0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rrqr(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rank_monotone_under_zero_column(self):
        rng = np.random.default_rng(3)
        m = rand_complex(rng, (6, 5))
        r0 = rrqr(m).rank
        m2 = np.hstack([m, np.zeros((6, 1))])
        assert rrqr(m2).rank <= r0

    def test_norm_threshold_scale_invariant(self):
        rng = np.random.default_rng(4)
        m = rand_complex(rng, (6, 6))
        m[:, 2] = 0.0
        r0 = rrqr(m).rank
        for s in (2.0**40, 2.0**-40):
            assert rrqr(s * m).rank == r0

    def test_dropoff_truncates_at_gap(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(rng, 6)
        v = haar_unitary(rng, 6)
        s = np.array([1.0, 0.9, 0.5, 1e-9, 1e-10, 1e-11])
        m = u @ (s[:, None] * v.conj().T)
        f = rrqr(m, DropOff(rho=1e-4))
        assert f.rank == 3
        assert f.truncation_log["strategy"] == "dropoff"

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        for shape in ((5, 5), (7, 4), (4, 7)):
            f = rrqr(rand_complex(rng, shape))
            n = f.q.shape[0]
            assert np.linalg.norm(f.q.conj().T @ f.q - np.eye(n)) <= 10 * n * EPS

    def test_refactor_reproduces_ranks_and_singvals(self):
        rng = np.random.default_rng(7)
        n = 6
        u = haar_unitary(rng, n)
        v = haar_unitary(rng, n)
        s = np.array([2.0, 1.0, 0.5, 0.1, 0.0, 0.0])
        m = u @ (s[:, None] * v.conj().T)
        f1 = rrqr(m)
        f2 = rrqr(f1.reconstruct())
        assert f2.rank == f1.rank
        s1 = np.linalg.svd(m, compute_uv=False)
        s2 = np.linalg.svd(f1.reconstruct(), compute_uv=False)
        assert np.all(np.abs(s1 - s2) <= 10 * n * EPS * max(s1))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7)])
    def test_lazy_q_is_scipys(self, shape):
        import scipy.linalg as sla

        rng = np.random.default_rng(27)
        m = rand_complex(rng, shape)
        f = rrqr(m)
        assert f._q is None  # nothing formed until q is read
        q_ref, r_ref, p_ref = sla.qr(m, pivoting=True)
        x = rand_complex(rng, (shape[0], 2))
        assert np.linalg.norm(f.q_times(x) - q_ref @ x) <= 10 * EPS * np.linalg.norm(x)
        assert f._q is None
        assert np.array_equal(f.q, q_ref)
        assert np.array_equal(f.r, r_ref) and np.array_equal(f.perm, p_ref)
        assert np.array_equal(f.q_times(x), q_ref @ x)

    def test_make_strategy(self):
        assert isinstance(make_strategy("norm", 1e-10), NormThreshold)
        assert isinstance(make_strategy("dropoff"), DropOff)
        with pytest.raises(ValueError):
            make_strategy("other")


class TestURV:
    def test_identity_padded(self):
        k = 4
        m = np.hstack([np.eye(k), np.zeros((k, 3))]).astype(complex)
        f = urv(m)
        assert f.rank == k
        assert np.allclose(np.abs(f.r), np.eye(k), atol=20 * EPS)

    def test_rank_one_reconstruction(self):
        rng = np.random.default_rng(8)
        u = rand_complex(rng, (5,))
        v = rand_complex(rng, (7,))
        m = np.outer(u, v)
        f = urv(m)
        assert f.rank == 1
        n = max(m.shape)
        assert np.linalg.norm(f.reconstruct() - m) <= 10 * n * EPS * np.linalg.norm(m)

    def test_zero_matrix(self):
        f = urv(np.zeros((3, 5)))
        assert f.rank == 0

    def test_column_compressed_form(self):
        # a row-rank-deficient block lands in the (0 | B) shape after v
        rng = np.random.default_rng(9)
        m = rand_complex(rng, (3, 8))
        f = urv(m)
        mv = m @ f.v
        assert f.rank == 3
        assert np.linalg.norm(mv[:, : 8 - 3]) <= 50 * EPS * np.linalg.norm(m)
        core = mv[:, 8 - 3 :]
        assert np.linalg.norm(np.linalg.inv(core)) < 1e6  # nonsingular

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        m = rand_complex(rng, (6, 4))
        f = urv(m)
        for fac in (f.u, f.v):
            n = fac.shape[0]
            assert np.linalg.norm(fac.conj().T @ fac - np.eye(n)) <= 10 * n * EPS


class TestSVD:
    def test_identity(self):
        f = svd(np.eye(5))
        assert np.allclose(f.sigma, 1.0)

    def test_permuted_diagonal(self):
        m = np.diag([3.0, 2.0, 1.0])[np.array([2, 0, 1])]
        f = svd(m)
        assert np.allclose(f.sigma, [3.0, 2.0, 1.0])

    def test_matches_hermitian_eigensolve(self):
        rng = np.random.default_rng(11)
        m = rand_complex(rng, (6, 6))
        f = svd(m)
        lam = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
        assert np.allclose(f.sigma**2, lam, rtol=1e-12, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        m = rand_complex(rng, (5, 8))
        f = svd(m)
        n = max(m.shape)
        assert np.linalg.norm(f.reconstruct() - m) <= 10 * n * EPS * np.linalg.norm(m)


class TestTriHess:
    def test_triangular_pair_stays_structured(self):
        rng = np.random.default_rng(13)
        a = np.triu(rand_complex(rng, (5, 5)))
        b = np.triu(rand_complex(rng, (5, 5)))
        pair = tri_hess_reduce(a, b)
        assert np.allclose(np.tril(pair.t, -1), 0.0)
        assert np.allclose(np.tril(pair.h, -2), 0.0)
        assert np.linalg.norm(pair.q @ pair.t @ pair.z.conj().T - a) <= 100 * EPS * np.linalg.norm(a)

    def test_scalar_exact(self):
        a = np.array([[2.0 + 1.0j]])
        b = np.array([[3.0 - 4.0j]])
        pair = tri_hess_reduce(a, b)
        assert pair.t[0, 0] == a[0, 0]
        assert pair.h[0, 0] == b[0, 0]

    def test_determinant_consistency(self):
        rng = np.random.default_rng(14)
        n = 6
        a = rand_complex(rng, (n, n))
        b = rand_complex(rng, (n, n))
        pair = tri_hess_reduce(a, b)
        assert np.linalg.norm(pair.q @ pair.t @ pair.z.conj().T - a) <= 100 * n * EPS * np.linalg.norm(a)
        assert np.linalg.norm(pair.q @ pair.h @ pair.z.conj().T - b) <= 100 * n * EPS * np.linalg.norm(b)
        phases = []
        for lam in (0.7 + 0.1j, -1.3, 2.0j):
            d1 = np.linalg.det(lam * a + b)
            d2 = np.linalg.det(lam * pair.t + pair.h)
            assert abs(abs(d1) - abs(d2)) <= 1e-8 * abs(d1)
            phases.append(d1 / d2)
        # the determinant ratio is the constant det(q)*det(z*)
        assert abs(phases[0] - phases[1]) <= 1e-8
        assert abs(phases[0] - phases[2]) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tri_hess_reduce(np.eye(3), np.eye(4))

    def test_generalized_schur_form(self):
        rng = np.random.default_rng(21)
        for n in (2, 5, 12):
            a = rand_complex(rng, (n, n))
            b = rand_complex(rng, (n, n))
            pair = tri_hess_reduce(a, b)
            assert np.array_equal(np.tril(pair.t, -1), np.zeros((n, n)))
            assert np.array_equal(np.tril(pair.h, -1), np.zeros((n, n)))
            eye = np.eye(n)
            for u in (pair.q, pair.z):
                assert np.linalg.norm(u.conj().T @ u - eye) <= 100 * n * EPS
            assert np.linalg.norm(pair.q @ pair.t @ pair.z.conj().T - a) <= 100 * n * EPS * np.linalg.norm(a)
            assert np.linalg.norm(pair.q @ pair.h @ pair.z.conj().T - b) <= 100 * n * EPS * np.linalg.norm(b)


class TestShiftedSolve:
    def test_identity_shift(self):
        n = 4
        pair = tri_hess_reduce(np.eye(n), np.zeros((n, n)))
        v = np.arange(1.0, n + 1.0) + 0j
        x = shifted_hess_solve(pair, 2.0, v)
        assert np.allclose(x, v / 2.0, atol=1e-14)

    def test_matches_dense_lu(self):
        rng = np.random.default_rng(15)
        n = 8
        a = well_conditioned(rng, n)
        b = well_conditioned(rng, n)
        lam = 0.3 - 1.1j
        assert np.linalg.cond(lam * a + b) < 100  # well-conditioned shift
        pair = tri_hess_reduce(a, b)
        v = rand_complex(rng, (n,))
        x = shifted_hess_solve(pair, lam, v)
        x_ref = np.linalg.solve(lam * a + b, v)
        assert np.linalg.norm(x - x_ref) <= 1e3 * n * EPS * np.linalg.norm(x_ref)

    def test_fifty_random_pairs(self):
        rng = np.random.default_rng(16)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 10))
            a = well_conditioned(rng, n, cond=50.0)
            b = well_conditioned(rng, n, cond=50.0)
            lam = rand_complex(rng, ()).item()
            if np.linalg.cond(lam * a + b) > 100:
                continue
            pair = tri_hess_reduce(a, b)
            v = rand_complex(rng, (n,))
            x = shifted_hess_solve(pair, lam, v)
            x_ref = np.linalg.solve(lam * a + b, v)
            rel = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            assert rel <= 1e3 * n * EPS, (done, rel)
            done += 1

    def test_exact_eigenvalue_raises(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 8.0]).astype(complex)
        pair = tri_hess_reduce(a, b)
        v = np.ones(2, dtype=complex)
        with pytest.raises(SingularShiftError):
            shifted_hess_solve(pair, -3.0, v)  # -3*1 + 3 = 0


class TestBatchedSolve:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(18)
        n = 7
        a = well_conditioned(rng, n)
        b = well_conditioned(rng, n)
        pair = tri_hess_reduce(a, b)
        lams = rand_complex(rng, (9,))
        rhs = rand_complex(rng, (9, n, 2))
        from quarteig.numkit import shifted_hess_solve_many

        xs, ok = shifted_hess_solve_many(pair, lams, rhs)
        assert ok.all()
        for j in range(9):
            ref = shifted_hess_solve(pair, lams[j], rhs[j])
            assert np.linalg.norm(xs[j] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_shift_masked(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 8.0]).astype(complex)
        pair = tri_hess_reduce(a, b)
        from quarteig.numkit import shifted_hess_solve_many

        lams = np.array([-3.0, 1.0])
        rhs = np.ones((2, 2, 1), dtype=complex)
        xs, ok = shifted_hess_solve_many(pair, lams, rhs)
        assert not ok[0] and ok[1]
        ref = shifted_hess_solve(pair, 1.0, np.ones(2))
        assert np.allclose(xs[1, :, 0], ref)


class TestRefactorInvariants:
    def test_urv_refactor(self):
        rng = np.random.default_rng(19)
        m = np.outer(rand_complex(rng, (6,)), rand_complex(rng, (4,)))
        f1 = urv(m)
        f2 = urv(f1.reconstruct())
        assert f2.rank == f1.rank

    def test_svd_refactor(self):
        rng = np.random.default_rng(20)
        m = rand_complex(rng, (5, 5))
        f1 = svd(m)
        f2 = svd(f1.reconstruct())
        n = 5
        assert np.all(np.abs(f1.sigma - f2.sigma) <= 10 * n * EPS * f1.sigma[0])
