import numpy as np
import pytest

import quarteig.numkit
from quarteig.numkit import EPS, rrqr, safe_norm, unit_columns, urv
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
        f = rrqr(m)  # tau = n*eps
        assert f.rank == 1

    def test_floor_raises_the_threshold(self):
        m = np.diag([1.0, 1e-6]).astype(complex)
        assert rrqr(m).rank == 2
        f = rrqr(m, floor=1e-5)
        assert f.rank == 1
        assert f.truncation_log == {"tau": 2 * EPS, "threshold": 1e-5, "rank": 1,
                                    "diag": [1.0, 1e-6]}
        # a floor below tau * ||m||_F leaves the relative threshold in force
        relative = 2 * EPS * safe_norm(m)
        f = rrqr(m, floor=relative / 2)
        assert f.rank == 2 and f.truncation_log["threshold"] == relative

    def test_reconstruction_well_conditioned(self):
        rng = np.random.default_rng(1)
        n = 8
        m = well_conditioned(rng, n, cond=1e3)
        f = rrqr(m)
        assert f.rank == n
        err = np.linalg.norm(f.q @ f.r[:, f.inv_perm] - m)
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
        m1 = f1.q @ f1.r[:, f1.inv_perm]  # Q R Pi^T
        f2 = rrqr(m1)
        assert f2.rank == f1.rank
        s1 = np.linalg.svd(m, compute_uv=False)
        s2 = np.linalg.svd(m1, compute_uv=False)
        assert np.all(np.abs(s1 - s2) <= 10 * n * EPS * max(s1))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7)])
    def test_lazy_q_is_scipys(self, shape):
        import scipy.linalg as sla

        rng = np.random.default_rng(27)
        m = rand_complex(rng, shape)
        f = rrqr(m)
        assert f._q is None  # nothing formed until q is read
        q_ref, r_ref, p_ref = sla.qr(m, pivoting=True)
        assert np.array_equal(f.q, q_ref)
        assert np.array_equal(f.r, r_ref) and np.array_equal(f.perm, p_ref)

    @pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7)])
    def test_lazy_r_is_the_triangle_of_the_packed_output(self, shape):
        import scipy.linalg as sla

        rng = np.random.default_rng(28)
        m = rand_complex(rng, shape)
        m[:, -1] = m[:, 0]  # a rank deficiency for the log to record
        f = rrqr(m)
        assert f._r is None  # nothing formed until r is read
        assert np.array_equal(f.r, np.triu(f.packed))
        # the rank and its log read the packed diagonal, which is R's
        _, r_ref, _ = sla.qr(m, pivoting=True)
        diag = np.abs(r_ref.diagonal())
        tau = max(shape) * EPS
        threshold = tau * np.linalg.norm(m)
        rank = int(np.count_nonzero(diag > threshold))
        assert f.truncation_log == {"tau": tau, "threshold": threshold, "rank": rank,
                                    "diag": diag.tolist()}
        assert f.rank == rank == np.linalg.matrix_rank(m)


def compressed(m, f):
    """m rebuilt from its column-compressed form (0 | m v_2) v*, with the
    leading cols - rank columns, which deflation truncates, set to zero."""
    mv = m @ f.v
    mv[:, : m.shape[1] - f.rank] = 0.0
    return mv @ f.v.conj().T


class TestURV:
    def test_identity_padded(self):
        k = 4
        m = np.hstack([np.eye(k), np.zeros((k, 3))]).astype(complex)
        f = urv(m)
        assert f.rank == k
        mv = m @ f.v
        assert np.linalg.norm(mv[:, :3]) <= 20 * EPS
        assert np.allclose(np.abs(mv[:, 3:]), np.eye(k), atol=20 * EPS)

    def test_rank_one_reconstruction(self):
        rng = np.random.default_rng(8)
        u = rand_complex(rng, (5,))
        v = rand_complex(rng, (7,))
        m = np.outer(u, v)
        f = urv(m)
        assert f.rank == 1
        n = max(m.shape)
        # the leading columns of v span the null space of m
        assert np.linalg.norm(m @ f.v[:, : 7 - f.rank]) <= 10 * n * EPS * np.linalg.norm(m)
        assert np.linalg.norm(compressed(m, f) - m) <= 10 * n * EPS * np.linalg.norm(m)

    def test_zero_matrix(self):
        f = urv(np.zeros((3, 5)))
        assert f.rank == 0
        assert np.array_equal(f.v, np.eye(5))

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
        n = f.v.shape[0]
        assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(n)) <= 10 * n * EPS


class TestUnitColumns:
    def test_zero_and_non_finite_columns_come_back_zero_and_unmarked(self):
        z = np.array([[3.0, 0.0, 1e300, np.inf, np.nan],
                      [4.0j, 0.0, 1e300, 1.0, 1.0]])
        u = unit_columns(z)
        # a zero column, a norm that overflows, an inf entry and a NaN entry
        assert np.array_equal(u[:, 1:], np.zeros((2, 4)))
        assert np.linalg.norm(u[:, 0] - [0.6, 0.8j]) <= 2 * EPS


class TestRefactorInvariants:
    def test_urv_refactor(self):
        rng = np.random.default_rng(19)
        m = np.outer(rand_complex(rng, (6,)), rand_complex(rng, (4,)))
        f1 = urv(m)
        f2 = urv(compressed(m, f1))
        assert f2.rank == f1.rank


class TestNorms:
    def test_safe_norm_is_bit_identical_on_ordinary_inputs(self):
        rng = np.random.default_rng(21)
        for shape, scale in (((7, 5), 1.0), ((40, 40), 1e-30), ((3, 9), 1e40)):
            m = rand_complex(rng, shape, scale)
            assert safe_norm(m) == np.linalg.norm(m)
            assert np.array_equal(safe_norm(m.real, axis=0), np.linalg.norm(m.real, axis=0))
            assert np.array_equal(safe_norm(m, axis=1), np.linalg.norm(m, axis=1))

    @pytest.mark.parametrize("scale", [1e-300, 1e-250, 1e-160, 1e160, 1e250, 1e307])
    def test_safe_norm_neither_overflows_nor_underflows(self, scale):
        rng = np.random.default_rng(22)
        m = rand_complex(rng, (6, 4))
        m[:, 1] *= 1e-3  # columns of different magnitude keep their own scale
        assert safe_norm(scale * m) / scale == pytest.approx(np.linalg.norm(m), rel=1e-14)
        cols = safe_norm(scale * m, axis=0) / scale
        assert cols == pytest.approx(np.linalg.norm(m, axis=0), rel=1e-14)

    def test_safe_norm_of_exact_zeros_is_the_plain_norm(self, monkeypatch):
        # an all-zero input has the exact norm 0, so the scaled second pass
        # (the only caller of frexp) must not run
        def second_pass(*args):
            raise AssertionError("scaled second pass taken")

        monkeypatch.setattr(np, "frexp", second_pass)
        z = np.zeros((4, 3), dtype=np.complex128)
        assert safe_norm(z) == 0.0
        assert np.array_equal(safe_norm(z, axis=0), np.zeros(3))

    def test_safe_norm_of_mixed_columns_matches_each_column(self):
        rng = np.random.default_rng(24)
        m = rand_complex(rng, (5, 4))
        m[:, 0] = 0.0
        m[:, 1] *= 1e-300
        m[:, 2] *= 1e300
        cols = [safe_norm(m[:, [j]], axis=0)[0] for j in range(4)]
        assert np.array_equal(safe_norm(m, axis=0), cols)
        assert cols[0] == 0.0 and cols[3] == np.linalg.norm(m[:, 3])

    def test_rrqr_rank_at_extreme_scale(self):
        rng = np.random.default_rng(23)
        m = rand_complex(rng, (5, 5))
        m[:, 2] = 0.0
        for scale in (1e-200, 1.0, 1e200):
            assert rrqr(scale * m).rank == 4


@pytest.fixture
def table():
    lib = quarteig.numkit.lapack()
    if lib is None:
        pytest.skip("no loaded OpenBLAS exports LAPACKE")
    return lib


@pytest.fixture(params=["lapacke", "scipy"])
def backend(request, monkeypatch):
    """Run the test on the LAPACKE table and on the scipy.linalg fallback."""
    if request.param == "scipy":
        monkeypatch.setattr(quarteig.numkit, "lapack", lambda: None)
    elif quarteig.numkit.lapack() is None:
        pytest.skip("no loaded OpenBLAS exports LAPACKE")
    return request.param


class TestLapackeTable:
    """The kernels on the LAPACKE table give scipy.linalg's results bit for
    bit (with OpenBLAS 0.3.30 in scipy and 0.3.31 in numpy), and so does the
    scipy fallback."""

    # the package solves with r itself only (trans "N")
    @pytest.mark.parametrize("trans", ["N"])
    def test_triangular_solve_matches_scipy(self, backend, trans):
        import scipy.linalg as sla

        rng = np.random.default_rng(73)
        # Fortran order, in which scipy runs ztrtrs on r itself
        r = np.asfortranarray(np.triu(rand_complex(rng, (9, 9))) + 3 * np.eye(9))
        for b in (rand_complex(rng, (9, 4)), rand_complex(rng, (9, 1))[:, 0]):
            x = quarteig.numkit.solve_triangular(r, b)
            assert np.array_equal(x, sla.solve_triangular(r, b, trans=trans))

    def test_triangular_solve_with_zero_diagonal_raises(self, backend):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            quarteig.numkit.solve_triangular(r, np.ones(3))

    @pytest.mark.parametrize("shape", [(6, 6), (9, 5), (4, 7)])
    def test_pivoted_qr_matches_scipy(self, backend, shape):
        import scipy.linalg as sla

        m = rand_complex(np.random.default_rng(75), shape)
        f = rrqr(m)
        q, r, p = sla.qr(m, pivoting=True)
        assert np.array_equal(f.r, r) and np.array_equal(f.perm, p)
        assert np.array_equal(f.q, q)

    def test_arrays_must_be_fortran_contiguous(self, table):
        a = np.zeros((2, 3), dtype=np.complex128)  # C order
        tau = np.zeros(2, dtype=np.complex128)
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            table.zgeqp3(2, 3, a, 2, np.zeros(3, dtype=table.int), tau)

    def test_integer_arrays_must_have_the_table_dtype(self, table):
        a = np.zeros((2, 2), dtype=np.complex128, order="F")
        wrong = np.int32 if table.int == np.int64 else np.int64
        tau = np.zeros(2, dtype=np.complex128)
        with pytest.raises(ValueError, match="dtype"):
            table.zgeqp3(2, 2, a, 2, np.zeros(2, dtype=wrong), tau)

    def test_illegal_argument_raises(self, table):
        a = np.zeros((2, 2), dtype=np.complex128, order="F")
        # LAPACKE counts the matrix layout as argument 1
        tau = np.zeros(2, dtype=np.complex128)
        with pytest.raises(ValueError, match="argument 5 of LAPACKE_zgeqp3"):
            table.zgeqp3(2, 2, a, 1, np.zeros(2, dtype=table.int), tau)  # lda < m
