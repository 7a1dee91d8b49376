import numpy as np
import pytest

import quarteig.eigvec
from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.deflate import analyze_ranks, deflate
from quarteig.eigvec import (
    nullspace_vectors,
    recover_left,
    recover_right_many,
    recover_right_ls,
)
from quarteig.gevp import solve_gevp
from quarteig.numkit import EPS
from quarteig.pencil import EIG_FINITE, Spectrum, linearize
from oracles import (
    backward_errors,
    haar_unitary,
    principal_angle,
    quartic_det_roots,
    quartic_with_eigenpair,
    rand_complex,
    random_regular_quartic,
    eigvec_from_lambda,
)
from support import from_lambda, unit


def context(q):
    """What the solver recovers from: the rank profile of q."""
    return analyze_ranks(q)


def build_z(q, lam, x):
    """Right linearization eigenvector from the block display."""
    shift = lam * q.a + q.b
    z = np.concatenate([lam * x, lam**2 * (shift @ x), lam * (shift @ x), -(q.e @ x)])
    return z / np.linalg.norm(z)


def recover_one(z, eig, ctx):
    """recover_right_many on a one-element batch (``eig`` a one-pair
    spectrum): ``(x, method, eta)`` with the oracle's backward error of the
    chosen vector."""
    x, method, _ = recover_right_many(np.asarray(z)[:, None], eig.alpha, eig.beta, ctx)[0]
    return x, method, (np.inf if x is None else eta(eig.lam[0], x, ctx.q))


def pair(spec, i):
    """Pair i of a spectrum as a one-pair spectrum."""
    return Spectrum(spec.alpha[i : i + 1], spec.beta[i : i + 1], spec.cls[i : i + 1])


def eta(lam, x, q, left=False):
    return backward_errors(q, lam, x, left)[0]


def aligned_distance(u, v):
    """Distance after optimal phase alignment."""
    phase = np.vdot(u, v)
    phase = phase / abs(phase) if abs(phase) else 1.0
    return np.linalg.norm(u * phase - v)


class TestRecoverRight:
    def test_exact_eigenpair_roundtrip(self):
        rng = np.random.default_rng(0)
        n = 4
        lam = 0.7 - 0.4j
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = build_z(q, lam, x)
        got, method, val = recover_one(z, from_lambda(lam, n), ctx)
        assert aligned_distance(got, x) <= 1e-12
        assert val <= 10 * n * EPS

    def test_scalar_unit_problem(self):
        q = QuarticPencil.from_matrices([[1.0]], [[0.0]], [[0.0]], [[0.0]], [[-1.0]])
        ctx = context(q)
        z = build_z(q, 1.0, np.array([1.0 + 0j]))
        x, method, val = recover_one(z, from_lambda(1.0), ctx)
        assert abs(abs(x[0]) - 1.0) < 1e-14
        assert val <= 10 * EPS

    def test_selection_optimality_on_noisy_input(self):
        rng = np.random.default_rng(1)
        n = 5
        lam = 1.3 + 0.2j
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = build_z(q, lam, x)
        z = unit(z + 1e-8 * rand_complex(rng, (4 * n,)))
        eig = from_lambda(lam, n)
        got, method, val = recover_one(z, eig, ctx)
        # the oracle's backward error of both candidates, z1 and the E solve
        cands = [unit(z[:n]), unit(np.linalg.solve(q.e, -z[3 * n :]))]
        vals = [eta(lam, c, q) for c in cands]
        assert val <= min(vals) * (1 + 1e-12)

    def test_rejects_zero_and_infinite(self):
        rng = np.random.default_rng(2)
        q = random_regular_quartic(rng, 3)
        ctx = context(q)
        z = rand_complex(rng, (12,))
        for lam in (0.0, np.inf):
            with pytest.raises(ValueError):
                recover_one(z, from_lambda(lam), ctx)

    def test_esolve_candidate_is_the_dense_solve(self):
        # with z1 = 0 the E solve is the only candidate left
        rng = np.random.default_rng(4)
        n = 6
        q = random_regular_quartic(rng, n)
        zs = np.zeros((4 * n, 3), dtype=complex)
        zs[3 * n :] = rand_complex(rng, (n, 3))
        e = from_lambda([0.5, 1.5 - 1j, -2.0], n)
        for j, (x, method, _) in enumerate(recover_right_many(zs, e.alpha, e.beta, context(q))):
            assert method == "z4_esolve"
            ref = unit(np.linalg.solve(q.e, -zs[3 * n :, j]))
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_no_esolve_when_e_is_singular(self):
        from quarteig import SolveConfig, solve_bundle
        from problems import gen_planted

        singular_e = gen_planted(5, 2, 1, seed=34)
        # the second has only E singular
        for b, config in ((singular_e, SolveConfig()), (singular_e, SolveConfig(deflate=False)),
                          (gen_planted(5, 2, 0, seed=35), SolveConfig())):
            res = solve_bundle(b, config)
            assert res.solution.has_right.all()
            assert "z4_esolve" not in res.solution.methods
        assert context(singular_e.pencil).r_e < singular_e.pencil.n


def diagonal_quartic():
    """P(lambda) = diag(lambda^4 - 1, lambda^4 - 16, lambda^4 - 81)."""
    n = 3
    zero = np.zeros((n, n))
    return QuarticPencil.from_matrices(np.eye(n), zero, zero, zero, -np.diag([1.0, 16.0, 81.0]))


def left_etas(q, spec, y):
    return np.array([eta(spec.lam[j], y[:, j], q, left=True) for j in range(len(spec))])


class TestRecoverLeft:
    def test_inverse_iteration_from_the_right_vector(self):
        # the left pair of q is the right pair of the conjugate-transposed
        # quartic; the start is q's right vector, perturbed
        rng = np.random.default_rng(9)
        n, lam = 4, 1.5 - 0.5j
        qt, y = quartic_with_eigenpair(rng, n, np.conj(lam))
        q = QuarticPencil.from_matrices(*(m.conj().T for m in qt.coeffs))
        x = unit(eigvec_from_lambda(q, lam) + 1e-6 * rand_complex(rng, (n,)))
        e = from_lambda(lam)
        got = recover_left(q, e.alpha, e.beta, x[:, None])
        assert aligned_distance(got[:, 0], y) <= 1e-12
        assert eta(lam, got[:, 0], q, left=True) <= 1e-15

    def test_exactly_singular_pencil_gives_its_null_vector(self):
        # at the roots 1 and 2, P is exactly singular and the stacked solve
        # fails; the pair at 3 + 1e-9 in the same stack still takes its step
        q = diagonal_quartic()
        e = from_lambda([1.0, 2.0, 3.0 + 1e-9])
        got = recover_left(q, e.alpha, e.beta, np.eye(3, dtype=complex))
        assert np.allclose(np.abs(got), np.eye(3), rtol=0.0, atol=1e-12)
        assert np.array_equal(np.abs(got[:, :2]), np.eye(3)[:, :2])

    def test_pairs_without_a_right_vector_take_singular_vectors(self):
        # the same roots without right vectors; identical pairs at 1 take
        # successive singular vectors, cycling through the one null vector
        q = diagonal_quartic()
        e = from_lambda([2.0, 1.0, 1.0])
        got = recover_left(q, e.alpha, e.beta, np.zeros((3, 3)))
        assert np.array_equal(np.abs(got), np.eye(3)[:, [1, 0, 0]])

    def test_zero_and_infinite_pairs_take_null_vectors_of_e_and_a(self):
        rng = np.random.default_rng(10)
        n = 5
        a, e = rand_complex(rng, (n, n)), rand_complex(rng, (n, n))
        a[:, 0] = 0.0
        e[:, :2] = e[:, 2:4] @ rand_complex(rng, (2, 2))  # rank 3
        q = QuarticPencil.from_matrices(a, *(rand_complex(rng, (n, n)) for _ in range(3)), e)
        x = rand_complex(rng, (n, 4))  # not read for these pairs
        got = recover_left(q, np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0, 0.0]), x)
        assert np.linalg.norm(got.conj().T[:3] @ e) <= 10 * n * EPS * np.linalg.norm(e)
        assert np.linalg.norm(got[:, 3].conj() @ a) <= 10 * n * EPS * np.linalg.norm(a)
        # two null vectors of E, the third pair cycles back to the first
        assert abs(np.vdot(got[:, 0], got[:, 1])) <= 1e-12
        assert np.array_equal(got[:, 2], got[:, 0])

    def test_chunks_do_not_change_the_vectors(self, monkeypatch):
        q = random_regular_quartic(np.random.default_rng(11), 12)
        sol = solve_pencil(q, SolveConfig(scale=False, balance=False, want_left=False)).solution
        assert len(sol) > quarteig.eigvec.LEFT_CHUNK
        whole = recover_left(q, sol.alpha, sol.beta, sol.x)
        monkeypatch.setattr(quarteig.eigvec, "LEFT_CHUNK", 5)
        assert np.allclose(recover_left(q, sol.alpha, sol.beta, sol.x), whole,
                           rtol=0.0, atol=1e-13)
        assert np.max(left_etas(q, sol, whole)) <= 1e-14

    def test_shape_rejected(self):
        q = diagonal_quartic()
        e = from_lambda([1.0, 2.0])
        with pytest.raises(ValueError):
            recover_left(q, e.alpha, e.beta, np.ones((3, 3)))
        with pytest.raises(ValueError):
            recover_left(q, e.alpha, e.beta[:1], np.ones((3, 2)))


class TestRecoverRightLS:
    def test_exact_consistent_system(self):
        rng = np.random.default_rng(10)
        n = 4
        lam = 0.8 + 0.3j
        q, x = quartic_with_eigenpair(rng, n, lam)
        z = build_z(q, lam, x)
        e = from_lambda(lam, n)
        got = recover_right_ls(z[:, None], e.alpha, e.beta, q)[:, 0]
        assert aligned_distance(got, x) <= 1e2 * n * EPS * 10

    def test_batch_solves_each_scaled_stack(self):
        # one batch, each column the least-squares solution of its own stack,
        # scaled by 1/lambda where |lambda| > 1
        rng = np.random.default_rng(13)
        n = 4
        q = random_regular_quartic(rng, n)
        lams = np.array([0.6 - 0.2j, 2.5 + 1.0j, -3.0, 0.3j])
        zs = rand_complex(rng, (4 * n, lams.size))
        eig = from_lambda(lams, n)
        got = recover_right_ls(zs, eig.alpha, eig.beta, q)
        for j, lam in enumerate(lams):
            s = lam if abs(lam) > 1.0 else 1.0
            stack = np.vstack([lam / s * np.eye(n), q.e])
            rhs = np.concatenate([zs[:n, j] / s, -zs[3 * n :, j]])
            want = unit(np.linalg.lstsq(stack, rhs, rcond=None)[0])
            assert aligned_distance(got[:, j], want) <= 1e-12

    def test_zero_e_reduces_to_first_block(self):
        rng = np.random.default_rng(11)
        n = 3
        q = QuarticPencil.from_matrices(
            *(rand_complex(rng, (n, n)) for _ in range(4)), np.zeros((n, n))
        )
        lam = 0.5
        z = unit(np.concatenate([rand_complex(rng, (n,)), np.zeros(3 * n, dtype=complex)]))
        e = from_lambda(lam, n)
        got = recover_right_ls(z[:, None], e.alpha, e.beta, q)[:, 0]
        assert aligned_distance(got, unit(z[:n])) <= 1e-12

    def test_objective_beats_plain_recovery(self):
        rng = np.random.default_rng(12)
        n = 4
        lam = 0.6 - 0.2j  # |lambda| <= 1: the unscaled stack is minimized
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = unit(build_z(q, lam, x) + 1e-6 * rand_complex(rng, (4 * n,)))
        eig = from_lambda(lam, n)
        x_ls = recover_right_ls(z[:, None], eig.alpha, eig.beta, q)[:, 0]
        x_plain, _, _ = recover_one(z, eig, ctx)
        stack = np.vstack([lam * np.eye(n), q.e])
        rhs = np.concatenate([z[:n], -z[3 * n :]])

        def best_scaled_objective(v):
            col = stack @ v
            c = np.vdot(col, rhs) / np.vdot(col, col)
            return np.linalg.norm(c * col - rhs)

        assert best_scaled_objective(x_ls) <= best_scaled_objective(x_plain) * (1 + 1e-10)


class TestLift:
    def test_planted_lift_residuals(self):
        from problems import gen_planted

        q = gen_planted(2, 1, 0, seed=13).pencil
        lin = linearize(q)
        d = deflate(analyze_ranks(q))
        gs = solve_gevp(d.pencil)
        ctx = context(q)
        finite = np.flatnonzero(gs.cls == EIG_FINITE)
        xs = np.zeros((q.n, len(gs)), dtype=complex)
        for i in finite:
            alpha, beta = gs.alpha[i], gs.beta[i]
            z = unit(d.lift(gs.right[:, i]))
            # residual on the full linearization
            res = np.linalg.norm((beta * lin.aa - alpha * lin.bb) @ z)
            scale = abs(alpha) * np.linalg.norm(lin.bb) + beta * np.linalg.norm(lin.aa)
            assert res <= 1e3 * 8 * EPS * scale
            xs[:, i], _, val = recover_one(z, pair(gs, i), ctx)
            assert val <= 1e-10
        ys = recover_left(q, gs.alpha[finite], gs.beta[finite], xs[:, finite])
        for col, i in enumerate(finite):
            assert eta(gs.lam[i], ys[:, col], q, left=True) <= 1e-14


class TestNullspaceVectors:
    def test_exact_zero_columns(self):
        rng = np.random.default_rng(15)
        n = 5
        e = haar_unitary(rng, n)
        e[:, [2, 4]] = 0.0
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), np.eye(n), e)
        rp = analyze_ranks(q)
        x, y = nullspace_vectors(rp, "zero_class", 2)
        assert x.shape == y.shape == (n, 2)
        target = np.zeros((n, 2))
        target[2, 0] = 1.0
        target[4, 1] = 1.0
        assert principal_angle(x, target) <= 1e-12
        assert np.linalg.norm(e @ x) == 0.0

    def test_rank_one_a_nullspace(self):
        rng = np.random.default_rng(16)
        n = 4
        a = np.outer(rand_complex(rng, (n,)), rand_complex(rng, (n,)))
        q = QuarticPencil.from_matrices(
            a, *(rand_complex(rng, (n, n)) for _ in range(4))
        )
        rp = analyze_ranks(q)
        x, y = nullspace_vectors(rp, "inf_class", 3)
        assert x.shape == y.shape == (n, 3)
        assert np.linalg.norm(a @ x) <= 10 * n * EPS * np.linalg.norm(a)
        # compare with the SVD nullspace
        _, _, vh = np.linalg.svd(a)
        assert principal_angle(x, vh[1:].conj().T) <= 1e-12
        assert np.linalg.norm(y.conj().T @ a) <= 10 * n * EPS * np.linalg.norm(a)

    def test_full_rank_empty(self):
        # no pair, no vector; a QR of full rank is cut at n - 1, so every
        # pair of the class takes the direction of the smallest |r_kk|
        rng = np.random.default_rng(17)
        n = 3
        q = random_regular_quartic(rng, n)
        rp = analyze_ranks(q)
        assert rp.r_e == n
        assert all(b.shape == (n, 0) for b in nullspace_vectors(rp, "zero_class", 0))
        x, y = nullspace_vectors(rp, "zero_class", 2)
        assert np.array_equal(x[:, 0], x[:, 1]) and np.array_equal(y[:, 0], y[:, 1])
        r_nn = abs(rp.qr_e.r[-1, -1])
        tol = r_nn * (1 + 10 * n * EPS)
        assert np.linalg.norm(q.e @ x[:, 0]) <= tol
        assert np.linalg.norm(y[:, 0].conj() @ q.e) <= tol

    def test_zero_coefficient_gives_identity(self):
        n = 3
        eye = np.eye(n)
        q = QuarticPencil.from_matrices(eye, eye, eye, eye, np.zeros((n, n)))
        rp = analyze_ranks(q)
        assert rp.r_e == 0
        assert np.array_equal(nullspace_vectors(rp, "zero_class", n)[0], np.eye(n))

    def test_orthonormal(self):
        # nullity 3 and 5 pairs: the last two cycle back to the first two
        rng = np.random.default_rng(18)
        n = 6
        e = rand_complex(rng, (n, n))
        e[:, :3] = 0.0
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), np.eye(n), e)
        rp = analyze_ranks(q)
        for b in nullspace_vectors(rp, "zero_class", 5):
            assert np.linalg.norm(b[:, :3].conj().T @ b[:, :3] - np.eye(3)) <= 10 * n * EPS
            assert np.array_equal(b[:, 3:], b[:, :2])


class TestRoundTripInvariant:
    def test_oracle_eigenpair_roundtrip(self):
        for seed, n in ((19, 2), (20, 4), (21, 6)):
            rng = np.random.default_rng(seed)
            q = random_regular_quartic(rng, n)
            roots, n_inf = quartic_det_roots(q)
            assert n_inf == 0
            lam = roots[np.argmax(np.abs(roots))]
            x = eigvec_from_lambda(q, lam)
            ctx = context(q)
            z = build_z(q, lam, x)
            got, _, val = recover_one(z, from_lambda(lam, n), ctx)
            assert principal_angle(got[:, None], x[:, None]) <= 1e-10

    def test_unit_norm_outputs(self):
        rng = np.random.default_rng(22)
        n = 4
        lam = 1.1 + 0.6j
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = build_z(q, lam, x)
        got, _, _ = recover_one(z, from_lambda(lam, n), ctx)
        assert abs(np.linalg.norm(got) - 1.0) <= 10 * n * EPS


class TestBatchRecovery:
    def test_matches_per_pair_path(self):
        from problems import gen_planted

        b = gen_planted(5, 1, 0, seed=30)
        q = b.pencil
        d = deflate(analyze_ranks(q))
        gs = solve_gevp(d.pencil)
        ctx = context(q)
        finite = np.flatnonzero(gs.cls == EIG_FINITE)
        zs = d.lift(gs.right[:, finite])
        batch = recover_right_many(zs, gs.alpha[finite], gs.beta[finite], ctx)
        for col, i in enumerate(finite):
            x_ref, method_ref, val_ref = recover_one(zs[:, col], pair(gs, i), ctx)
            x, method, _ = batch[col]
            val = eta(gs.lam[i], x, q)
            # candidate etas are roundoff-sized, so near-ties may resolve to a
            # different candidate; the selected quality must agree though
            assert abs(val - val_ref) <= 1e-13 + 0.1 * val_ref
            assert val <= 1e-13
            if method == method_ref:
                assert np.linalg.norm(x - x_ref) <= 1e-10

    def test_fallback_when_all_solvers_fail(self):
        rng = np.random.default_rng(31)
        n = 2
        zero = np.zeros((n, n))
        q = QuarticPencil.from_matrices(
            zero, zero, rand_complex(rng, (n, n)), rand_complex(rng, (n, n)), zero
        )
        ctx = context(q)
        z = unit(rand_complex(rng, (4 * n,)))
        x, method, val = recover_one(z, from_lambda(1.0, n), ctx)
        assert method == "z1"


class TestLeastSquaresPipeline:
    def test_ls_mode_quality_comparable(self):
        from quarteig import SolveConfig, solve_bundle
        from problems import gen_planted

        b = gen_planted(4, 1, 0, seed=33)
        res_min = solve_bundle(b, SolveConfig(eigvec_mode="min_residual"))
        res_ls = solve_bundle(b, SolveConfig(eigvec_mode="least_squares"))
        eta_min = np.nanmax(res_min.solution.eta_right)
        eta_ls = np.nanmax(res_ls.solution.eta_right)
        # both recoveries produce backward errors at roundoff level
        assert eta_min <= 1e-13
        assert eta_ls <= 1e-12
        sol = res_ls.solution
        assert set(sol.methods[sol.cls == EIG_FINITE]) == {"least_squares"}
