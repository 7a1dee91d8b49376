import numpy as np
import pytest

from quarteig import QuarticPencil
from quarteig.deflate import analyze_ranks, deflate, second_level
from quarteig.eigvec import (
    build_context,
    lift_left,
    nullspace_vectors,
    recover_left,
    recover_right_many,
    recover_right_ls,
    recover_right_zero,
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
    """The recovery context as the solver builds it, on the rank profile of q."""
    return build_context(analyze_ranks(q))


def build_z(q, lam, x):
    """Right linearization eigenvector from the block display."""
    shift = lam * q.a + q.b
    z = np.concatenate([lam * x, lam**2 * (shift @ x), lam * (shift @ x), -(q.e @ x)])
    return z / np.linalg.norm(z)


def build_w(lam, y):
    w = np.concatenate([lam**3 * y, lam**2 * y, lam * y, y])
    return w / np.linalg.norm(w)


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
        # the second has only A singular and is solved reversed, whose E is A
        for b, config in ((singular_e, SolveConfig()), (singular_e, SolveConfig(deflate=False)),
                          (gen_planted(5, 0, 2, seed=35), SolveConfig())):
            res = solve_bundle(b, config)
            assert res.solution.has_right.all()
            assert "z4_esolve" not in res.solution.methods
        assert context(singular_e.pencil).qr_e is None


class TestRecoverRightZero:
    def test_exact_block_structure(self):
        rng = np.random.default_rng(4)
        n = 4
        q = random_regular_quartic(rng, n)
        x = unit(rand_complex(rng, (n,)))
        z = np.concatenate([x, np.zeros(n, dtype=complex), q.b @ x, q.d @ x])
        got, ok = recover_right_zero(z[:, None], q)
        assert ok.tolist() == [True]
        assert aligned_distance(got[:, 0], x) <= 1e-13

    def test_null_vector_residual(self):
        rng = np.random.default_rng(5)
        n = 4
        e = rand_complex(rng, (n, n))
        e[:, 2] = 0.0
        q = QuarticPencil.from_matrices(
            *(rand_complex(rng, (n, n)) for _ in range(4)), e
        )
        x = np.zeros(n, dtype=complex)
        x[2] = 1.0
        z = np.concatenate([x, np.zeros(n, dtype=complex), q.b @ x, q.d @ x])
        got, _ = recover_right_zero(z[:, None], q)
        val = eta(0.0, got[:, 0], q)
        assert val <= 10 * n * EPS

    def test_degenerate_flagged(self):
        rng = np.random.default_rng(6)
        q = random_regular_quartic(rng, 3)
        z = np.concatenate([np.zeros(3, dtype=complex), rand_complex(rng, (9,))])
        zs = np.column_stack([z, rand_complex(rng, (12,))])
        got, ok = recover_right_zero(zs, q)
        assert ok.tolist() == [False, True]
        assert np.array_equal(got[:, 0], np.zeros(3))
        with pytest.raises(ValueError):
            recover_right_zero(zs[:11], q)


def recover_left_one(w):
    """recover_left on a one-column batch."""
    ys, ok = recover_left(np.asarray(w)[:, None])
    assert ok[0]
    return ys[:, 0]


class TestRecoverLeft:
    def test_exact_blocks(self):
        rng = np.random.default_rng(7)
        y = unit(rand_complex(rng, (4,)))
        w = build_w(2.0, y)
        got = recover_left_one(w)
        assert aligned_distance(got, y) <= 1e-13

    def test_lambda_one_any_block(self):
        rng = np.random.default_rng(8)
        y = unit(rand_complex(rng, (3,)))
        w = build_w(1.0, y)
        got = recover_left_one(w)
        assert aligned_distance(got, y) <= 1e-13

    def test_noisy_choice_near_best(self):
        rng = np.random.default_rng(9)
        n = 4
        lam = 3.0
        q, x = quartic_with_eigenpair(rng, n, lam)
        # left eigenpair of the same problem: modify instead a row so that
        # y* P(lam) = 0 exactly; easiest is to use the transposed problem
        qt = QuarticPencil.from_matrices(*(m.conj().T for m in q.coeffs))
        y = x  # (lam, x) right pair of q^T  =>  left pair of q with y = conj..
        # build from the left display directly
        w = build_w(lam, y)
        w = unit(w + 1e-8 * rand_complex(rng, (4 * n,)))
        got = recover_left_one(w)
        # returned residual no worse than the best single block's, up to slack
        blocks = [w[:n], w[n : 2 * n], w[2 * n : 3 * n], w[3 * n :]]
        vals = [eta(lam, unit(b), qt, left=True) for b in blocks]
        got_val = eta(lam, got, qt, left=True)
        assert got_val <= min(vals) * (1 + 1e-6)

    def test_all_zero_rejected(self):
        rng = np.random.default_rng(10)
        ws = np.zeros((8, 3), dtype=complex)
        ws[:, 0] = build_w(2.0, unit(rand_complex(rng, (2,))))
        ws[:, 2] = build_w(0.5, unit(rand_complex(rng, (2,))))
        ys, ok = recover_left(ws)
        assert ok.tolist() == [True, False, True]
        assert np.array_equal(ys[:, 1], np.zeros(2))
        # the batch picks each column's block as a one-column call does
        for j in (0, 2):
            assert np.array_equal(ys[:, j], recover_left_one(ws[:, j]))

    def test_per_column_block_choice(self):
        rng = np.random.default_rng(11)
        n = 3
        lams = [4.0, 0.25, 1.0 + 1.0j, -0.1]
        ys = [unit(rand_complex(rng, (n,))) for _ in lams]
        ws = np.column_stack([build_w(lam, y) for lam, y in zip(lams, ys)])
        got, ok = recover_left(ws)
        assert ok.all()
        for j, y in enumerate(ys):
            assert aligned_distance(got[:, j], y) <= 1e-13

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            recover_left(np.ones((7, 2)))


class TestRecoverRightLS:
    def test_exact_consistent_system(self):
        rng = np.random.default_rng(10)
        n = 4
        lam = 0.8 + 0.3j
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = build_z(q, lam, x)
        e = from_lambda(lam, n)
        got = recover_right_ls(z[:, None], e.alpha, e.beta, ctx)[:, 0]
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
        got = recover_right_ls(zs, eig.alpha, eig.beta, context(q))
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
        ctx = context(q)
        lam = 0.5
        z = unit(np.concatenate([rand_complex(rng, (n,)), np.zeros(3 * n, dtype=complex)]))
        e = from_lambda(lam, n)
        got = recover_right_ls(z[:, None], e.alpha, e.beta, ctx)[:, 0]
        assert aligned_distance(got, unit(z[:n])) <= 1e-12

    def test_objective_beats_plain_recovery(self):
        rng = np.random.default_rng(12)
        n = 4
        lam = 0.6 - 0.2j  # |lambda| <= 1: the unscaled stack is minimized
        q, x = quartic_with_eigenpair(rng, n, lam)
        ctx = context(q)
        z = unit(build_z(q, lam, x) + 1e-6 * rand_complex(rng, (4 * n,)))
        eig = from_lambda(lam, n)
        x_ls = recover_right_ls(z[:, None], eig.alpha, eig.beta, ctx)[:, 0]
        x_plain, _, _ = recover_one(z, eig, ctx)
        stack = np.vstack([lam * np.eye(n), q.e])
        rhs = np.concatenate([z[:n], -z[3 * n :]])

        def best_scaled_objective(v):
            col = stack @ v
            c = np.vdot(col, rhs) / np.vdot(col, col)
            return np.linalg.norm(c * col - rhs)

        assert best_scaled_objective(x_ls) <= best_scaled_objective(x_plain) * (1 + 1e-10)


class TestLift:
    def _planted(self, seed=13):
        from problems import gen_planted

        b = gen_planted(2, 1, 0, seed=seed)
        q = b.pencil
        lin = linearize(q)
        d = deflate(analyze_ranks(q))
        return q, lin, d

    def test_no_deflation_is_plain_q(self):
        rng = np.random.default_rng(14)
        q = random_regular_quartic(rng, 3)
        d = deflate(analyze_ranks(q))
        assert d.size == 12
        assert np.array_equal(d.q, np.eye(12))
        w_til = rand_complex(rng, (12, 2))
        e = from_lambda([0.5, 2.0])
        w, ok = lift_left(w_til, e.alpha, e.beta, d)
        assert ok.all()
        ref = d.p.conj().T @ w_til
        assert np.linalg.norm(w - ref / np.linalg.norm(ref, axis=0)) <= 1e-13

    def test_planted_lift_residuals(self):
        q, lin, d = self._planted()
        gs = solve_gevp(d.pencil)
        ctx = context(q)
        finite = np.flatnonzero(gs.cls == EIG_FINITE)
        ws, ok = lift_left(gs.left[:, finite], gs.alpha[finite], gs.beta[finite], d)
        assert ok.all()
        ys, ok = recover_left(ws)
        assert ok.all()
        for col, i in enumerate(finite):
            alpha, beta = gs.alpha[i], gs.beta[i]
            z = unit(d.q[:, : d.size] @ gs.right[:, i])
            # residual on the full linearization
            res = np.linalg.norm((beta * lin.aa - alpha * lin.bb) @ z)
            scale = abs(alpha) * np.linalg.norm(lin.bb) + beta * np.linalg.norm(lin.aa)
            assert res <= 1e3 * 8 * EPS * scale
            x, _, val = recover_one(z, pair(gs, i), ctx)
            assert val <= 1e-10
            res_l = np.linalg.norm(ws[:, col].conj() @ (beta * lin.aa - alpha * lin.bb))
            assert res_l <= 1e3 * 8 * EPS * scale
            assert eta(gs.lam[i], ys[:, col], q, left=True) <= 1e-10

    def test_padding_length(self):
        q, lin, d = self._planted()
        e = from_lambda(1.0)
        w, ok = lift_left(np.ones((d.size, 1), dtype=complex), e.alpha, e.beta, d)
        assert w.shape == (8, 1) and ok[0]
        with pytest.raises(ValueError):
            lift_left(np.ones((d.size + 1, 1)), e.alpha, e.beta, d)
        with pytest.raises(ValueError):
            lift_left(np.ones((d.size, 2)), e.alpha, e.beta, d)

    def test_zero_left_vector_rejected(self):
        q, lin, d = self._planted()
        w_til = np.zeros((d.size, 2), dtype=complex)
        w_til[:, 1] = 1.0
        e = from_lambda([1.0, 1.0])
        w, ok = lift_left(w_til, e.alpha, e.beta, d)
        assert ok.tolist() == [False, True]
        assert np.array_equal(w[:, 0], np.zeros(d.full_size))

    @pytest.mark.parametrize("kind", ["planted", "mirror", "mirror_wide", "jordan"])
    def test_matches_dense_coupling_solve(self, kind):
        from problems import gen_jordan_chain, gen_mirror_like, gen_planted

        b = {
            "planted": lambda: gen_planted(6, 2, 1, seed=40),
            "mirror": lambda: gen_mirror_like(1),
            "mirror_wide": lambda: gen_mirror_like(2, n=9, rank=1, second_level_zeros=3),
            "jordan": lambda: gen_jordan_chain(5, 3, "zero", seed=51),
        }[kind]()
        q = b.pencil
        rp = analyze_ranks(q)
        d = deflate(rp, second_level(rp))
        m = d.size
        assert m < d.full_size
        blocks = [s for s in d.steps if s.deflated]
        if kind != "planted":  # staircases of four blocks, zero and infinite
            assert len(blocks) == 4
            assert any(s.zeros for s in blocks) and any(s.infs for s in blocks)
        gs = solve_gevp(d.pencil)
        finite = np.flatnonzero(gs.cls == EIG_FINITE)
        assert finite.size
        ws, ok = lift_left(gs.left[:, finite], gs.alpha[finite], gs.beta[finite], d)
        assert ok.all()
        for col, i in enumerate(finite):
            w_til = gs.left[:, i]
            alpha, beta = gs.alpha[i], gs.beta[i]
            x = beta * d.work_a[:m, m:] - alpha * d.work_b[:m, m:]
            y = beta * d.work_a[m:, m:] - alpha * d.work_b[m:, m:]
            w2 = np.linalg.solve(y.conj().T, -x.conj().T @ w_til)
            ref = unit(d.p.conj().T @ np.concatenate([w_til, w2]))
            assert np.linalg.norm(ws[:, col] - ref) <= 1e-10 * np.linalg.norm(ref)
            # the block substitution repeats the dense per-pair solve
            assert np.linalg.norm(ws[:, col] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_shift_masked_on_its_block(self):
        # alpha = 0 makes the zero-step blocks -alpha*Wb_ii singular, and
        # beta = 0 the infinite-step blocks beta*Wa_ii
        from problems import gen_mirror_like

        q = gen_mirror_like(1).pencil
        rp = analyze_ranks(q)
        d = deflate(rp, second_level(rp))
        rng = np.random.default_rng(41)
        e = from_lambda([0.5, 0.0, np.inf, 2.0])
        w, ok = lift_left(rand_complex(rng, (d.size, 4)), e.alpha, e.beta, d)
        assert ok.tolist() == [True, False, False, True]
        assert np.array_equal(w[:, 1:3], np.zeros((d.full_size, 2)))

    def test_singular_trailing_pencil_masked(self):
        import dataclasses

        from quarteig.solver import _lift_all

        q, lin, d = self._planted()
        m = d.size
        wa = d.work_a.copy()
        wb = d.work_b.copy()
        # a shared zero column makes beta*Wa22 - alpha*Wb22 exactly singular
        wa[m:, m] = 0.0
        wb[m:, m] = 0.0
        broken = dataclasses.replace(d, work_a=wa, work_b=wb)
        gs = solve_gevp(d.pencil)
        finite = np.flatnonzero(gs.cls == EIG_FINITE)
        _, ok = lift_left(gs.left[:, finite], gs.alpha[finite], gs.beta[finite], broken)
        assert not ok.any()
        flags = []
        _, wfull, lifted = _lift_all(gs, broken, flags)
        assert flags == [f"lift_left_failed_index_{i}" for i in finite]
        assert not lifted.any()
        assert np.array_equal(wfull, np.zeros_like(wfull))


class TestNullspaceVectors:
    def test_exact_zero_columns(self):
        rng = np.random.default_rng(15)
        n = 5
        e = haar_unitary(rng, n)
        e[:, [2, 4]] = 0.0
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), np.eye(n), e)
        rp = analyze_ranks(q)
        basis = nullspace_vectors(rp, "zero_class", "right")
        assert basis.shape == (n, 2)
        target = np.zeros((n, 2))
        target[2, 0] = 1.0
        target[4, 1] = 1.0
        assert principal_angle(basis, target) <= 1e-12
        assert np.linalg.norm(e @ basis) == 0.0

    def test_rank_one_a_nullspace(self):
        rng = np.random.default_rng(16)
        n = 4
        a = np.outer(rand_complex(rng, (n,)), rand_complex(rng, (n,)))
        q = QuarticPencil.from_matrices(
            a, *(rand_complex(rng, (n, n)) for _ in range(4))
        )
        rp = analyze_ranks(q)
        basis = nullspace_vectors(rp, "inf_class", "right")
        assert basis.shape == (n, 3)
        assert np.linalg.norm(a @ basis) <= 10 * n * EPS * np.linalg.norm(a)
        # compare with the SVD nullspace
        _, _, vh = np.linalg.svd(a)
        assert principal_angle(basis, vh[1:].conj().T) <= 1e-12
        left = nullspace_vectors(rp, "inf_class", "left")
        assert np.linalg.norm(left.conj().T @ a) <= 10 * n * EPS * np.linalg.norm(a)

    def test_full_rank_empty(self):
        rng = np.random.default_rng(17)
        q = random_regular_quartic(rng, 3)
        rp = analyze_ranks(q)
        assert nullspace_vectors(rp, "zero_class").shape == (3, 0)

    def test_zero_coefficient_gives_identity(self):
        n = 3
        eye = np.eye(n)
        q = QuarticPencil.from_matrices(eye, eye, eye, eye, np.zeros((n, n)))
        rp = analyze_ranks(q)
        assert rp.r_e == 0
        assert np.array_equal(nullspace_vectors(rp, "zero_class"), np.eye(n))

    def test_orthonormal(self):
        rng = np.random.default_rng(18)
        n = 6
        e = rand_complex(rng, (n, n))
        e[:, :3] = 0.0
        q = QuarticPencil.from_matrices(np.eye(n), np.eye(n), np.eye(n), np.eye(n), e)
        rp = analyze_ranks(q)
        for side in ("right", "left"):
            b = nullspace_vectors(rp, "zero_class", side)
            assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= 10 * n * EPS


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
        zs = d.q[:, : d.size] @ gs.right[:, finite]
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
