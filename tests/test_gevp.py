import numpy as np
import pytest

from quarteig import solve_gevp
from quarteig.errors import GevpError
from quarteig.numkit import EPS
from quarteig.pencil import EIG_FINITE, EIG_INFINITE, LinearPencil
from oracles import haar_unitary, match_values, pencil_det_roots, rand_complex, singular_quartic


def residuals(p, gs):
    na = np.linalg.norm(p.aa, 2)
    nb = np.linalg.norm(p.bb, 2)
    right, left = [], []
    for i, e in enumerate(gs.eigs):
        v = gs.right[:, i]
        scale = (abs(e.alpha) * nb + e.beta * na) * np.linalg.norm(v)
        right.append(np.linalg.norm((e.beta * p.aa - e.alpha * p.bb) @ v) / scale)
        if gs.left is not None:
            u = gs.left[:, i]
            scale = (abs(e.alpha) * nb + e.beta * na) * np.linalg.norm(u)
            left.append(
                np.linalg.norm(u.conj() @ (e.beta * p.aa - e.alpha * p.bb)) / scale
            )
    return right, left


class TestSolveGevp:
    def test_identity_pair(self):
        p = LinearPencil(aa=np.eye(3, dtype=complex), bb=np.eye(3, dtype=complex))
        gs = solve_gevp(p)
        assert all(abs(e.lam - 1.0) < 1e-14 for e in gs.eigs)

    def test_two_by_two_with_infinity(self):
        p = LinearPencil(aa=np.eye(2, dtype=complex), bb=np.diag([1.0, 0.0]).astype(complex))
        gs = solve_gevp(p)
        classes = sorted(e.cls for e in gs.eigs)
        assert classes == [EIG_FINITE, EIG_INFINITE]
        fin = [e for e in gs.eigs if e.cls == EIG_FINITE][0]
        assert abs(fin.lam - 1.0) < 1e-14

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(0)
        p = LinearPencil(aa=rand_complex(rng, (8, 8)), bb=haar_unitary(rng, 8))
        gs = solve_gevp(p)
        roots, n_inf = pencil_det_roots(p.aa, p.bb)
        assert n_inf == 0
        match_values([e.lam for e in gs.eigs], roots, 1e-8)

    def test_residual_bounds_left_and_right(self):
        rng = np.random.default_rng(1)
        m = 12
        p = LinearPencil(aa=rand_complex(rng, (m, m)), bb=rand_complex(rng, (m, m)))
        gs = solve_gevp(p)
        tol = 1e3 * m * EPS
        right, left = residuals(p, gs)
        assert max(right) <= tol
        assert max(left) <= tol

    def test_unitary_equivalence_invariance(self):
        rng = np.random.default_rng(2)
        m = 6
        aa = rand_complex(rng, (m, m))
        bb = rand_complex(rng, (m, m))
        u = haar_unitary(rng, m)
        v = haar_unitary(rng, m)
        gs1 = solve_gevp(LinearPencil(aa=aa, bb=bb), want_left=False)
        gs2 = solve_gevp(LinearPencil(aa=u @ aa @ v, bb=u @ bb @ v), want_left=False)
        match_values([e.lam for e in gs2.eigs], [e.lam for e in gs1.eigs], 1e-8)

    def test_right_only_mode(self):
        rng = np.random.default_rng(3)
        p = LinearPencil(aa=rand_complex(rng, (4, 4)), bb=rand_complex(rng, (4, 4)))
        gs = solve_gevp(p, want_left=False)
        assert gs.left is None
        assert gs.right.shape == (4, 4)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        p = LinearPencil(aa=rand_complex(rng, (5, 5)), bb=rand_complex(rng, (5, 5)))
        gs1 = solve_gevp(p)
        gs2 = solve_gevp(p)
        assert np.array_equal(gs1.right, gs2.right)
        assert [e.alpha for e in gs1.eigs] == [e.alpha for e in gs2.eigs]

    def test_nonsquare_rejected(self):
        with pytest.raises(GevpError):
            solve_gevp(LinearPencil(aa=np.zeros((2, 3)), bb=np.zeros((2, 3))))

    def test_backend_id_present(self):
        p = LinearPencil(aa=np.eye(2, dtype=complex), bb=np.eye(2, dtype=complex))
        assert "scipy" in solve_gevp(p).backend_id

    def test_singular_quartic_undeflated_is_typed_error(self):
        from quarteig import SolveConfig, solve_pencil

        q = singular_quartic(np.random.default_rng(60))
        with pytest.raises(GevpError, match="singular"):
            solve_pencil(q, SolveConfig(deflate=False))
