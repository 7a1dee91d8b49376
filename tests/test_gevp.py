import numpy as np
import pytest

import quarteig.numkit
from quarteig import SolveConfig, build_report, solve_pencil
from quarteig.errors import GevpError
from quarteig.gevp import solve_gevp
from quarteig.numkit import EPS
from quarteig.pencil import EIG_FINITE, EIG_INFINITE, LinearPencil
from oracles import (
    haar_unitary,
    match_values,
    pencil_det_roots,
    rand_complex,
    random_regular_quartic,
    singular_quartic,
)
from problems import gen_jordan_chain, gen_planted


def force_zggev(monkeypatch):
    """Hide the whole LAPACKE table, so every kernel falls back to scipy.linalg
    and the QZ to scipy.linalg.eig (zggev)."""
    monkeypatch.setattr(quarteig.numkit, "lapack", lambda: None)


@pytest.fixture(params=["zggev3", "zggev"])
def driver(request, monkeypatch):
    """Run the test under each QZ driver; returns the driver's LAPACK name."""
    if request.param == "zggev":
        force_zggev(monkeypatch)
    elif quarteig.numkit.lapack() is None:
        pytest.skip("no loaded OpenBLAS exports LAPACKE_zggev3")
    return request.param


def right_residuals(p, gs):
    na = np.linalg.norm(p.aa, 2)
    nb = np.linalg.norm(p.bb, 2)
    out = []
    for i, (alpha, beta) in enumerate(zip(gs.alpha, gs.beta)):
        v = gs.right[:, i]
        scale = (abs(alpha) * nb + beta * na) * np.linalg.norm(v)
        out.append(np.linalg.norm((beta * p.aa - alpha * p.bb) @ v) / scale)
    return out


class TestSolveGevp:
    def test_identity_pair(self):
        p = LinearPencil(aa=np.eye(3, dtype=complex), bb=np.eye(3, dtype=complex))
        gs = solve_gevp(p)
        assert np.all(np.abs(gs.lam - 1.0) < 1e-14)

    def test_two_by_two_with_infinity(self):
        p = LinearPencil(aa=np.eye(2, dtype=complex), bb=np.diag([1.0, 0.0]).astype(complex))
        gs = solve_gevp(p)
        assert sorted(gs.cls.tolist()) == [EIG_FINITE, EIG_INFINITE]
        assert abs(gs.lam[gs.cls == EIG_FINITE][0] - 1.0) < 1e-14

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(0)
        p = LinearPencil(aa=rand_complex(rng, (8, 8)), bb=haar_unitary(rng, 8))
        gs = solve_gevp(p)
        roots, n_inf = pencil_det_roots(p.aa, p.bb)
        assert n_inf == 0
        match_values(gs.lam, roots, 1e-8)

    def test_residual_bound_right(self):
        rng = np.random.default_rng(1)
        m = 12
        p = LinearPencil(aa=rand_complex(rng, (m, m)), bb=rand_complex(rng, (m, m)))
        gs = solve_gevp(p)
        assert max(right_residuals(p, gs)) <= 1e3 * m * EPS

    def test_unitary_equivalence_invariance(self):
        rng = np.random.default_rng(2)
        m = 6
        aa = rand_complex(rng, (m, m))
        bb = rand_complex(rng, (m, m))
        u = haar_unitary(rng, m)
        v = haar_unitary(rng, m)
        gs1 = solve_gevp(LinearPencil(aa=aa, bb=bb))
        gs2 = solve_gevp(LinearPencil(aa=u @ aa @ v, bb=u @ bb @ v))
        match_values(gs2.lam, gs1.lam, 1e-8)

    def test_right_only_mode(self, monkeypatch):
        # QZ computes right vectors only: zggev3 runs with jobvl = 'N'
        table = quarteig.numkit.lapack()
        jobs = []
        if table is not None:
            zggev3 = table.zggev3
            monkeypatch.setattr(table, "zggev3", lambda *a: jobs.append(a[:2]) or zggev3(*a))
        rng = np.random.default_rng(3)
        p = LinearPencil(aa=rand_complex(rng, (4, 4)), bb=rand_complex(rng, (4, 4)))
        gs = solve_gevp(p)
        assert not hasattr(gs, "left")
        assert gs.right.shape == (4, 4)
        assert jobs == ([] if table is None else [("N", "V")])

    def test_determinism(self):
        rng = np.random.default_rng(4)
        p = LinearPencil(aa=rand_complex(rng, (5, 5)), bb=rand_complex(rng, (5, 5)))
        gs1 = solve_gevp(p)
        gs2 = solve_gevp(p)
        assert np.array_equal(gs1.right, gs2.right)
        assert np.array_equal(gs1.alpha, gs2.alpha)

    def test_nonsquare_rejected(self):
        with pytest.raises(GevpError):
            solve_gevp(LinearPencil(aa=np.zeros((2, 3)), bb=np.zeros((2, 3))))

    def test_backend_id_present(self):
        p = LinearPencil(aa=np.eye(2, dtype=complex), bb=np.eye(2, dtype=complex))
        expect = "zggev" if quarteig.numkit.lapack() is None else "zggev3"
        assert solve_gevp(p).backend_id.split()[0] == f"lapack.{expect}"

    def test_backend_id_names_driver(self, driver):
        p = LinearPencil(aa=np.eye(2, dtype=complex), bb=np.eye(2, dtype=complex))
        assert solve_gevp(p).backend_id.split()[0] == f"lapack.{driver}"

    def test_singular_quartic_undeflated_is_typed_error(self):
        q = singular_quartic(np.random.default_rng(60))
        with pytest.raises(GevpError, match="singular"):
            solve_pencil(q, SolveConfig(deflate=False))

    def test_singular_quartic_undeflated_is_typed_error_per_driver(self, driver):
        q = singular_quartic(np.random.default_rng(60))
        with pytest.raises(GevpError, match="singular"):
            solve_pencil(q, SolveConfig(deflate=False))


class TestDrivers:
    """The blocked multishift zggev3 and scipy's zggev solve the same problems.

    The 4n pencils are at least 75 wide, where zggev3 switches from the
    unblocked reduction and single-shift QZ to the blocked multishift ones.
    """

    CASES = {
        "regular": (lambda: random_regular_quartic(np.random.default_rng(62), 20), True),
        "planted": (lambda: gen_planted(20, 2, 3, seed=63).pencil, False),
        "jordan": (lambda: gen_jordan_chain(24, 3, "zero", seed=64).pencil, True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_eigenvalues_agree(self, case, monkeypatch):
        if quarteig.numkit.lapack() is None:
            pytest.skip("no loaded OpenBLAS exports LAPACKE_zggev3")
        make, deflate = self.CASES[case]
        q = make()
        cfg = SolveConfig(deflate=deflate)
        fast = solve_pencil(q, cfg)
        force_zggev(monkeypatch)
        ref = solve_pencil(q, cfg)
        assert (fast.backend, ref.backend) == ("lapack.zggev3", "lapack.zggev (scipy.linalg.eig)")
        for res in (fast, ref):
            assert len(res.solution) == 4 * q.n
            assert np.max(res.solution.eta_right) <= 1e-12
        assert fast.summary.counts == ref.summary.counts
        finite = [r.solution.lam[r.solution.cls == EIG_FINITE] for r in (fast, ref)]
        match_values(finite[0], finite[1], 1e-10)

    def test_zggev3_info_is_typed_error(self, monkeypatch):
        table = quarteig.numkit.lapack()
        if table is None:
            pytest.skip("no loaded OpenBLAS exports LAPACKE")
        monkeypatch.setattr(table, "zggev3", lambda *args: 1)
        p = LinearPencil(aa=np.eye(3, dtype=complex), bb=np.eye(3, dtype=complex))
        with pytest.raises(GevpError, match="info=1"):
            solve_gevp(p)

    def test_report_names_driver(self, driver):
        rep = build_report(solve_pencil(random_regular_quartic(np.random.default_rng(65), 3)))
        assert rep["meta"]["backend"].split()[0] == f"lapack.{driver}"
