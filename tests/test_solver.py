"""Vector handling of the solve pipeline: unit norms, no left vectors in a
right-only solve and one for every pair otherwise, independent left vectors
for repeated eigenvalues, and the linearization built only where read."""

import functools
import warnings

import numpy as np
import pytest
from oracles import haar_unitary, rand_complex, random_regular_quartic

import quarteig.deflate
import quarteig.pencil
import quarteig.solver
from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.pencil import EIG_FINITE, EIG_INFINITE, EIG_ZERO
from problems import gen_jordan_chain, gen_mirror_like, gen_planted

PROBLEMS = {
    "planted": lambda: gen_planted(8, 3, 2, seed=50).pencil,
    "mirror": lambda: gen_mirror_like(2).pencil,
    "jordan": lambda: gen_jordan_chain(5, 3, "zero", seed=51).pencil,
    "regular": lambda: random_regular_quartic(np.random.default_rng(52), 6),
}
CONFIGS = {
    "default": SolveConfig(),
    "right_only": SolveConfig(want_left=False),
    "deflate_off": SolveConfig(deflate=False),
    "no_scaling": SolveConfig(scale=False, balance=False),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_returned_vectors_are_unit(kind, config):
    res = solve_pencil(PROBLEMS[kind](), CONFIGS[config])
    sol = res.solution
    assert sol.has_right.all()
    if CONFIGS[config].want_left:
        assert sol.has_left.any()
    else:  # no pair, deflated or not, gets a left vector
        assert not sol.has_left.any()
    vectors = np.hstack([sol.x[:, sol.has_right], sol.y[:, sol.has_left]])
    assert np.all(np.abs(np.linalg.norm(vectors, axis=0) - 1.0) <= 1e-14)
    assert not sol.y[:, ~sol.has_left].any()
    # the per-pair views read the same arrays
    assert [v is not None for v in sol.left] == sol.has_left.tolist()
    assert all(np.array_equal(v, x) for v, x in zip(sol.right, sol.x.T))


# the recovery labels of each pair: a finite pair's winning candidate (z1 or
# the E solve, which needs E of full rank, so never on planted or mirror-like
# problems), the null space of a zero or infinite pair that QZ found, by
# its class, or the deflated null space
METHODS = {
    "default": {"planted": {"deflated_nullspace", "z1"},
                "mirror": {"deflated_nullspace", "z1"},
                "regular": {"z1", "z4_esolve"}},
    "deflate_off": {"planted": {"inf_class_nullspace", "z1", "zero_class_nullspace"},
                    "mirror": {"inf_class_nullspace", "z1", "zero_class_nullspace"},
                    "regular": {"z1", "z4_esolve"}},
    "right_only": {"planted": {"deflated_nullspace", "z1"},
                   "mirror": {"deflated_nullspace", "z1"},
                   "regular": {"z1", "z4_esolve"}},
    "least_squares": {"planted": {"deflated_nullspace", "least_squares"},
                      "mirror": {"deflated_nullspace", "least_squares"},
                      "regular": {"least_squares"}},
}


@pytest.mark.parametrize("config", sorted(METHODS))
def test_recovery_methods_are_pinned(config):
    cfg = CONFIGS.get(config) or SolveConfig(eigvec_mode=config)
    for kind, expected in METHODS[config].items():
        methods = solve_pencil(PROBLEMS[kind](), cfg).solution.methods
        assert set(methods.tolist()) == expected, kind


def kron_quartic(rotation_seed=None):
    """kron(I2, P5) for a random complex n = 5 quartic P5: every eigenvalue
    is semisimple and double. With a seed, the coefficients are multiplied
    by Haar unitaries U (left) and V (right) drawn from it."""
    rng = np.random.default_rng(1)
    mats = [np.kron(np.eye(2), rand_complex(rng, (5, 5))) for _ in range(5)]
    if rotation_seed is not None:
        rng = np.random.default_rng(rotation_seed)
        u, v = haar_unitary(rng, 10), haar_unitary(rng, 10)
        mats = [u @ m @ v for m in mats]
    return QuarticPencil.from_matrices(*mats)


REPEATED = {
    "kron": kron_quartic,
    # seeds 10 and 11 left twin vectors at 1 - |cos| = 0.037 and 0.019
    # before the twins were orthogonalized
    **{f"kron_rotated_{seed}": functools.partial(kron_quartic, seed) for seed in (2, 10, 11)},
    # (lambda - 1)(lambda - 2)(lambda - 3)(lambda - 4) I5: multiplicity five
    "roots_1234": lambda: QuarticPencil.from_matrices(
        *(c * np.eye(5) for c in (1.0, -10.0, 35.0, -50.0, 24.0))),
}


@pytest.mark.parametrize("kind", sorted(REPEATED))
def test_repeated_eigenvalues_keep_independent_left_vectors(kind):
    sol = solve_pencil(REPEATED[kind]()).solution
    assert (sol.cls == EIG_FINITE).all() and sol.has_left.all()
    assert np.max(sol.eta_left) <= 1e-14
    lam = sol.lam
    twins = np.abs(lam[:, None] - lam[None, :]) <= 1e-6 * np.abs(lam)[:, None]
    np.fill_diagonal(twins, False)
    assert twins.any()
    assert np.min(1.0 - np.abs(sol.y.conj().T @ sol.y)[twins]) >= 0.05


def test_defective_eigenvalue_keeps_its_left_vector():
    # P = U (lambda I - J)(lambda^3 I + lambda^2 R2 + lambda R1 + R0) V with a
    # Jordan block at 2 of coupling 1e-3 in J: QZ splits the eigenvalue 2 by
    # about 3e-9, well within the twin distance, but it has one left vector,
    # so orthogonalizing the second would leave no eigenvector
    rng = np.random.default_rng(5)
    n = 4
    jordan = np.diag([2.0, 2.0, -1.0, 0.5]).astype(complex)
    jordan[0, 1] = 1e-3
    r2, r1, r0 = (rand_complex(rng, (n, n)) for _ in range(3))
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    factors = [np.eye(n), r2 - jordan, r1 - jordan @ r2, r0 - jordan @ r1, -jordan @ r0]
    sol = solve_pencil(QuarticPencil.from_matrices(*(u @ c @ v for c in factors))).solution
    twins = np.flatnonzero(np.abs(sol.lam - 2.0) <= 1e-6)
    assert twins.size == 2 and sol.has_left[twins].all()
    assert np.max(sol.eta_left[twins]) <= 1e-14
    assert 1.0 - abs(np.vdot(*sol.y[:, twins].T)) <= 1e-8


def test_undeflated_zero_and_infinite_pairs_get_independent_left_vectors():
    sol = solve_pencil(PROBLEMS["planted"](), CONFIGS["deflate_off"]).solution
    for cls, count in ((EIG_ZERO, 3), (EIG_INFINITE, 2)):
        idx = np.flatnonzero(sol.cls == cls)
        assert idx.size == count and sol.has_left[idx].all()
        assert np.max(sol.eta_left[idx]) <= 1e-14
        assert np.linalg.svd(sol.y[:, idx], compute_uv=False).min() >= 0.5


def test_undeflated_zero_and_infinite_pairs_take_the_null_basis():
    # with B and D large, the first block of QZ's vectors of lambda = 0 and
    # infinity is small against the rest and loses its accuracy; the null
    # bases of E and A keep it, and only finite pairs are flagged
    q = gen_planted(8, 2, 3, seed=1).pencil
    res = solve_pencil(QuarticPencil(q.a, 1e4 * q.b, q.c, 1e4 * q.d, q.e), CONFIGS["deflate_off"])
    sol = res.solution
    zero_inf = np.flatnonzero(sol.cls != EIG_FINITE)
    assert zero_inf.size == 5 and sol.has_right[zero_inf].all()
    assert np.max(sol.eta_right[zero_inf]) <= 1e-15
    above = [int(f.rsplit("_", 1)[1]) for f in res.flags if f.startswith("backward_error_above")]
    assert above and np.all(sol.cls[above] == EIG_FINITE)


@pytest.mark.parametrize("seed", range(4))
def test_zero_pair_of_a_full_rank_e(seed):
    # E of full rank to the QR but sigma_min = 1e-12: QZ finds lambda = 0,
    # whose vectors come from the QR cut at rank n - 1
    rng = np.random.default_rng(seed)
    n = 6
    a, b, c, d, e = (rand_complex(rng, (n, n)) for _ in range(5))
    u, sig, vh = np.linalg.svd(e)
    sig[-1] = 1e-12
    q = QuarticPencil.from_matrices(a, b, c, 1e4 * d, (u * sig) @ vh)
    assert quarteig.deflate.analyze_ranks(q).r_e == n
    sol = solve_pencil(q, SolveConfig(scale=False, balance=False)).solution
    zero = np.flatnonzero(sol.cls == EIG_ZERO)
    assert zero.size == 1 and sol.has_right[zero].all() and sol.has_left[zero].all()
    assert np.max(sol.eta_right[zero]) <= 1e-11 and np.max(sol.eta_left[zero]) <= 1e-11


@pytest.mark.parametrize("config", ["default", "no_scaling"])
def test_non_finite_coefficient_is_named(config):
    # the plain constructor scans no entries: the solve rejects them first
    coeffs = [(k + 1) * np.eye(3, dtype=complex) for k in range(5)]
    coeffs[2][0, 1] = np.nan
    with pytest.raises(ValueError, match="coefficient c contains NaN or Inf"):
        solve_pencil(QuarticPencil(*coeffs), CONFIGS[config])


@pytest.mark.parametrize("kind, config, built", [
    ("planted", "default", 0),  # deflation builds its images from the coefficients
    ("regular", "default", 1),  # nothing to deflate: the pencil goes to QZ
    ("planted", "deflate_off", 1),
])
def test_linearization_built_only_where_read(kind, config, built, monkeypatch):
    calls = []

    def counted(q):
        calls.append(q.n)
        return quarteig.pencil.linearize(q)

    for module in (quarteig.solver, quarteig.deflate):
        monkeypatch.setattr(module, "linearize", counted, raising=False)
    res = solve_pencil(PROBLEMS[kind](), CONFIGS[config])
    assert len(calls) == built
    assert len(res.solution) == 4 * res.n


def test_huge_coefficients_solve_without_warning():
    # entries near 1e300 raise no overflow warning anywhere in the solve.
    # Unequilibrated, the coefficients are still brought to unit size by a
    # power of two, so QZ finds no infinite pair besides the 3 deflated
    # ones, and every pair gets a left vector
    q = gen_planted(8, 2, 3, seed=1).pencil
    huge = QuarticPencil(*(1e300 * c for c in q.coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_pencil(huge, SolveConfig(scale=False, balance=False))
    sol = res.solution
    assert len(sol) == 4 * q.n
    assert np.sum((sol.cls == EIG_INFINITE) & (sol.methods != "deflated_nullspace")) == 0
    assert res.summary.counts == {"zero": 2, "finite": 27, "infinite": 3}
    assert not res.flags
    assert sol.has_left.all() and np.isfinite(sol.eta_left).all()


def random_quartic(seed, n=8):
    """Five independent random complex n x n coefficients."""
    rng = np.random.default_rng(seed)
    return QuarticPencil.from_matrices(*(rand_complex(rng, (n, n)) for _ in range(5)))


DUALITY_PROBLEMS = {
    **{f"random_{s}": functools.partial(random_quartic, s) for s in range(1, 21)},
    **{f"planted_{s}": lambda s=s: gen_planted(10, 2, 2, seed=s).pencil for s in (1, 2)},
    **{f"mirror_{s}": lambda s=s: gen_mirror_like(s, n=12).pencil for s in (1, 2)},
    # only A singular: both P and P^T deflate A's chain as infinite blocks
    "only_a_6": lambda: gen_planted(6, 0, 2, seed=21).pencil,
    "only_a_8": lambda: gen_planted(8, 0, 3, seed=4).pencil,
}


@pytest.mark.parametrize("kind", sorted(DUALITY_PROBLEMS))
def test_left_vectors_are_right_vectors_of_the_transpose(kind):
    # y* P(lambda) = 0 exactly when P(lambda)^T conj(y) = 0: every finite
    # left vector of P is, up to phase, the conjugated right vector of P^T
    # at the nearest eigenvalue
    q = DUALITY_PROBLEMS[kind]()
    res = solve_pencil(q)
    res_t = solve_pencil(QuarticPencil(*(c.T for c in q.coeffs)))
    sol, sol_t = res.solution, res_t.solution
    fin, fin_t = (np.flatnonzero(s.cls == EIG_FINITE) for s in (sol, sol_t))
    assert fin.size == fin_t.size > 0 and sol.has_left[fin].all()
    near = fin_t[np.argmin(np.abs(sol.lam[fin, None] - sol_t.lam[None, fin_t]), axis=1)]
    assert np.unique(near).size == fin.size
    overlap = np.abs(np.sum(sol.y[:, fin] * sol_t.x[:, near], axis=0))
    assert np.max(1.0 - overlap) <= 1e-12
