"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. NLEVP exports are looked up under ``data/nlevp/<name>``;
when absent (they are not shipped), the documented synthetic stand-ins are
used instead: criterion 1 falls back to the structurally equivalent
mirror-like generator, criterion 2 to seeded random well-conditioned
problems of the benchmark sizes (n = 64 and 129).
"""

import os
import time

import numpy as np
import scipy.linalg as sla

import quarteig as qe
from quarteig.numkit import EPS
from quarteig.pencil import EIG_FINITE, EIG_INFINITE, EIG_ZERO, linearize, reverse
from oracles import classify_dense, min_pairwise_gap, random_regular_quartic

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "nlevp")

# runs accumulated by criteria 1-4 and 6 feed the residual re-checks of
# criterion 5; planted instances are shared between criteria 4 and 7
RUNS = []
PLANTED = []


def _solve(bundle, config=None, label=None):
    res = qe.solve_bundle(bundle, config or qe.SolveConfig())
    RUNS.append((label or bundle.name, bundle, res))
    return res


def _nlevp_bundle(name):
    path = os.path.join(DATA_DIR, name)
    if os.path.isdir(path):
        return qe.read_bundle(path)
    return None


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail})")


def _greedy_match_worst(got, ref, key=None):
    """Greedy nearest-matching; returns the worst relative distance."""
    rem = list(ref)
    worst = 0.0
    for g in got:
        dists = [abs(g - r) / max(1.0, abs(r)) for r in rem]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        rem.pop(j)
    return worst


def test_criterion_1_mirror_structure():
    t0 = time.perf_counter()
    bundle = _nlevp_bundle("mirror") or qe.gen_mirror_like(seed=0)
    res = _solve(bundle)
    elapsed = time.perf_counter() - t0
    d = res.deflation
    assert d.zeros_deflated == 9, f"expected 9 deflated zeros, got {d.zeros_deflated}"
    assert d.infs_deflated == 9, f"expected 9 deflated infinities, got {d.infs_deflated}"
    # eigenvalue conservation against the dense generalized eigensolve, in
    # the chordal metric (which pairs deflated 0/inf with the oracle's
    # near-0/near-inf values)
    lin = linearize(bundle.pencil)
    alphas, betas = sla.eig(lin.aa, lin.bb, right=False, homogeneous_eigvals=True)
    ref = []
    for i in range(lin.size):
        s = np.hypot(abs(alphas[i]), abs(betas[i]))
        ref.append((alphas[i] / s, betas[i] / s))
    got = [(e.alpha, e.beta) for e in res.solution.eigs]

    rem = list(ref)
    worst = 0.0
    for g in got:
        dists = [abs(g[0] * r[1] - r[0] * g[1]) for r in rem]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        rem.pop(j)
    assert worst <= 1e-6, f"chordal mismatch {worst:.3e}"
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    _report(1, "mirror structure recovery", f"9+9 deflated, chordal {worst:.1e}, {elapsed:.2f}s")


def test_criterion_2_backward_error_magnitude():
    details = []
    for name, n, seed in (("butterfly", 64, 20001), ("planar_waveguide", 129, 20002)):
        bundle = _nlevp_bundle(name)
        if bundle is None:
            bundle = qe.gen_planted(n, 0, 0, seed=seed)
            bundle.name = f"standin_{name}"
        assert bundle.pencil.n <= 129
        t0 = time.perf_counter()
        res = _solve(bundle, qe.SolveConfig(want_left=False))
        elapsed = time.perf_counter() - t0
        etas = [dg.eta_right for dg in res.solution.diags if dg.eta_right is not None]
        assert etas, "no right eigenpairs produced"
        assert max(etas) <= 1e-13, f"{bundle.name}: max eta {max(etas):.3e} > 1e-13"
        assert elapsed < 10.0, f"{bundle.name} took {elapsed:.2f}s (budget 10s)"
        details.append(f"{bundle.name}: max eta {max(etas):.1e} in {elapsed:.1f}s")
    _report(2, "backward-error magnitude", "; ".join(details))


def test_criterion_3_oracle_spectral_equivalence():
    t0 = time.perf_counter()
    done = 0
    seed = 30000
    worst = 0.0
    while done < 50:
        seed += 1
        rng = np.random.default_rng(seed)
        n = 2 + done % 7  # cycles through 2..8
        q = random_regular_quartic(rng, n)
        lin = linearize(q)
        ref = classify_dense(lin.aa, lin.bb)
        ref_lams = [e.lam for e in ref if e.cls == EIG_FINITE]
        if len(ref_lams) != 4 * n or min_pairwise_gap(ref_lams) < 1e-4:
            continue  # well-separated instances only
        res = _solve(qe.ProblemBundle(name=f"c3_{seed}", pencil=q))
        counts = res.summary.counts
        assert counts[EIG_FINITE] == 4 * n
        assert counts[EIG_ZERO] == 0 and counts[EIG_INFINITE] == 0
        got = [e.lam for e in res.solution.eigs]
        worst = max(worst, _greedy_match_worst(got, ref_lams))
        assert worst <= 1e-8, f"seed {seed}: worst mismatch {worst:.3e}"
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s (budget 30s)"
    _report(3, "oracle spectral equivalence", f"50 instances, worst {worst:.1e}, {elapsed:.1f}s")


def test_criterion_4_planted_deflation_counts():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(40001, 40031):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        k_e = int(rng.integers(0, 4))
        k_a = int(rng.integers(0, 4))
        bundle = qe.gen_planted(n, k_e, k_a, seed=seed)
        res = _solve(bundle)
        d = res.deflation
        assert d.zeros_deflated >= k_e, (seed, n, k_e, d.zeros_deflated)
        assert d.infs_deflated >= k_a, (seed, n, k_a, d.infs_deflated)
        assert len(res.solution.eigs) == 4 * n
        PLANTED.append((bundle, d))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s (budget 10s)"
    _report(4, "planted deflation counts", f"{checked} instances, {elapsed:.1f}s")


def test_criterion_5_residual_property_suite():
    if not RUNS:  # criterion run in isolation: give it something to check
        _solve(qe.gen_mirror_like(seed=0))

    def independent_eta(eig, x, q, norms):
        # straight from the definition; shares no code with the package path.
        # The residual is formed in extended precision: at eta near 1e-17 a
        # float64 residual carries rounding errors larger than the value.
        ext = np.clongdouble
        nx = np.linalg.norm(x)
        xe = x.astype(ext)
        if eig.cls == EIG_INFINITE:
            return float(np.linalg.norm(q.a.astype(ext) @ xe)) / (norms[0] * nx)
        lam = ext(eig.lam)
        p = sum(lam ** (4 - k) * m.astype(ext) for k, m in enumerate(q.coeffs))
        den = sum(abs(eig.lam) ** (4 - k) * norms[k] for k in range(5)) * nx
        return float(np.linalg.norm(p @ xe)) / den

    pairs_checked = 0
    for label, bundle, res in RUNS:
        q0 = bundle.pencil
        norms = [np.linalg.norm(m, 2) for m in q0.coeffs]
        for eig, x, dg in zip(res.solution.eigs, res.solution.right, res.solution.diags):
            if x is None or dg.eta_right is None:
                continue
            assert abs(np.linalg.norm(x) - 1.0) <= 10 * res.n * EPS, label
            indep = independent_eta(eig, x, q0, norms)
            reported = dg.eta_right
            floor = 1e-17
            assert indep <= 2 * reported + floor, (label, indep, reported)
            assert reported <= 2 * indep + floor, (label, indep, reported)
            pairs_checked += 1
        d = res.deflation
        if d is not None:
            m = d.p.shape[0]
            tol = 1e2 * m * EPS
            assert np.linalg.norm(d.p.conj().T @ d.p - np.eye(m)) <= tol, label
            assert np.linalg.norm(d.q.conj().T @ d.q - np.eye(m)) <= tol, label
    assert pairs_checked > 0
    _report(
        5,
        "residual property suite",
        f"{pairs_checked} eigenpairs recomputed across {len(RUNS)} runs",
    )


def test_criterion_6_scaling_balancing_invariance():
    t0 = time.perf_counter()
    # (a) eigenvalue multisets agree across the four on/off configurations
    worst = 0.0
    compared = 0
    for seed in range(60001, 60021):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        q = random_regular_quartic(rng, n)
        variants = []
        for scale in (True, False):
            for balance in (True, False):
                res = qe.solve_pencil(
                    q, qe.SolveConfig(scale=scale, balance=balance, want_left=False)
                )
                variants.append([e.lam for e in res.solution.eigs])
        if min_pairwise_gap(variants[0]) < 1e-4:
            continue  # well-separated eigenvalues only
        for other in variants[1:]:
            worst = max(worst, _greedy_match_worst(other, variants[0]))
        compared += 1
        assert worst <= 1e-6, f"seed {seed}: configs disagree by {worst:.3e}"
    assert compared >= 15  # the gap filter may drop a few instances
    # (b) graded instance: balancing must improve the component-wise error
    graded = qe.grade_rows(qe.gen_planted(32, 0, 0, seed=77), seed=78)
    res_on = _solve(graded, qe.SolveConfig(balance=True), label="graded_balanced")
    res_off = qe.solve_bundle(graded, qe.SolveConfig(balance=False))
    om_on = np.median([d.omega_right for d in res_on.solution.diags if d.omega_right is not None])
    om_off = np.median([d.omega_right for d in res_off.solution.diags if d.omega_right is not None])
    improvement = om_off / om_on
    assert improvement >= 1e2, f"median omega improvement {improvement:.1f} < 100"
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "scaling/balancing invariance",
        f"{compared} instances agree to {worst:.1e}; "
        f"graded omega improvement {improvement:.0f}x; {elapsed:.1f}s",
    )


def test_criterion_7_reversal_duality():
    if not PLANTED:  # the criterion-4 instances are the test set
        test_criterion_4_planted_deflation_counts()
    checked = 0
    for bundle, d_fwd in PLANTED:
        # through the solver, which reverses a quartic with only A singular
        q_rev = reverse(bundle.pencil)
        d_rev = qe.solve_pencil(q_rev, qe.SolveConfig(want_left=False)).deflation
        assert d_rev.zeros_deflated == d_fwd.infs_deflated, bundle.name
        assert d_rev.infs_deflated == d_fwd.zeros_deflated, bundle.name
        checked += 1
    _report(7, "reversal duality", f"{checked} planted instances, counts swapped exactly")
