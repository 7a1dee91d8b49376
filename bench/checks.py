"""Output verification that does not trust the solver.

Everything here is recomputed with plain numpy from the original
coefficients the benchmark generated. A problem passes only if the solver
returned all 4n eigenpairs, the class counts equal the counts known from
the problem's construction, every finite eigenvalue is simple, and every
eigenpair is an exact eigenpair of a nearby problem:

* in memory, the norm-wise backward error of each returned right (and left)
  eigenvector, ||P(a, b) x|| / (sum_k |a|^(4-k) |b|^k ||A_k||_2 ||x||),
  must not exceed ``TOL``;
* from a report file, which holds no vectors, the smallest such error over
  all vectors, sigma_min(P(a, b)) / sum_k |a|^(4-k) |b|^k ||A_k||_2, must
  not exceed ``TOL``, and the reported errors may not undercut it.

Each check returns a list of failure reasons; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json

import numpy as np

TOL = 1e-10
# |alpha| (zero class) or beta (infinite class) may not exceed this
CLASS_TOL = 1e-8
# finite eigenvalues closer than this (relative) count as a repeated pair
DISTINCT_TOL = 1e-9
CLASSES = ("zero", "finite", "infinite")


def coefficient_norms(coeffs):
    return np.array([np.linalg.norm(m, 2) for m in coeffs])


def weights(alpha, beta):
    """Rows alpha^(4-k) beta^k, k = 0..4, one column per eigenvalue."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    return np.stack([alpha ** (4 - k) * beta**k for k in range(5)])


def backward_errors(coeffs, norms, alpha, beta, vectors, left=False):
    """Norm-wise backward error of each column of ``vectors``."""
    w = weights(alpha, beta)
    r = np.zeros(vectors.shape, dtype=np.complex128)
    for k, m in enumerate(coeffs):
        if left:
            r += np.conj(w[k])[None, :] * (m.conj().T @ vectors)
        else:
            r += w[k][None, :] * (m @ vectors)
    den = (np.abs(w).T @ norms) * np.linalg.norm(vectors, axis=0)
    num = np.linalg.norm(r, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.inf)


def min_backward_errors(coeffs, norms, alpha, beta):
    """Smallest backward error over all vectors, for each eigenvalue."""
    w = weights(alpha, beta)
    stack = np.einsum("kj,kab->jab", w, np.asarray(coeffs, dtype=np.complex128))
    sig = np.linalg.svd(stack, compute_uv=False)[:, -1]
    den = np.abs(w).T @ norms
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, sig / den, np.inf)


def _class_failures(problem, labels, alpha, beta):
    """Class counts from the checker's own classification must equal the
    constructed ones. The solver's labels must agree with that
    classification too, except without deflation: there QZ alone finds the
    zero and infinite eigenvalues, and a computed beta of a few 4n*eps may
    exceed the solver's classification threshold, so such a pair is
    accepted under either label as long as (alpha, beta) itself is right."""
    if any(c not in CLASSES for c in labels):
        return [f"unknown eigenvalue class in {sorted(set(labels))}"]
    own = np.where(np.abs(beta) <= CLASS_TOL, "infinite",
                   np.where(np.abs(alpha) <= CLASS_TOL, "zero", "finite"))
    want = {"zero": problem.zeros, "finite": problem.finite, "infinite": problem.infs}
    fails = []
    counts = {c: int(np.sum(own == c)) for c in CLASSES}
    if counts != want:
        fails.append(f"eigenvalue counts {counts} != constructed {want}")
    labels = np.asarray(labels)
    mismatch = int(np.sum(labels != own))
    if mismatch and problem.deflates:
        fails.append(f"{mismatch} pairs labelled other than their (alpha, beta) imply")
    lam = alpha[own == "finite"] / beta[own == "finite"]
    if lam.size > 1:
        gap = np.abs(lam[:, None] - lam[None, :])
        scale = np.maximum(1.0, np.maximum(np.abs(lam)[:, None], np.abs(lam)[None, :]))
        np.fill_diagonal(gap, np.inf)
        if np.any(gap <= DISTINCT_TOL * scale):
            fails.append("repeated finite eigenvalue (a pair returned twice)")
    return fails


def _trace_failures(problem, alpha, beta):
    """sum(lambda) = -tr(A^-1 B) and sum(1/lambda) = -tr(E^-1 D) when the
    extreme coefficients are invertible (all 4n eigenvalues finite)."""
    if problem.zeros or problem.infs:
        return []
    a, b, _, d, e = problem.coeffs
    lam = alpha / beta
    fails = []
    for name, got, mat, rhs in (
        ("sum(lambda)", lam.sum(), a, b),
        ("sum(1/lambda)", (1.0 / lam).sum(), e, d),
    ):
        want = -np.trace(np.linalg.solve(mat, rhs))
        mag = np.abs(lam).sum() + np.abs(1.0 / lam).sum() + abs(want)
        if not abs(got - want) <= 1e-8 * mag:
            fails.append(f"{name} = {got:.6g} but the trace identity gives {want:.6g}")
    return fails


def check_solution(problem, eigs, rights, lefts, want_left=True):
    """Verify an in-memory solution (HomogeneousEig-like objects and vectors)."""
    n = problem.n
    if not (len(eigs) == len(rights) == len(lefts) == 4 * n):
        return [f"{len(eigs)} eigenvalues, {len(rights)} right and {len(lefts)} "
                f"left vectors for 4n = {4 * n}"]
    alpha = np.array([e.alpha for e in eigs], dtype=np.complex128)
    beta = np.array([e.beta for e in eigs], dtype=np.complex128)
    fails = _class_failures(problem, [e.cls for e in eigs], alpha, beta)
    fails += _trace_failures(problem, alpha, beta)
    norms = coefficient_norms(problem.coeffs)
    sides = [("right", rights, False)] + ([("left", lefts, True)] if want_left else [])
    for side, vecs, is_left in sides:
        missing = [j for j, v in enumerate(vecs) if v is None]
        if missing:
            fails.append(f"{len(missing)} {side} eigenvectors missing")
            continue
        x = np.column_stack([np.asarray(v, dtype=np.complex128) for v in vecs])
        eta = backward_errors(problem.coeffs, norms, alpha, beta, x, left=is_left)
        worst = int(np.argmax(eta))
        if not eta[worst] <= TOL:
            fails.append(f"{side} backward error {eta[worst]:.3e} > {TOL:g} at pair {worst}")
    return fails


def check_report(problem, exit_code, json_path, csv_path):
    """Verify a report written by ``quarteig solve --format both``."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        with open(json_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    n = problem.n
    pairs = report.get("eigenpairs", [])
    if report.get("n") != n or len(pairs) != 4 * n or len(rows) != 4 * n:
        return [f"report n={report.get('n')} with {len(pairs)} pairs and "
                f"{len(rows)} CSV rows for 4n = {4 * n}"]
    fails = []
    for pair, row in zip(pairs, rows):
        same = (float(row["alpha_re"]) == pair["alpha"][0]
                and float(row["alpha_im"]) == pair["alpha"][1]
                and float(row["beta"]) == pair["beta"] and row["class"] == pair["class"])
        if not same:
            fails.append(f"CSV row {row['index']} disagrees with the JSON report")
            break
    alpha = np.array([complex(*p["alpha"]) for p in pairs])
    beta = np.array([p["beta"] for p in pairs], dtype=np.complex128)
    fails += _class_failures(problem, [p["class"] for p in pairs], alpha, beta)
    fails += _trace_failures(problem, alpha, beta)
    best = min_backward_errors(problem.coeffs, coefficient_norms(problem.coeffs), alpha, beta)
    worst = int(np.argmax(best))
    if not best[worst] <= TOL:
        fails.append(f"pair {worst} is no eigenvalue: backward error >= {best[worst]:.3e}")
    sides = ("eta_right", "eta_left") if problem.want_left else ("eta_right",)
    for key in sides:
        claimed = np.array([np.inf if p[key] is None else p[key] for p in pairs])
        if not np.all(claimed <= TOL):
            fails.append(f"reported {key} missing or above {TOL:g}")
        elif np.any(claimed < best - 1e-14):
            fails.append(f"reported {key} below the smallest possible backward error")
    return fails
