"""The spatial Orr-Sommerfeld quartic of plane Poiseuille flow, the first
application the paper's abstract names, at Orszag's critical point.

The coefficients are graded (norms from 1 to about 1e12 at N = 64). The
bordered variant carries its boundary conditions as four rows that are
constant in alpha, each worth four infinite eigenvalues.
"""

import numpy as np
import pytest

from quarteig import QuarticPencil, SolveConfig, solve_pencil
from quarteig.pencil import EIG_FINITE
from support import ALPHA_CRIT, orr_sommerfeld

CASES = [("clamped", 32), ("clamped", 48), ("clamped", 64),
         ("bordered", 32), ("bordered", 48), ("bordered", 64)]


def solve(variant, N, **config):
    return solve_pencil(QuarticPencil.from_matrices(*orr_sommerfeld(N, variant=variant)),
                        SolveConfig(**config))


@pytest.mark.parametrize("N", [48, 64])
def test_critical_wave_number(N):
    sol = solve("clamped", N).solution
    lam = sol.lam[sol.cls == EIG_FINITE]
    nearest = lam[np.argmin(np.abs(lam - 1.02))]
    assert abs(nearest.real - ALPHA_CRIT) <= 1e-4
    assert abs(nearest.imag) < 1e-5


@pytest.mark.parametrize("N", [32, 48])
def test_bordered_deflates_the_boundary_infinities(N):
    res = solve("bordered", N)
    assert res.deflation.infs_deflated == 16 and res.deflation.zeros_deflated == 0
    assert res.summary.counts == {"zero": 0, "finite": 4 * (N - 3), "infinite": 16}


@pytest.mark.parametrize("deflate", [True, False], ids=["default", "deflate_off"])
@pytest.mark.parametrize("variant,N", CASES)
def test_every_pair_is_a_small_backward_error(variant, N, deflate):
    # max eta (right/left) measured with deflation and the zggev3 driver on
    # x86-64 OpenBLAS: clamped 3.4e-15/1.9e-15 (N 32), 3.9e-15/2.2e-15 (48),
    # 6.9e-15/3.1e-15 (64); bordered 9.8e-15/5.2e-18 (32), 6.4e-15/3.0e-19
    # (48), 6.6e-15/2.1e-20 (64). Balancing the raw coefficients unweighted
    # gave up to 2.8e-11/1.9e-11 (clamped, N 64). Max omega_left, with or
    # without deflation, is 1.1e-12 to 5.3e-11; QZ's left vectors, lifted
    # through the deflation, gave 6.8e-9 to 1.4e-8.
    res = solve(variant, N, deflate=deflate)
    sol = res.solution
    assert len(sol) == 4 * sol.x.shape[0] and sol.has_right.all() and sol.has_left.all()
    assert np.max(sol.eta_right) <= 1e-13
    assert np.max(sol.eta_left) <= 1e-13
    assert np.nanmax(sol.omega_left) <= 1e-10
