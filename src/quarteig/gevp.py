"""Generalized eigensolver stage on a (deflated) regular pencil."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GevpError
from .numkit import as_matrix, generalized_eig
from .pencil import LinearPencil, Spectrum, classify


@dataclass(eq=False)
class GevpSolution(Spectrum):
    """Homogeneous eigenvalues of aa - lambda*bb with unit right eigenvectors.

    Column j of ``right`` belongs to pair j of the arrays ``alpha``,
    ``beta`` and ``cls``. ``backend_id`` names the LAPACK driver that ran
    (see :func:`quarteig.numkit.generalized_eig`).
    """

    right: np.ndarray
    backend_id: str


def solve_gevp(p: LinearPencil) -> GevpSolution:
    """All eigenvalues and right eigenvectors of the pencil via the dense
    generalized Schur backend.

    The QZ algorithm runs in LAPACK's blocked multishift driver ``zggev3``
    of the LAPACKE table (:func:`quarteig.numkit.lapack`), and without one
    in ``zggev`` through ``scipy.linalg.eig``. Right vectors v satisfy
    (beta*aa - alpha*bb) v ~ 0 and are normalized to unit 2-norm; QZ
    computes no left vectors (the solver takes the quartic's left vectors
    from P(alpha, beta), :func:`quarteig.eigvec.recover_left`). Raises
    :class:`GevpError` when QZ fails or returns an exact (0, 0) pair, the
    mark of a singular pencil.
    """
    aa = as_matrix(p.aa)
    bb = as_matrix(p.bb)
    m = aa.shape[0]
    if aa.shape != (m, m) or bb.shape != (m, m):
        raise GevpError(f"pencil must be square, got {aa.shape} and {bb.shape}")
    ab, vr, driver = generalized_eig(aa, bb)
    null = np.flatnonzero((ab[0] == 0.0) & (ab[1] == 0.0))
    if null.size:
        raise GevpError(
            f"the {m}x{m} pencil is singular: QZ returned {null.size} (0, 0) "
            "eigenvalue pair(s), so det(beta*aa - alpha*bb) vanishes identically"
        )
    alpha, beta, cls = classify(ab[0], ab[1], m)
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    return GevpSolution(alpha=alpha, beta=beta, cls=cls, right=vr, backend_id=driver)
