"""Generalized eigensolver stage on a (deflated) regular pencil."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GevpError
from .numkit import as_matrix, generalized_eig
from .pencil import LinearPencil, classify_pair


@dataclass
class GevpSolution:
    """Homogeneous eigenvalues of aa - lambda*bb with unit eigenvectors.

    ``backend_id`` names the LAPACK driver that ran (see
    :func:`quarteig.numkit.generalized_eig`).
    """

    eigs: list
    right: np.ndarray
    left: np.ndarray | None
    backend_id: str

    def __len__(self):
        return len(self.eigs)


def solve_gevp(p: LinearPencil, want_left: bool = True) -> GevpSolution:
    """All eigenpairs of the pencil via the dense generalized Schur backend.

    The QZ algorithm runs in LAPACK's blocked multishift driver ``zggev3``
    where the loaded OpenBLAS exports it, otherwise in ``zggev`` through
    ``scipy.linalg.eig``. Right vectors v satisfy (beta*aa - alpha*bb) v ~ 0,
    left vectors u satisfy u* (beta*aa - alpha*bb) ~ 0; all are normalized
    to unit 2-norm. Raises :class:`GevpError` when QZ fails or returns an
    exact (0, 0) pair, the mark of a singular pencil.
    """
    aa = as_matrix(p.aa)
    bb = as_matrix(p.bb)
    m = aa.shape[0]
    if aa.shape != (m, m) or bb.shape != (m, m):
        raise GevpError(f"pencil must be square, got {aa.shape} and {bb.shape}")
    ab, vl, vr, driver = generalized_eig(aa, bb, want_left)
    null = np.flatnonzero((ab[0] == 0.0) & (ab[1] == 0.0))
    if null.size:
        raise GevpError(
            f"the {m}x{m} pencil is singular: QZ returned {null.size} (0, 0) "
            "eigenvalue pair(s), so det(beta*aa - alpha*bb) vanishes identically",
            failing_index=int(null[0]),
        )
    eigs = [classify_pair(ab[0, i], ab[1, i], m) for i in range(m)]
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    if vl is not None:
        vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
    return GevpSolution(eigs=eigs, right=vr, left=vl, backend_id=driver)
