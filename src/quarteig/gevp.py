"""Generalized eigensolver stage on a (deflated) regular pencil."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import GevpError
from .numkit import as_matrix
from .pencil import LinearPencil, classify_pair

_BACKEND_ID = "scipy.linalg.eig[zggev]"


@dataclass
class GevpSolution:
    """Homogeneous eigenvalues of aa - lambda*bb with unit eigenvectors."""

    eigs: list
    right: np.ndarray
    left: np.ndarray | None
    backend_id: str = _BACKEND_ID

    def __len__(self):
        return len(self.eigs)


def solve_gevp(p: LinearPencil, want_left: bool = True) -> GevpSolution:
    """All eigenpairs of the pencil via the dense generalized Schur backend.

    Right vectors v satisfy (beta*aa - alpha*bb) v ~ 0, left vectors u
    satisfy u* (beta*aa - alpha*bb) ~ 0; all are normalized to unit 2-norm.
    Raises :class:`GevpError` when QZ returns an exact (0, 0) pair, the mark
    of a singular pencil.
    """
    aa = as_matrix(p.aa)
    bb = as_matrix(p.bb)
    m = aa.shape[0]
    if aa.shape != (m, m) or bb.shape != (m, m):
        raise GevpError(f"pencil must be square, got {aa.shape} and {bb.shape}")
    if m == 0:
        return GevpSolution(eigs=[], right=np.zeros((0, 0), dtype=np.complex128),
                            left=np.zeros((0, 0), dtype=np.complex128) if want_left else None)
    try:
        if want_left:
            ab, vl, vr = sla.eig(
                aa, bb, left=True, right=True, homogeneous_eigvals=True
            )
        else:
            ab, vr = sla.eig(aa, bb, right=True, homogeneous_eigvals=True)
            vl = None
    except (sla.LinAlgError, np.linalg.LinAlgError) as exc:  # pragma: no cover
        raise GevpError(f"QZ backend failed: {exc}") from exc
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
    return GevpSolution(eigs=eigs, right=vr, left=vl)
