"""Exact references for small systems: the lowest eigenpair and the gap to E_1."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DenseCapError
from .spin_model import dense_hamiltonian, sparse_hamiltonian

ORACLE_CAP = 14
# Dense diagonalization up to here; restarted symmetric Krylov beyond.
DENSE_EIG_CAP = 10

DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class ExactSolution:
    """Ground-state energy, normalized eigenvector, and gap to E_1."""

    energy: float
    ground_state: np.ndarray = field(repr=False)
    gap: float

    @property
    def degenerate(self):
        return self.gap < DEGENERACY_GAP


def exact_ground(lattice, g, cap=ORACLE_CAP):
    """Lowest eigenpair of the TFI Hamiltonian (d <= 14 by default).

    Sign convention: the largest-magnitude entry of the eigenvector is
    positive.  Ground states with gap < 1e-10 are flagged degenerate.
    Callers that can afford the memory may raise ``cap`` to reach the
    Krylov path at larger d.  That path (d > 10) imports scipy on first use.
    """
    d = lattice.d
    if d > cap:
        raise DenseCapError(d, cap)
    if d <= DENSE_EIG_CAP:
        H = dense_hamiltonian(lattice, g)
        vals, vecs = np.linalg.eigh(H)
        e0, e1 = vals[0], vals[1]
        psi = vecs[:, 0]
    else:
        from scipy.sparse.linalg import eigsh

        H = sparse_hamiltonian(lattice, g, cap=cap)
        vals, vecs = eigsh(H, k=2, which="SA")
        order = np.argsort(vals)
        e0, e1 = vals[order[0]], vals[order[1]]
        psi = vecs[:, order[0]]
    psi = psi / np.linalg.norm(psi)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    psi.flags.writeable = False
    return ExactSolution(energy=float(e0), ground_state=psi, gap=float(e1 - e0))

