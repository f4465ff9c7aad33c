"""Exact references for small systems: the ground energy and ground vector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DenseCapError
from .spin_model import lanczos_ground

ORACLE_CAP = 14


@dataclass(frozen=True)
class ExactSolution:
    """Ground-state energy and normalized ground vector."""

    energy: float
    ground_state: np.ndarray = field(repr=False)


def exact_ground(lattice, g, cap=ORACLE_CAP):
    """Ground state of the TFI Hamiltonian (d <= 14 by default), by Lanczos.

    Sign convention: the largest-magnitude entry of the eigenvector is
    positive.  Callers that can afford the 2^d basis vectors may raise
    ``cap``.
    """
    if lattice.d > cap:
        raise DenseCapError(lattice.d, cap)
    energy, psi = lanczos_ground(lattice, g)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    psi.flags.writeable = False
    return ExactSolution(energy=energy, ground_state=psi)
