"""Independent physics references for the benchmark's correctness checks.

Nothing here imports ``ttqmc``: the lattices, the Hamiltonian, the exact
energies and the tensor-train contractions are written from the model's
definition,

    H = -g sum_i X_i - sum_<pq> Z_p Z_q,

so a fault in the program cannot hide in the reference it is checked
against.  Sites are numbered by tensor-train (chain) position; physical
index 0 is Z = +1.
"""

from __future__ import annotations

import numpy as np

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)


def chain_bonds(d):
    """Bonds of the periodic chain, in chain positions."""
    return [(i, i + 1) for i in range(d - 1)] + [(0, d - 1)]


def cylinder_bonds(n_ring, n_long):
    """Bonds of a cylinder (periodic ring axis, open long axis) in snake order.

    Lattice site (a, b) has ring coordinate a and long coordinate b.  The
    tensor train visits the sites column by column along the long axis,
    reversing the ring direction in every other column.
    """

    def pos(a, b):
        return b * n_ring + (a if b % 2 == 0 else n_ring - 1 - a)

    bonds = set()
    for a in range(n_ring):
        for b in range(n_long):
            bonds.add(tuple(sorted((pos(a, b), pos((a + 1) % n_ring, b)))))
            if b + 1 < n_long:
                bonds.add(tuple(sorted((pos(a, b), pos(a, b + 1)))))
    return sorted(bonds)


def free_fermion_energy(d, g):
    """Ground-state energy of the periodic TFI chain (even-parity sector).

    E0 = -sum_m sqrt(1 + g^2 - 2 g cos k_m),  k_m = (2m + 1) pi / d.
    """
    k = (2.0 * np.arange(d) + 1.0) * np.pi / d
    return float(-np.sum(np.sqrt(1.0 + g * g - 2.0 * g * np.cos(k))))


def _site_operator(d, site, op):
    import scipy.sparse as sp

    out = sp.identity(1, format="csr")
    for m in range(d):
        out = sp.kron(out, op if m == site else I2, format="csr")
    return out


def kron_hamiltonian(d, bonds, g):
    """Sparse H as a sum of Kronecker products; site 0 most significant."""
    import scipy.sparse as sp

    Zs = [_site_operator(d, m, sp.csr_matrix(Z)).diagonal() for m in range(d)]
    diag = np.zeros(2 ** d)
    for p, q in bonds:
        diag -= Zs[p] * Zs[q]
    H = sp.diags(diag, format="csr")
    for m in range(d):
        H = H - g * _site_operator(d, m, sp.csr_matrix(X))
    return H


def exact_ground(d, bonds, g):
    """(E0, normalised ground state) by Lanczos on the Kronecker Hamiltonian."""
    from scipy.sparse.linalg import eigsh

    H = kron_hamiltonian(d, bonds, g)
    v0 = np.full(2 ** d, 2.0 ** (-d / 2))
    vals, vecs = eigsh(H, k=1, which="SA", v0=v0, tol=1e-12)
    psi = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    return float(vals[0]), psi


def load_tt_cores(path):
    """Cores of a ``.tt`` file (an ``.npz`` with ``d`` and ``core_<m>``)."""
    with np.load(path) as data:
        d = int(data["d"])
        return [np.array(data[f"core_{m}"], dtype=np.float64) for m in range(d)]


def tt_ranks(cores):
    return tuple(int(c.shape[2]) for c in cores[:-1])


def expected_ranks(d, edge, middle, sketch_rank):
    """Target rank at each interior cut, clipped to what the cut admits."""
    out = []
    for c in range(1, d):
        r = edge if c in (1, d - 1) else middle
        out.append(min(r, 2 ** c, 2 ** (d - c), sketch_rank))
    return tuple(out)


def _sandwich(a, b, ops=None):
    """<a| prod_m ops[m] |b> for two TTs and per-site 2x2 operators."""
    env = np.ones((1, 1))
    ops = ops or {}
    for m, (ca, cb) in enumerate(zip(a, b)):
        if m in ops:
            cb = np.einsum("ij,ajb->aib", ops[m], cb)
        env = np.einsum("pq,pia,qib->ab", env, ca, cb)
    return float(env[0, 0])


def normalised_overlap(a, b):
    return abs(_sandwich(a, b)) / np.sqrt(_sandwich(a, a) * _sandwich(b, b))


def rayleigh_quotient(cores, bonds, g):
    """<psi|H|psi> / <psi|psi>, term by term."""
    norm = _sandwich(cores, cores)
    e = 0.0
    for m in range(len(cores)):
        e -= g * _sandwich(cores, cores, {m: X})
    for p, q in bonds:
        e -= _sandwich(cores, cores, {p: Z, q: Z})
    return e / norm


def tt_to_dense(cores):
    v = np.ones((1, 1))
    for c in cores:
        v = np.einsum("na,aib->nib", v, c).reshape(-1, c.shape[2])
    return v[:, 0]


def fidelity(cores, psi):
    vec = tt_to_dense(cores)
    return float(abs(vec @ psi) / (np.linalg.norm(vec) * np.linalg.norm(psi)))
