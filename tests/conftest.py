import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_tt(rng, d, rank):
    """A dense random TT with uniform interior rank."""
    from ttqmc.tensor_train import TensorTrain

    shapes = []
    for m in range(d):
        rl = 1 if m == 0 else rank
        rr = 1 if m == d - 1 else rank
        shapes.append((rl, 2, rr))
    return TensorTrain([rng.standard_normal(s) for s in shapes])


def random_positive_product(rng, d):
    """An entrywise-positive product state (no sign problem)."""
    from ttqmc.tensor_train import ProductState

    return ProductState(np.exp(0.5 * rng.standard_normal((d, 2))))


def tt_product_overlap(tt, phi):
    """<tt, phi> for one product state: ``product_overlaps`` on a batch of one."""
    from ttqmc.tensor_train import product_overlaps

    return float(product_overlaps(tt, phi.sites[:, :, None])[0])


def csr_hamiltonian(lattice, g):
    """The TFI Hamiltonian as a scipy CSR matrix, built apart from ``ttqmc``.

    The diagonal is -sum_<pq> s_p s_q from a table of sigma^z values (chain
    position 0 in the most significant bit, bit 0 meaning +1), and each
    site's transverse field couples a basis state to its one-bit flip.
    """
    import scipy.sparse as sp

    d, n = lattice.d, 2 ** lattice.d
    states = np.arange(n)
    sz = 1.0 - 2.0 * ((states[:, None] >> (d - 1 - np.arange(d))) & 1)
    diag = np.zeros(n)
    for p, q in lattice.chain_bonds:
        diag -= sz[:, p] * sz[:, q]
    rows = np.concatenate([states] * (d + 1))
    cols = np.concatenate([states] + [states ^ (1 << (d - 1 - m)) for m in range(d)])
    data = np.concatenate([diag] + [np.full(n, -g)] * d)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
