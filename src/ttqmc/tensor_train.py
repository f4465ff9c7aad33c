"""Tensor trains over chains of 2-level sites.

A tensor train (TT) stores a length-2^d coefficient vector as a chain of
order-3 cores.  Core ``m`` has shape ``(r_m, 2, r_{m+1})`` with boundary
ranks ``r_0 = r_d = 1``; entry ``(i_0, ..., i_{d-1})`` of the represented
vector is the matrix product ``G_0[:, i_0, :] @ ... @ G_{d-1}[:, i_{d-1}, :]``.

Conventions fixed package-wide:
  * physical index ``i = 0`` is the sigma^z = +1 (spin-up) state, ``i = 1``
    is sigma^z = -1;
  * dense vectors are in lexicographic site order, site 0 most significant.

Cores are stored dense, double precision, read-only; no canonical form is
maintained.  All operations here are pure.

Contractions of a TT against a batch of n product states use one
walker-last kernel.  The batch is one (d, 2, n) array whose row block
``v = sites[m]`` (2, n) holds every state's site-m vector; a partial
contraction is an (r, n) array, and a site step splits over the physical
index into the two halves ``(C_i^T @ L) * v[i]`` (left) or
``(C_i @ R) * v[i]`` (right), one GEMM with the stacked transfer matrix,
which alone decides the direction (``site_halves``, ``advance``).
Their sum is the partial through that site; bond and local-energy overlaps
combine the halves separately.
"""

from __future__ import annotations

import numpy as np

from .errors import DenseCapError, DimensionMismatchError

DENSE_CAP = 20

TT_FILE_FORMAT = "ttqmc-tt-v1"


def _as_readonly(a):
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


class TensorTrain:
    """Immutable tensor train over d two-level sites."""

    __slots__ = ("cores",)

    def __init__(self, cores):
        cores = [_as_readonly(c) for c in cores]
        if not cores:
            raise ValueError("a TensorTrain needs at least one core")
        for m, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {m} must be order 3, got shape {c.shape}")
            if c.shape[1] != 2:
                raise ValueError(f"core {m} physical dimension must be 2, got {c.shape[1]}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"core {m} has non-finite entries")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for m in range(len(cores) - 1):
            if cores[m].shape[2] != cores[m + 1].shape[0]:
                raise ValueError(
                    f"bond mismatch between cores {m} and {m + 1}: "
                    f"{cores[m].shape[2]} != {cores[m + 1].shape[0]}"
                )
        object.__setattr__(self, "cores", tuple(cores))

    def __setattr__(self, name, value):
        raise AttributeError("TensorTrain is immutable")

    @property
    def d(self):
        return len(self.cores)

    @property
    def ranks(self):
        """Interior bond dimensions (r_1, ..., r_{d-1})."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    @classmethod
    def from_product(cls, sites):
        """Rank-1 TT from d per-site length-2 vectors."""
        sites = np.asarray(sites, dtype=np.float64)
        return cls([v.reshape(1, 2, 1) for v in sites])

    @classmethod
    def from_dense(cls, vec):
        """Exact TT of a length-2^d vector by d - 1 sequential SVDs (TT-SVD).

        Oseledets 2011.  No singular value is dropped, so the ranks are
        min(2^c, 2^(d-c)) and the TT reproduces ``vec`` up to rounding.
        """
        vec = np.asarray(vec, dtype=np.float64)
        if vec.ndim != 1 or vec.size < 2 or vec.size & (vec.size - 1):
            raise ValueError(f"a dense vector needs length 2^d, d >= 1; got shape {vec.shape}")
        d = vec.size.bit_length() - 1
        cores = []
        rest = vec.reshape(1, -1)
        for _ in range(d - 1):
            r = rest.shape[0]
            u, s, vt = np.linalg.svd(rest.reshape(2 * r, -1), full_matrices=False)
            cores.append(u.reshape(r, 2, -1))
            rest = s[:, None] * vt
        cores.append(rest.reshape(-1, 2, 1))
        return cls(cores)


class ProductState:
    """A separable wavefunction: one length-2 real vector per site."""

    __slots__ = ("sites",)

    def __init__(self, sites):
        sites = np.array(sites, dtype=np.float64)
        if sites.ndim != 2 or sites.shape[1] != 2:
            raise ValueError(f"expected (d, 2) site vectors, got shape {sites.shape}")
        if not np.all(np.isfinite(sites)):
            raise ValueError("site vectors must be finite")
        if np.any(np.all(sites == 0.0, axis=1)):
            raise ValueError("site vectors must be nonzero")
        sites.flags.writeable = False
        object.__setattr__(self, "sites", sites)

    def __setattr__(self, name, value):
        raise AttributeError("ProductState is immutable")

    @property
    def d(self):
        return self.sites.shape[0]

    def as_tt(self):
        return TensorTrain.from_product(self.sites)

    def to_dense(self):
        """Kronecker expansion, site 0 most significant."""
        return tt_to_dense(self.as_tt())


def left_transfer(core):
    """Core (r, 2, r') as the stacked (2 r', r) matrix [C_0^T; C_1^T]."""
    return np.ascontiguousarray(np.transpose(core, (1, 2, 0)).reshape(-1, core.shape[0]))


def right_transfer(core):
    """Core (r, 2, r') as the stacked (2 r, r') matrix [C_0; C_1]."""
    return np.ascontiguousarray(np.transpose(core, (1, 0, 2)).reshape(-1, core.shape[2]))


def site_halves(P, W, v):
    """Both physical halves of one site step, walker-last.

    ``P`` (r, n) contracts the sites on one side of site m for n product
    states, ``W`` is ``left_transfer`` (stepping right) or ``right_transfer``
    (stepping left) of core m, and ``v`` the (2, n) site-m vectors.  Returns
    (2, r', n) with ``[i] = (C_i^T @ P) * v[i]`` or ``(C_i @ P) * v[i]``.
    """
    h = (W @ P).reshape(2, -1, P.shape[-1])
    h *= v[:, None, :]
    return h


def advance(P, W, v):
    """The partial through one more site: the sum of its two halves."""
    h = site_halves(P, W, v)
    return h[0] + h[1]


def product_overlaps(tt, sites):
    """<tt, phi_k> for a batch of product states, by one right-to-left sweep.

    ``sites`` is the (d, 2, n) site array.  Cost O(d r^2 n).  The overlap
    cache of ``walker_engine`` sweeps in the same direction, so stored and
    directly computed overlaps share one contraction path.
    """
    if tt.d != len(sites):
        raise DimensionMismatchError(f"tt has d={tt.d}, product states have d={len(sites)}")
    R = np.ones((1, sites.shape[-1]))
    for core, v in zip(reversed(tt.cores), reversed(sites)):
        R = advance(R, right_transfer(core), v)
    return R[0]


def tt_tt_overlap(a, b):
    """<a, b> via transfer-matrix accumulation, O(d r^4) worst case."""
    if a.d != b.d:
        raise DimensionMismatchError(f"left has d={a.d}, right has d={b.d}")
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        # env(p, q) -> sum_{p,i} env(p,q) ca(p,i,P) cb(q,i,Q)
        tmp = np.tensordot(env, ca, axes=(0, 0))  # (q, i, P)
        env = np.tensordot(tmp, cb, axes=([0, 1], [0, 1]))  # (P, Q)
    return float(env[0, 0])


def tt_to_dense(tt, cap=DENSE_CAP):
    """Full coefficient vector of length 2^d (verification oracle only)."""
    if tt.d > cap:
        raise DenseCapError(tt.d, cap)
    v = tt.cores[0].reshape(2, -1)  # (2, r_1)
    for core in tt.cores[1:]:
        r = core.shape[0]
        # (n, r) x (r, 2, r') -> (2n, r')
        v = np.tensordot(v, core, axes=(1, 0)).reshape(-1, core.shape[2])
    return np.ascontiguousarray(v[:, 0])


def save_tt(path, tt):
    """Write a TT to a self-describing .npz container (version-tagged)."""
    payload = {
        "format": np.array(TT_FILE_FORMAT),
        "d": np.array(tt.d, dtype=np.int64),
        "ranks": np.array(tt.ranks, dtype=np.int64),
    }
    for m, core in enumerate(tt.cores):
        payload[f"core_{m}"] = np.asarray(core)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_tt(path):
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != TT_FILE_FORMAT:
            raise ValueError(f"unsupported TT file format {fmt!r}")
        d = int(data["d"])
        cores = [data[f"core_{m}"] for m in range(d)]
    return TensorTrain(cores)
