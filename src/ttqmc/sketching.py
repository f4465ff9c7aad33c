"""Random cluster-basis sketches and the one-sweep walker-ensemble TT fit.

The ensemble sum Psi-hat = sum_k c_k phi_k, c_k = w_k / O_tr(phi_k), is
fitted into a low-rank TT by contracting it against a left sketch TT ``S``
and a right sketch TT ``T`` whose cores live in the span of the per-site
cluster basis

    v_1 = (1, 1)^T,    v_2 = (delta, -delta)^T,

with i.i.d. standard-normal coefficient tensors.  Because every walker is
separable, the sketched environments reduce to per-walker partial
products: L_c (n_walkers, s) contracts the walkers' sites < c with S, with
c_k folded in, and R_c their sites >= c with T.  Nothing of size 2^d is
ever materialized.

The fit is one left-to-right sweep that yields the target-rank cores
directly (the TT sketch of Hur, Hoskins, Lindsey, Stoudenmire & Khoo,
2023).  At cut c the cross matrix X_c = L_c^T R_c has the thin SVD
U Sigma V^T.  With r_c the target rank, two (n_walkers, r_c) projections
are kept: A_c = L_c U_r Sigma_r^-1, where directions with sigma below
LS_CUTOFF * sigma_max get zero rather than an inverse, and
B_c = R_c V_r^T.  Core m is

    G_m[a, i, b] = sum_k A_m[k, a] v_m[k, i] B_{m+1}[k, b],

with A_0 = c and B_d = 1.  In exact arithmetic this is the
solve-then-truncate fit: G_m = X_m^+ Y_m from the sketched data Y_m, with
the leading right singular vectors of X_m and X_{m+1} contracted in.

The partials are walker-first, (n_walkers, rank), so the sweep reads the
ensemble's (d, 2, n_walkers) sites through one transposed copy.  The
right partials are built first into one buffer; the left partial streams
through one buffer, advanced in place.  A site step is one GEMM with the
core's stacked transfer matrix into a scratch buffer and one ``einsum``
that weights and sums the two physical halves into the output.  The two
walker-reducing products, X_c and the core contraction, are summed over
fixed blocks of walkers in a fixed order, so the fitted cores do not
depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, RankZeroError, SketchFitError
from .tensor_train import TensorTrain, right_transfer
from .walker_engine import Ensemble

# Relative singular-value cutoff for the per-core least-squares solves.
LS_CUTOFF = 1e-12

_PURPOSE_SKETCH = 3

# Walkers per block of the walker-reducing products.  A BLAS splits one long
# reduction differently at different thread counts; summing fixed blocks in
# a fixed order keeps the fitted cores' bits the same.
_WALKER_BLOCK = 250


@dataclass(frozen=True)
class SketchPair:
    """A left/right pair of random cluster-basis sketch TTs."""

    left: TensorTrain = field(repr=False)
    right: TensorTrain = field(repr=False)
    sketch_rank: int
    delta: float
    seed: int

    @property
    def d(self):
        return self.left.d


def _cluster_cores(rng, d, rank, delta):
    cores = []
    for m in range(d):
        rl = 1 if m == 0 else rank
        rr = 1 if m == d - 1 else rank
        coeff = rng.standard_normal((rl, 2, rr))
        core = np.empty((rl, 2, rr))
        core[:, 0, :] = coeff[:, 0, :] + delta * coeff[:, 1, :]
        core[:, 1, :] = coeff[:, 0, :] - delta * coeff[:, 1, :]
        cores.append(core)
    return TensorTrain(cores)


def make_sketch_pair(d, sketch_rank, delta, seed):
    """Draw a deterministic sketch pair from a stream keyed by ``seed``."""
    if d < 2:
        raise ValueError("sketching needs d >= 2")
    if sketch_rank < 1:
        raise ValueError(f"sketch_rank must be >= 1, got {sketch_rank}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    rng = np.random.Generator(
        np.random.Philox(key=[int(seed) & (2 ** 64 - 1), _PURPOSE_SKETCH])
    )
    left = _cluster_cores(rng, d, sketch_rank, delta)
    right = _cluster_cores(rng, d, sketch_rank, delta)
    return SketchPair(
        left=left, right=right, sketch_rank=int(sketch_rank), delta=float(delta), seed=int(seed)
    )


def validate_target_ranks(target_ranks, d, sketch_rank):
    ranks = [int(r) for r in target_ranks]
    if len(ranks) != d - 1:
        raise ValueError(f"need {d - 1} target ranks for d={d}, got {len(ranks)}")
    padded = [1] + ranks + [1]
    for c in range(1, d + 1):
        r = padded[c]
        if r < 1:
            raise ValueError(f"target rank at cut {c} must be >= 1, got {r}")
        if r > sketch_rank:
            raise ValueError(
                f"target rank {r} at cut {c} exceeds sketch rank {sketch_rank}"
            )
        if r > 2 * padded[c - 1] or padded[c - 1] > 2 * r:
            raise ValueError(
                f"target ranks not nested at cut {c}: {padded[c - 1]} vs {r}"
            )
    return ranks


def _ensemble_arrays(walkers):
    """Walker-first sites (d, n_kept, 2) and coefficients c_k = w_k / O_tr(phi_k).

    The walker-last sites are transposed into contiguous (n_kept, 2) blocks
    by one copy (two when a zero-weight walker is dropped).  A non-finite or
    negative weight, a positive weight with a non-positive overlap, or a
    non-finite coefficient raises SketchFitError naming the walker.
    """
    if not isinstance(walkers, Ensemble):
        walkers = Ensemble.from_walkers(list(walkers))
    walkers.require_settled("sketch_ensemble")
    weight, ovlp = walkers.weight, walkers.ovlp
    _reject_walkers(~np.isfinite(weight), weight, "non-finite walker weight w_k")
    _reject_walkers(weight < 0.0, weight, "negative walker weight")
    keep = weight > 0.0
    if not keep.any():
        raise ValueError("no walker with positive weight")
    bad_ovlp = keep & (ovlp <= 0.0)
    _reject_walkers(bad_ovlp, ovlp, "positive-weight walker with non-positive overlap")
    coeff = weight / np.where(keep, ovlp, 1.0)
    _reject_walkers(~np.isfinite(coeff), coeff, "non-finite walker coefficient w_k/O_k")
    sites = walkers.sites.transpose(0, 2, 1)
    return np.ascontiguousarray(sites if keep.all() else sites[:, keep]), coeff[keep]


def _reject_walkers(bad, values, what):
    """Raise SketchFitError naming the first walker flagged in ``bad``."""
    k = np.flatnonzero(bad)
    if k.size:
        raise SketchFitError(f"{what} at walker {k[0]}: {float(values[k[0]])!r}")


def _site_step(P, W, v, out, scratch):
    """out[k, b] = sum_i v[k, i] (P @ W)[k, i, b], W the stacked (r, 2 r') transfer.

    ``scratch`` is a flat buffer of at least 2 * out.size elements.  ``out``
    may be ``P``: only the GEMM into the scratch reads P.
    """
    n, w = out.shape
    halves = scratch[: 2 * n * w].reshape(n, 2 * w)
    np.matmul(P, W, out=halves)
    return np.einsum("kib,ki->kb", halves.reshape(n, 2, w), v, out=out)


def _advance_left(L, core, v, out, scratch):
    """Left partial (n_walkers, r) through one more site, into ``out`` (n_walkers, r')."""
    return _site_step(L, core.reshape(core.shape[0], -1), v, out, scratch)


def _right_partials(tt, sites):
    """Per-walker contractions strictly right of every cut: R[c] (n_walkers, rank).

    The partials are views into one (d + 1, n_walkers, max rank) buffer.
    """
    d = len(sites)
    n = sites[0].shape[0]
    widths = (1,) + tt.ranks + (1,)
    buf = np.empty((d + 1, n, max(widths)))
    scratch = np.empty(2 * n * max(widths))
    R = [buf[c, :, :w] for c, w in enumerate(widths)]
    R[d][...] = 1.0
    for m in range(d - 1, -1, -1):
        _site_step(R[m + 1], right_transfer(tt.cores[m]).T, sites[m], R[m], scratch)
    return R


def _walker_sum(a, b):
    """a^T b over the walker axis, summed block by block in a fixed order."""
    out = a[:_WALKER_BLOCK].T @ b[:_WALKER_BLOCK]
    for k in range(_WALKER_BLOCK, a.shape[0], _WALKER_BLOCK):
        out += a[k : k + _WALKER_BLOCK].T @ b[k : k + _WALKER_BLOCK]
    return out


def _core(a, v, b):
    """The fitted core G[x, i, y] = sum_k a[k, x] v[k, i] b[k, y]."""
    ra = a.shape[1]
    av = (a[:, :, None] * v[:, None, :]).reshape(-1, 2 * ra)
    return _walker_sum(av, b).reshape(ra, 2, b.shape[1])


def _cross_svd(X, cut):
    """Thin SVD of the cross matrix at ``cut``, with its failures named."""
    if not np.isfinite(X).all():
        raise SketchFitError(f"non-finite cross matrix at cut {cut}", cut=cut)
    try:
        U, sig, Vt = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        msg = f"SVD of the cross matrix at cut {cut} failed: {exc}"
        raise SketchFitError(msg, cut=cut) from None
    if sig[0] <= 0.0:
        raise RankZeroError(cut)
    return U, sig, Vt


def sketch_ensemble(walkers, pair, target_ranks):
    """Fit the weighted walker sum into a TT with the requested ranks.

    ``walkers`` is an Ensemble or a sequence of Walker objects.  The output
    TT's cores are rescaled so every core except the first has unit
    max-magnitude entry, with the full scale folded into the first core, so
    the represented vector is unchanged.
    """
    sites, coeff = _ensemble_arrays(walkers)
    d = len(sites)
    if pair.d != d:
        raise DimensionMismatchError(f"sketch pair has d={pair.d}, walkers d={d}")
    ranks = validate_target_ranks(target_ranks, d, pair.sketch_rank)

    R = _right_partials(pair.right, sites)
    # the left partial streams through one buffer, advanced in place
    left = np.empty((coeff.shape[0], pair.sketch_rank))
    scratch = np.empty(2 * left.size)
    L = A = coeff.reshape(-1, 1)
    cores = []
    for c in range(1, d):
        L = _advance_left(L, pair.left.cores[c - 1], sites[c - 1], left, scratch)
        U, sig, Vt = _cross_svd(_walker_sum(L, R[c]), c)
        r = ranks[c - 1]
        keep = sig[:r] > LS_CUTOFF * sig[0]
        inv = np.divide(1.0, sig[:r], out=np.zeros(r), where=keep)
        cores.append(_core(A, sites[c - 1], R[c] @ Vt[:r].T))
        A = L @ (U[:, :r] * inv)
    cores.append(_core(A, sites[d - 1], R[d]))

    # Rescale: unit max-entry cores, global scale folded into the first.
    scale = 1.0
    for m in range(d - 1, 0, -1):
        s = np.max(np.abs(cores[m]))
        if s > 0.0:
            cores[m] = cores[m] / s
            scale *= s
    cores[0] = cores[0] * scale
    return TensorTrain(cores)
