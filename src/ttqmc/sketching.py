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
U Sigma V^T.  With r_c the target rank, M_c = U_r Sigma_r^-1, where
directions with sigma below LS_CUTOFF * sigma_max get zero rather than an
inverse, and V_c = V_r.  With the (n_walkers, r_c) projections
A_c = L_c M_c and B_c = R_c V_c^T, core m is

    G_m[a, i, b] = sum_k A_m[k, a] v_m[k, i] B_{m+1}[k, b],

with A_0 = c and B_d = 1.  In exact arithmetic this is the
solve-then-truncate fit: G_m = X_m^+ Y_m from the sketched data Y_m, with
the leading right singular vectors of X_m and X_{m+1} contracted in.

The sweep visits the odd cuts c and reads two cuts and two cores off one
two-site walker sum

    Y_c[a, i, b] = sum_k L_c[k, a] v_c[k, i] R_{c+1}[k, b]    (s, 2, s):

X_c is Y_c contracted with right-sketch core c, X_{c+1} is left-sketch
core c contracted with Y_c, and core c is M_c^T Y_c V_{c+1}^T.  The even
core c - 1 is the walker sum above, with B_c from one narrow site step of
R_{c+1} through V_c T_c.  So the right partials are kept only at the even
cuts 2 <= c < d (and R_d = 1): the odd ones pass through one spare slot,
and R_1, R_0 are never formed.  With s the sketch rank, the buffer holds at
most (d/2 + 1) n_walkers s doubles: 31 MB at d = 64, 2000 walkers and
s = 60, against 62 MB for a partial at every cut.

The partials are walker-first, (n_walkers, rank), and the sweep reads the
ensemble's (d, 2, n_walkers) sites through a transposed view.  The left
partial streams through the right buffer's spare slot, advanced in place.
A site step is one GEMM with the core's stacked transfer matrix into a
scratch buffer and one ``einsum`` that weights and sums the two physical
halves into the output.  Every walker-reducing product is summed over
fixed blocks of walkers in a fixed order, so the fitted cores do not
depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, RankZeroError, SketchFitError
from .tensor_train import TensorTrain, right_transfer
from .walker_engine import Ensemble, stream

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
    rng = stream(seed, _PURPOSE_SKETCH)
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

    The sites are a transposed view of the walker-last (d, 2, n) array, copied
    only when a zero-weight walker is dropped.  A non-finite or
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
    sites = walkers.sites if keep.all() else walkers.sites[:, :, keep]
    return sites.transpose(0, 2, 1), coeff[keep]


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


def _right_partials(tt, sites, scratch):
    """Per-walker contractions right of the even cuts: R[c] (n_walkers, rank).

    Returns ``(R, spare)``.  ``R`` maps every even cut 2 <= c < d, and c = d
    (R_d = 1), to its partial, a view into one buffer; nothing reads R_1 or
    R_0, so the sweep stops at cut 2.  The odd cuts' partials pass through
    ``spare`` (n_walkers, max rank), a slot of the same buffer that is free
    again once the sweep returns.
    """
    d = len(sites)
    n = sites[0].shape[0]
    widths = (1,) + tt.ranks + (1,)
    buf = np.empty(((d - 1) // 2 + 1, n, max(widths)))
    spare = buf[-1]
    R = {d: np.ones((n, 1))}
    prev = R[d]
    for m in range(d - 1, 1, -1):
        out = (buf[m // 2 - 1] if m % 2 == 0 else spare)[:, : widths[m]]
        prev = _site_step(prev, right_transfer(tt.cores[m]).T, sites[m], out, scratch)
        if m % 2 == 0:
            R[m] = prev
    return R, spare


def _core(a, v, b):
    """G[x, i, y] = sum_k a[k, x] v[k, i] b[k, y], summed over fixed walker blocks.

    Each block's product of ``v`` and ``b`` is built walker-major as
    (block, 2, rb), rank axis innermost, and the blocks are added in a fixed
    order, so the bits do not depend on how the BLAS splits the work.
    """
    rb = b.shape[1]
    out = np.zeros((a.shape[1], 2 * rb))
    for k in range(0, a.shape[0], _WALKER_BLOCK):
        blk = slice(k, k + _WALKER_BLOCK)
        out += a[blk].T @ (v[blk, :, None] * b[blk, None, :]).reshape(-1, 2 * rb)
    return out.reshape(a.shape[1], 2, rb)


def _cross_svd(X, cut, r):
    """Truncated thin SVD of the cross matrix at ``cut``, with its failures named.

    Returns the left factor M = U_r Sigma_r^+, where directions with sigma
    below LS_CUTOFF * sigma_max get zero rather than an inverse, and the
    leading right singular vectors V_r (r, cols).
    """
    if not np.isfinite(X).all():
        raise SketchFitError(f"non-finite cross matrix at cut {cut}", cut=cut)
    try:
        U, sig, Vt = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:
        msg = f"SVD of the cross matrix at cut {cut} failed: {exc}"
        raise SketchFitError(msg, cut=cut) from None
    if sig[0] <= 0.0:
        raise RankZeroError(cut)
    keep = sig[:r] > LS_CUTOFF * sig[0]
    inv = np.divide(1.0, sig[:r], out=np.zeros(r), where=keep)
    return U[:, :r] * inv, Vt[:r]


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
    ranks = [1] + validate_target_ranks(target_ranks, d, pair.sketch_rank)

    n = coeff.shape[0]
    scratch = np.empty(2 * n * pair.sketch_rank)
    # the left partial streams through the right sweep's spare slot, in place
    R, left = _right_partials(pair.right, sites, scratch)
    L = A = coeff.reshape(-1, 1)
    cores = []
    for c in range(1, d, 2):
        S = pair.left.cores[c - 1]
        L = _site_step(L, S.reshape(len(S), -1), sites[c - 1], left, scratch)
        # Y_c = sum_k L_c v_c R_{c+1}; contracting right-sketch core c gives X_c
        Y = _core(L, sites[c], R[c + 1])
        T = pair.right.cores[c]
        M, V = _cross_svd(Y.reshape(len(Y), -1) @ T.reshape(len(T), -1).T, c, ranks[c])
        # B_c = R_c V_c^T, one narrow site step of R_{c+1} through V_c T_c
        W = right_transfer(np.tensordot(V, T, 1)).T
        B = _site_step(R[c + 1], W, sites[c], np.empty((n, len(V))), scratch)
        cores.append(_core(A, sites[c - 1], B))
        # core c = M_c^T Y_c V_{c+1}^T, with B_d = 1
        G = np.tensordot(M, Y, (0, 0))
        if c + 1 < d:
            # left-sketch core c contracted with Y_c gives X_{c+1}
            S = pair.left.cores[c]
            X = S.reshape(-1, S.shape[2]).T @ Y.reshape(-1, Y.shape[2])
            M, V = _cross_svd(X, c + 1, ranks[c + 1])
            G = G @ V.T
            L = _site_step(L, S.reshape(len(S), -1), sites[c], left, scratch)
            A = L @ M
        cores.append(G)
    if d % 2:
        # the last core sits at an even index
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
