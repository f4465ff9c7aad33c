"""Random cluster-basis sketches and the two-phase walker-ensemble TT fit.

The ensemble sum Psi-hat = sum_k w_k phi_k / O_tr(phi_k) is fitted into a
low-rank TT by contracting it against a left sketch TT ``S`` and a right
sketch TT ``T`` whose cores live in the span of the per-site cluster basis

    v_1 = (1, 1)^T,    v_2 = (delta, -delta)^T,

with i.i.d. standard-normal coefficient tensors.  Because every walker is
separable, the sketched environments reduce to per-walker left/right
partial products, so nothing of size 2^d is ever materialized.

First phase: cores are solved cut by cut from cross matrices X formed
sequentially out of the already-solved cores.  Second phase: each X is
truncated to the target rank through the SVD its first-phase solve already
took, and the right-singular-vector factors are contracted into the
neighboring cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, RankZeroError
from .tensor_train import TensorTrain

# Relative singular-value cutoff for the per-core least-squares solves.
LS_CUTOFF = 1e-12

_PURPOSE_SKETCH = 3


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

    @property
    def degenerate(self):
        """delta = 0 collapses v_2; downstream cross matrices lose rank."""
        return self.delta == 0.0


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


def least_squares_core(X, Y, cutoff):
    """Minimum-norm least-squares solve of X G = Y with SV thresholding.

    Y may carry trailing axes; singular values below cutoff * sigma_max are
    treated as exact zeros (null space).  Raises RankZeroError if nothing
    survives the threshold.
    """
    return _svd_solve(_svd(X), Y, cutoff)


def _svd(X):
    """Thin SVD (U, s, Vt) of a square or tall X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise ValueError(f"X must be square or tall, got shape {X.shape}")
    return np.linalg.svd(X, full_matrices=False)


def _svd_solve(svd, Y, cutoff):
    """``least_squares_core`` with the SVD of X already taken."""
    U, s, Vt = svd
    Y = np.asarray(Y, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0 or not np.isfinite(s[0]):
        raise RankZeroError(None)
    keep = s > cutoff * s[0]
    if not keep.any():
        raise RankZeroError(None)
    y_mat = Y.reshape(U.shape[0], -1)
    coeff = (U[:, keep].T @ y_mat) / s[keep][:, None]
    sol = Vt[keep].T @ coeff
    return sol.reshape((Vt.shape[1],) + Y.shape[1:])


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
    """Site arrays and coefficients c_k = w_k / O_tr(phi_k), zero weights dropped."""
    if hasattr(walkers, "sites") and hasattr(walkers, "weight"):
        walkers.require_settled("sketch_ensemble")
        sites = walkers.sites
        weight = np.asarray(walkers.weight, dtype=np.float64)
        ovlp = np.asarray(walkers.ovlp, dtype=np.float64)
    else:
        walkers = list(walkers)
        if not walkers:
            raise ValueError("empty walker list")
        d = walkers[0].state.d
        sites = [np.stack([w.state.sites[m] for w in walkers]) for m in range(d)]
        weight = np.array([w.weight for w in walkers])
        ovlp = np.array([w.overlap for w in walkers])
    if np.any(weight < 0.0):
        raise ValueError("negative walker weight")
    keep = weight > 0.0
    if not keep.any():
        raise ValueError("no walker with positive weight")
    if np.any(ovlp[keep] <= 0.0):
        raise ValueError("positive-weight walker with non-positive overlap")
    sites = [s[keep] for s in sites]
    coeff = weight[keep] / ovlp[keep]
    return sites, coeff


def _advance_left(L, core, v):
    """Left partial (n_walkers, r) through one more site: (n_walkers, r')."""
    return (L @ core[:, 0, :]) * v[:, :1] + (L @ core[:, 1, :]) * v[:, 1:]


def _left_partials(tt, sites, coeff):
    """Per-walker contractions of a sketch TT strictly left of every cut.

    Returns ``L`` with L[c] shaped (n_walkers, rank at cut c); ``coeff`` is
    folded into L[0].
    """
    L = [coeff.reshape(-1, 1)]
    for core, v in zip(tt.cores, sites):
        L.append(_advance_left(L[-1], core, v))
    return L


def _right_partials(tt, sites):
    """Per-walker contractions strictly right of every cut: R[c] (n_walkers, rank)."""
    d = len(sites)
    R = [None] * (d + 1)
    R[d] = np.ones((sites[0].shape[0], 1))
    for m in range(d - 1, -1, -1):
        core = tt.cores[m]
        R[m] = (R[m + 1] @ core[:, 0, :].T) * sites[m][:, :1] + (
            R[m + 1] @ core[:, 1, :].T
        ) * sites[m][:, 1:]
    return R


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

    # The left partial is streamed cut by cut alongside the first phase, so
    # only the right partials are held: half the memory of holding both.
    R = _right_partials(pair.right, sites)
    lm = coeff.reshape(-1, 1)

    def y_matrix(lm, m):
        """Y at position m as a (rank_left, 2, rank_right) tensor."""
        rm = R[m + 1]
        y0 = (lm * sites[m][:, :1]).T @ rm
        y1 = (lm * sites[m][:, 1:]).T @ rm
        return np.stack([y0, y1], axis=1)

    cores = [y_matrix(lm, 0)]
    # vs[c]: the leading right singular vectors of the cross matrix x at cut
    # c, truncated to the target rank for the second phase
    vs = [None]
    for m in range(1, d):
        s_prev = pair.left.cores[m - 1]
        g_prev = cores[m - 1]
        if m == 1:
            x = np.einsum("aix,aig->xg", s_prev, g_prev)
        else:
            x = np.einsum("ab,aix,big->xg", x, s_prev, g_prev, optimize=True)
        svd = _svd(x)
        vs.append(svd[2][: ranks[m - 1]])
        lm = _advance_left(lm, s_prev, sites[m - 1])
        try:
            cores.append(_svd_solve(svd, y_matrix(lm, m), LS_CUTOFF))
        except RankZeroError:
            raise RankZeroError(m) from None

    # Second phase: contract the truncated V factors into the neighboring
    # cores.
    trimmed = []
    for m in range(d):
        g = cores[m]
        if m > 0:
            g = np.einsum("ag,gib->aib", vs[m], g)
        if m < d - 1:
            g = np.einsum("aig,bg->aib", g, vs[m + 1])
        trimmed.append(g)

    # Rescale: unit max-entry cores, global scale folded into the first.
    scale = 1.0
    for m in range(d - 1, 0, -1):
        s = np.max(np.abs(trimmed[m]))
        if s > 0.0:
            trimmed[m] = trimmed[m] / s
            scale *= s
    trimmed[0] = trimmed[0] * scale
    return TensorTrain(trimmed)
