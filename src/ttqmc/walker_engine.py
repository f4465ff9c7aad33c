"""Walker propagation for constrained-path AFQMC on TFI systems.

Walkers are separable states with a positive weight and a cached trial
overlap O_tr(phi) = max(<psi_tr, phi>, 0).  One imaginary-time step applies
a half one-body propagator, then every lattice bond stochastically (one
auxiliary field per bond, importance-sampled against the trial), then the
second half one-body propagator:

  * one-body:  phi <- B phi,  w <- w * O_tr(phi') / O_tr(phi);
  * per bond:  x sampled with probability proportional to O_tr(b(x) phi),
               w <- w * N  with  N = (O_tr(b(+1)phi) + O_tr(b(-1)phi))
                                     / (2 O_tr(phi)),
               which is independent of the sampled x.

A walker whose overlap becomes non-positive is killed (weight 0) and stays
inert: never propagated, never counted.  A step that leaves a non-finite
or negative weight, or a non-finite overlap, raises WeightError naming
the step and the first bad walker.

Between two steps that nothing observes, the trailing half of one step and
the leading half of the next are one full propagator, B_half B_half =
B_full.  ``step(settle=False)`` skips its trailing half and marks the
ensemble ``pending_half``; the next step then applies B_full in one pass.
The weight ratios telescope, so the only difference from two half passes
is the constraint check on the state between them, which is skipped.
Observers (``mixed_energy``, ``population_control``, ``reanchor_overlaps``,
``sketch_ensemble``, ``Ensemble.walker(s)``) raise on a pending ensemble.
Every one-body pass rescales the site vectors to unit norm; the
represented ensemble sum_k w_k phi_k / O_tr(phi_k) is invariant under that.

The site vectors are one C-contiguous (d, 2, n_walkers) array, walker-last,
that every update writes in place and the overlap cache shares.  Every
trial is a ``TensorTrain``: a product state is rank 1, a re-anchored trial
is the TT that ``sketch_ensemble`` fits, and a dense vector becomes an
exact TT through ``TensorTrain.from_dense``.  Every overlap goes through
the walker-last kernel of ``tensor_train``: partial contractions are
(rank, n_walkers) arrays, and a site step is one GEMM with the core's
stacked transfer matrix followed by the two physical halves
(C_i^T L) * sites[m][i].  Overlaps are contracted right to left, in the
cache and in ``product_overlaps``, so stored and directly computed
overlaps share one path.

A bond at chain positions (p, q) yields both field overlaps from one pass:
the sum and the difference of the site-p halves (the difference is sigma^z
at p, carried across the inner sites; the sum carried to q is left[q]) are
dotted with the two site-q halves, and the diagonal field factors combine
the four dots.  Once a field is chosen the site-p halves give the new
left[p+1], which the cache stores.  Bonds run in ``Lattice.chain_bonds``
order, by right end q and shorter first for equal q.  The overlap sweep of
the one-body pass leaves every right environment valid, a bond never
invalidates one that a later bond reads, and each nearest-neighbour bond
finds its left environment already advanced, so the bond pass rebuilds no
environment; a periodic wrap bond runs last.  The cache keeps the sweep's
site-q halves rather than their sums, so a bond whose site q no earlier
bond changed (every chain bond but the wrap bond, the first bond ending at
each q on a cylinder) and every sigma^z sigma^z measurement dot them
without recomputing them.

Randomness comes from counter-based Philox streams keyed by (seed,
purpose, step): one draw per step gives the uniforms of every bond and
walker, so trajectories are reproducible for a fixed seed; the tests
check that a re-anchored d=16 run writes the same bytes at 1 and at 2
OpenBLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DeadEnsembleError,
    PendingHalfStepError,
    WeightError,
)
from .tensor_train import (
    ProductState,
    advance,
    left_transfer,
    right_transfer,
    site_halves,
)

_PURPOSE_BOND = 1
_PURPOSE_POP = 2


def stream(seed, purpose, step=0):
    """Deterministic counter-based generator for one (purpose, step) slot."""
    key = [int(seed) & (2 ** 64 - 1), int(purpose)]
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, int(step), 0]))


@dataclass
class Walker:
    """A separable walker: product state, weight, cached trial overlap."""

    state: ProductState
    weight: float
    overlap: float


class _TTCache:
    """Walker-last partial contractions <psi_tr, phi_k> over an ensemble.

    ``left[m]`` (r_m, n) contracts sites < m and is valid for m <= lv.  The
    right side is held as halves, not partials: ``rhalf[j]`` (2, r_j, n) is
    ``site_halves(R_{j+1}, wr[j], sites[j])``, valid for j >= rv, where
    R_{j+1} = rhalf[j+1][0] + rhalf[j+1][1] contracts sites > j (ones at
    j + 1 = d).  ``right(m)`` forms that sum only where a full partial is
    read: the sweep's next site, ``overlaps``, ``sigma_x_overlaps`` and a
    bond's recompute.

    A bond (p, q) dots the site-q halves, so it reads ``rhalf[q]`` whenever
    q >= rv: site q and every site right of it are unchanged since the
    sweep.  That holds for every chain bond but the wrap bond, for the first
    bond ending at each q on a cylinder, and for every ``zz_overlaps``.
    Otherwise (an earlier bond changed site q) the halves are recomputed
    from right(q+1).  ``bond_overlaps`` keeps the site-p halves so that
    ``apply_bond`` can store the new left[p+1] without recontraction.
    ``wl`` and ``wr`` are the trial's stacked per-core transfer matrices.
    """

    def __init__(self, tt, sites):
        self.sites = sites  # the Ensemble's (d, 2, n) array, shared
        self.d = d = tt.d
        self.wl = [left_transfer(c) for c in tt.cores]
        self.wr = [right_transfer(c) for c in tt.cores]
        n = sites.shape[-1]
        self.left = [None] * (d + 1)
        self.left[0] = np.ones((1, n))
        self.rhalf = [None] * d
        self._ones = np.ones((1, n))
        self.lv = 0
        self.rv = d
        self._halves = None  # site-p halves of the last bond_overlaps call

    def ensure_left(self, m):
        while self.lv < m:
            j = self.lv
            self.left[j + 1] = advance(self.left[j], self.wl[j], self.sites[j])
            self.lv += 1

    def ensure_right(self, m):
        while self.rv > m:
            j = self.rv - 1
            self.rhalf[j] = site_halves(self.right(j + 1), self.wr[j], self.sites[j])
            self.rv -= 1

    def right(self, m):
        """The right partial (r_m, n) over sites >= m; needs m >= rv."""
        if m == self.d:
            return self._ones
        h = self.rhalf[m]
        return h[0] + h[1]

    def note_all_changed(self):
        self.lv = 0
        self.rv = self.d

    def overlaps(self):
        """<psi, phi_k> from right(0): the sweep of ``product_overlaps``."""
        self.ensure_right(0)
        return self.right(0)[0]

    def site_right_halves(self, q):
        """The two halves of site q against right(q+1): stored if q >= rv."""
        if self.rv <= q:
            return self.rhalf[q]
        self.ensure_right(q + 1)
        return site_halves(self.right(q + 1), self.wr[q], self.sites[q])

    def _bond_dots(self, p, q):
        """Sum and difference contractions of a bond, dotted with site q.

        ``h`` holds the two physical halves of site p.  Their sum carried
        to cut q is left[q]; their difference (sigma^z at site p) is carried
        through the inner sites.  Returns ``h`` and E (2, 2, n) with
        E[0, j] = <left[q], B_j> and E[1, j] = <diff, B_j>, where B_j is
        half j of site q against right(q+1).
        """
        self.ensure_left(p)
        b = self.site_right_halves(q)
        wl, sites = self.wl, self.sites
        h = site_halves(self.left[p], wl[p], sites[p])
        if self.lv == p:
            self.left[p + 1] = h[0] + h[1]
            self.lv = p + 1
        self.ensure_left(q)
        diff = h[0] - h[1]
        for m in range(p + 1, q):
            diff = advance(diff, wl[m], sites[m])
        e = np.empty((2, 2, b.shape[-1]))
        np.einsum("rn,jrn->jn", self.left[q], b, out=e[0])
        np.einsum("rn,jrn->jn", diff, b, out=e[1])
        return h, e

    def bond_overlaps(self, p, q, pair):
        """Rows <psi, b(+1) phi_k> and <psi, b(-1) phi_k> for the bond at (p, q)."""
        self._halves, e = self._bond_dots(p, q)
        return pair @ e.reshape(4, -1)

    def apply_bond(self, p, q, fp):
        """Store left[p+1] for the applied site-p factors ``fp`` (2, n)."""
        self.left[p + 1] = np.einsum("irn,in->rn", self._halves, fp)
        self._halves = None
        self.lv = p + 1
        self.rv = max(self.rv, q + 1)

    def ensure_measure(self):
        self.ensure_left(self.d)
        self.ensure_right(0)

    def sigma_x_overlaps(self, m):
        flipped = advance(self.left[m], self.wl[m], self.sites[m][::-1])
        return np.einsum("rn,rn->n", flipped, self.right(m + 1))

    def zz_overlaps(self, p, q):
        _, e = self._bond_dots(p, q)
        return e[1, 0] - e[1, 1]


class Ensemble:
    """A fixed-size walker population, stored struct-of-arrays.

    ``sites[m, :, k]`` is walker k's site-m vector; every writer updates
    the (d, 2, n_walkers) ``sites`` in place, since the overlap cache shares
    it.  ``weight`` and ``ovlp`` are the per-walker weight and cached trial
    overlap.  ``step`` counts completed imaginary-time steps; ``seed`` keys
    the random streams.  ``pending_half`` is set while the last step's
    trailing half one-body propagator is still owed (see ``step``);
    observers refuse that state.
    """

    def __init__(self, sites, weight, ovlp, seed, step=0):
        self.sites = np.array(sites, dtype=np.float64, order="C")
        self.weight = np.array(weight, dtype=np.float64)
        self.ovlp = np.array(ovlp, dtype=np.float64)
        n = self.weight.shape[0]
        if self.sites.ndim != 3 or self.sites.shape[1:] != (2, n):
            raise ValueError(f"expected a (d, 2, {n}) site array, got shape {self.sites.shape}")
        self.seed = int(seed)
        self.step = int(step)
        self.reanchor_kill_counts = []
        self.pending_half = False
        self._cache = None
        self._trial = None

    @classmethod
    def from_trial_product(cls, trial, n_walkers, seed):
        """All walkers initialized to the rank-1 TT ``trial``, weight 1."""
        psites = _product_sites(trial)
        sites = np.broadcast_to(psites[:, :, None], psites.shape + (n_walkers,))
        ens = cls(sites, np.ones(n_walkers), np.empty(n_walkers), seed)
        cache = ens.attach(trial)
        ens.ovlp = np.maximum(cache.overlaps(), 0.0)
        if np.any(ens.ovlp <= 0.0):
            raise ValueError("initial trial has non-positive self-overlap")
        return ens

    @classmethod
    def from_walkers(cls, walkers, seed=0, step=0):
        sites = np.stack([w.state.sites for w in walkers], axis=-1)
        return cls(sites, [w.weight for w in walkers], [w.overlap for w in walkers], seed, step)

    @property
    def n_walkers(self):
        return self.weight.shape[0]

    @property
    def d(self):
        return len(self.sites)

    @property
    def alive(self):
        return self.weight > 0.0

    def require_settled(self, observer):
        """Raise PendingHalfStepError if a half one-body step is still owed."""
        if self.pending_half:
            raise PendingHalfStepError(observer, self.step)

    def walker(self, k):
        self.require_settled("Ensemble.walker")
        state = ProductState(self.sites[:, :, k])
        return Walker(state=state, weight=float(self.weight[k]), overlap=float(self.ovlp[k]))

    def attach(self, trial):
        """Bind (or reuse) the overlap cache for the TT ``trial``."""
        if self._cache is None or self._trial is not trial:
            self._cache = _TTCache(trial, self.sites)
            self._trial = trial
        return self._cache

    def detach(self):
        """Drop the overlap cache; the next ``attach`` builds a fresh one."""
        self._cache = None
        self._trial = None


def _product_sites(tt):
    """The (d, 2) site vectors of a rank-1 TT; ValueError for higher rank."""
    if any(r != 1 for r in tt.ranks):
        raise ValueError("initial walkers need a separable (rank-1) trial")
    return np.stack([c.reshape(2) for c in tt.cores])


def _write_masked(arr, mask, all_true, values):
    """``values`` where the walker mask is set, else ``arr`` (walker axis last)."""
    return values if all_true else np.where(mask, values, arr)


def _one_body_pass(ens, cache, B, alive, all_alive):
    """phi <- B phi for alive walkers; weight by the overlap ratio.

    ``B`` is the half or the full one-body propagator, applied to every site
    of every walker by one matmul.  The site vectors are rescaled to unit
    norm and the product of the norms (taken in site order) folded into the
    weight.  The fresh overlaps come from the cache's right-to-left sweep,
    which leaves every right environment valid for the bond pass.
    """
    new = np.matmul(B.T, ens.sites)
    norms = np.sqrt(np.square(new).sum(axis=1))
    scale = np.prod(norms, axis=0)
    new /= norms[:, None, :]
    ens.sites[...] = _write_masked(ens.sites, alive, all_alive, new)
    cache.note_all_changed()
    fresh = np.maximum(cache.overlaps(), 0.0)
    old = np.where(ens.ovlp > 0.0, ens.ovlp, 1.0)
    ratio = fresh * scale / old
    ens.weight = _write_masked(ens.weight, alive, all_alive, ens.weight * ratio)
    ens.ovlp = _write_masked(ens.ovlp, alive, all_alive, fresh)


def _bond_factors(prop):
    """Diagonal HS factors of a bond: (fac, pair), built once per step.

    ``fac`` (4, 3) holds the site-p factors in rows 0-1 and the site-q
    factors in rows 2-3: column 0 is the field x = +1, column 1 is x = -1
    and column 2 is all ones, the "no update" column for walkers a bond
    leaves unchanged.  The bond prefactor exp(-dtau) is folded into the
    site-p factors.  ``pair`` (2, 4) maps the four dots of
    ``_TTCache._bond_dots`` to the two field overlaps: it is the site-p
    factors in the (sum, difference) basis of the halves times the site-q
    factors.
    """
    fac_q = np.array([prop.bond_site_factors(1), prop.bond_site_factors(-1), np.ones(2)])
    fac_p = fac_q.copy()
    fac_p[:2] *= prop.bond_prefactor
    sum_diff = fac_p[:2] @ np.array([[0.5, 0.5], [0.5, -0.5]])
    pair = (sum_diff[:, :, None] * fac_q[:2, None, :]).reshape(2, 4)
    return np.concatenate((fac_p.T, fac_q.T)), pair


def _sample_bond_kernel(ens, cache, p, q, factors, uniforms, alive, all_alive):
    """One stochastic bond update, vectorized over walkers.

    ``factors`` is the pair of ``_bond_factors``.  Returns the updated
    alive mask (walkers with both field overlaps non-positive are killed)
    and whether it is all set; a NaN sum kills with a NaN overlap, named by
    the step's check.
    """
    fac, pair = factors
    o = cache.bond_overlaps(p, q, pair)
    np.maximum(o, 0.0, out=o)
    tot = o[0] + o[1]
    sel_minus = uniforms * tot >= o[0]
    act = alive & (tot > 0.0)
    all_act = bool(act.all())
    field = sel_minus.astype(np.intp)

    denom = np.where(ens.ovlp > 0.0, ens.ovlp, 1.0)
    norm_const = 0.5 * tot / denom
    ens.weight = _write_masked(ens.weight, act, all_act, ens.weight * norm_const)
    if not all_act:
        field[~act] = 2
        ens.weight = np.where(alive & ~act, 0.0, ens.weight)
        ens.ovlp = np.where(alive & np.isnan(tot), np.nan, ens.ovlp)
    ens.ovlp = _write_masked(ens.ovlp, act, all_act, np.where(sel_minus, o[1], o[0]))

    f = fac.take(field, axis=1)  # the site-p factors, then the site-q ones
    ens.sites[p] *= f[:2]
    ens.sites[q] *= f[2:]
    cache.apply_bond(p, q, f[:2])
    return act, all_act


def sample_bond(walker, bond, trial, propagators, rng):
    """Stochastic update of a single walker on one bond (chain positions)."""
    if walker.weight <= 0.0 or walker.overlap <= 0.0:
        return Walker(walker.state, walker.weight, walker.overlap)
    p, q = sorted(bond)
    ens = Ensemble.from_walkers([walker])
    cache = ens.attach(trial)
    u = np.array([rng.random()])
    _sample_bond_kernel(ens, cache, p, q, _bond_factors(propagators), u, ens.alive, True)
    return ens.walker(0)


@np.errstate(all="ignore")
def step(ensemble, trial, lattice, propagators, settle=True):
    """Advance every positive-weight walker one imaginary-time step.

    With ``settle=False`` the trailing half one-body propagator is owed
    (``ensemble.pending_half``): the next step opens with one full one-body
    propagator in place of the two halves.  Observers refuse a pending
    ensemble, so the last step before one must settle.  Floating-point
    errors raise no NumPy warning; the finished step is checked instead,
    and a non-finite or negative weight, an overflowing weight sum or a
    non-finite overlap raises WeightError naming the step (and the first
    bad walker).
    """
    alive = ensemble.alive
    if not alive.any():
        raise DeadEnsembleError("all walkers dead before step", {"step": ensemble.step})
    all_alive = bool(alive.all())
    cache = ensemble.attach(trial)
    factors = _bond_factors(propagators)

    lead = propagators.one_body_full if ensemble.pending_half else propagators.one_body_half
    _one_body_pass(ensemble, cache, lead, alive, all_alive)
    ensemble.pending_half = False
    alive = ensemble.alive
    all_alive = bool(alive.all())

    bonds = lattice.chain_bonds
    uniforms = stream(ensemble.seed, _PURPOSE_BOND, ensemble.step).random(
        (len(bonds), ensemble.n_walkers)
    )
    for (p, q), u in zip(bonds, uniforms):
        alive, all_alive = _sample_bond_kernel(ensemble, cache, p, q, factors, u, alive, all_alive)

    if settle:
        _one_body_pass(ensemble, cache, propagators.one_body_half, alive, all_alive)
    else:
        ensemble.pending_half = True

    ensemble.step += 1
    checked_weight_sum(ensemble, "propagation")
    bad = np.flatnonzero(~np.isfinite(ensemble.ovlp))
    if bad.size:
        raise WeightError(ensemble.step, int(bad[0]), float(ensemble.ovlp[bad[0]]), "propagation", "overlap")
    if not ensemble.alive.any():
        raise DeadEnsembleError("all walkers died during step", {"step": ensemble.step})
    return ensemble


def comb_copy_counts(weights, offset):
    """Copy count per walker for a given comb offset (weights already mean-1)."""
    w = np.asarray(weights, dtype=np.float64)
    marks = np.ceil(offset + np.cumsum(w)).astype(np.int64)
    marks[-1] = w.shape[0] + 1
    return np.diff(np.concatenate(([1], marks)))


def checked_weight_sum(ensemble, user):
    """Sum of the weights, for ``user`` (named in the error) to normalize by.

    A non-finite or negative weight, or a sum that overflows, raises
    WeightError naming the step and the first bad walker.
    """
    w = ensemble.weight
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
    if bad.size:
        raise WeightError(ensemble.step, int(bad[0]), float(w[bad[0]]), user)
    total = float(w.sum())
    if total == np.inf:
        raise WeightError(ensemble.step, None, total, user)
    return total


def population_control(ensemble, rng):
    """Comb resampling: restores unit weights, preserves the population size.

    Weights are first normalized to mean 1; a single uniform offset then
    places a comb over the cumulative weights, so walker k receives a number
    of copies whose expectation is its normalized weight.  A non-finite or
    negative weight, or a sum that overflows, raises WeightError naming the
    step and the first bad walker.
    """
    ensemble.require_settled("population_control")
    w = ensemble.weight
    n = w.shape[0]
    total = checked_weight_sum(ensemble, "the comb")
    if total <= 0.0:
        raise DeadEnsembleError("population control with no positive weight", {"step": ensemble.step})
    copies = comb_copy_counts(w * (n / total), float(rng.random()))
    src = np.repeat(np.arange(n), copies)
    # in its default mode np.take buffers ``out``, so it may overwrite its input
    np.take(ensemble.sites, src, axis=2, out=ensemble.sites)
    ensemble.ovlp = ensemble.ovlp[src]
    ensemble.weight = np.ones(n)
    if ensemble._cache is not None:
        # the stored partials belong to the walkers before the comb
        ensemble._cache.note_all_changed()
    return ensemble


@np.errstate(all="ignore")
def reanchor_overlaps(ensemble, new_trial):
    """Swap the trial: recompute cached overlaps, kill non-positive ones.

    With no NumPy warning, an alive walker's non-finite fresh overlap raises WeightError.
    """
    ensemble.require_settled("reanchor_overlaps")
    alive = ensemble.alive
    cache = ensemble.attach(new_trial)
    raw = cache.overlaps()
    bad = np.flatnonzero(alive & ~np.isfinite(raw))
    if bad.size:
        raise WeightError(ensemble.step, int(bad[0]), float(raw[bad[0]]), "re-anchoring", "overlap")
    fresh = np.maximum(raw, 0.0)
    killed = alive & (fresh <= 0.0)
    ensemble.ovlp = np.where(alive, fresh, ensemble.ovlp)
    ensemble.weight = np.where(killed, 0.0, ensemble.weight)
    kills = int(killed.sum())
    ensemble.reanchor_kill_counts.append(kills)
    if not ensemble.alive.any():
        raise DeadEnsembleError(
            "re-anchoring killed every walker",
            {"step": ensemble.step, "kills": kills},
        )
    return ensemble
