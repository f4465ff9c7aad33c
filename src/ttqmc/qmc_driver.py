"""Run orchestration: propagation schedule, energy estimators, statistics.

The outer loop alternates episodes of constrained-path propagation with
re-anchoring events: every ``sketch_every`` steps (until
``sketch_stop_step``) the walker ensemble is sketched into a low-rank TT
which replaces the trial wavefunction for the following episode.  Energy is
always measured with the mixed estimator

    E_mixed = sum_k w_k E_local(psi_tr, phi_k) / sum_k w_k,
    E_local(psi_tr, phi) = <psi_tr, H phi> / <psi_tr, phi>,

evaluated term by term (sigma^x and sigma^z sigma^z applied to a product
state are again product states).  Within a step the order is: propagate,
measure, population control, sketch + re-anchor.  A step that none of
these follows, and that is not the last, leaves its trailing half one-body
propagator to the next step (``step(settle=False)``), which applies the two
halves as one full propagator.  Runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DeadEnsembleError, NonFiniteResultError, ZeroOverlapError
from .sketching import make_sketch_pair, sketch_ensemble
from .tensor_train import TensorTrain, tt_to_dense
from .walker_engine import (
    _PURPOSE_POP,
    Ensemble,
    checked_weight_sum,
    population_control,
    reanchor_overlaps,
    step,
    stream,
)


@dataclass
class EnergyTrace:
    """Measured (step, mixed energy, total weight, alive count) series."""

    steps: np.ndarray
    energy: np.ndarray
    total_weight: np.ndarray
    alive: np.ndarray
    equilibration_steps: int
    mean: float | None = None
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.steps) <= 0):
            raise ValueError("trace steps must be strictly increasing")

    def post_equilibration_energies(self):
        return self.energy[self.steps >= self.equilibration_steps]


def _batch_local_energies(ensemble, trial, lattice, g):
    """Local energies of all walkers through the cached partials (0 for dead)."""
    cache = ensemble.attach(trial)
    cache.ensure_measure()
    den = cache.overlaps()
    sx = np.zeros(ensemble.n_walkers)
    for m in range(ensemble.d):
        sx += cache.sigma_x_overlaps(m)
    zz = np.zeros(ensemble.n_walkers)
    for p, q in lattice.chain_bonds:
        zz += cache.zz_overlaps(p, q)
    alive = ensemble.alive
    safe_den = np.where(den != 0.0, den, 1.0)
    return np.where(alive & (den != 0.0), (-g * sx - zz) / safe_den, 0.0)


def mixed_energy(ensemble, trial, lattice, g):
    """Weight-weighted average of local energies over alive walkers.

    A non-finite or negative weight, or an overflowing sum, raises WeightError.
    The weights are divided by their sum before the dot, so a finite sum
    near the float maximum cannot overflow it; a non-finite energy raises
    NonFiniteResultError.
    """
    ensemble.require_settled("mixed_energy")
    total = checked_weight_sum(ensemble, "the mixed estimator")
    if total <= 0.0:
        raise DeadEnsembleError("mixed energy with zero total weight", {"step": ensemble.step})
    eloc = _batch_local_energies(ensemble, trial, lattice, g)
    energy = float(np.dot(ensemble.weight / total, eloc))
    if not np.isfinite(energy):
        raise NonFiniteResultError("the mixed energy", energy, ensemble.step)
    return energy


def blocking_error(samples):
    """Mean and standard error by pairwise blocking with plateau detection.

    Consecutive samples of a QMC trace are correlated; naive errors
    underestimate.  Pairs are averaged level by level, which grows the
    apparent error until blocks are longer than the correlation time; the
    first level where the estimate stops growing (within 5%) is taken as
    the plateau.  For uncorrelated data this terminates at the first level,
    reproducing the naive estimator.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("blocking needs at least 2 samples")
    mean = float(x.mean())
    cur = x
    err = float(np.std(cur, ddof=1) / np.sqrt(cur.size))
    while cur.size >= 16:
        cur = cur[: 2 * (cur.size // 2)].reshape(-1, 2).mean(axis=1)
        nxt = float(np.std(cur, ddof=1) / np.sqrt(cur.size))
        if nxt <= err * 1.05:
            return mean, max(err, nxt)
        err = nxt
    return mean, err


def fidelity(trial, reference):
    """|<trial, ref>| / (||trial|| ||ref||) for a TT ``trial``, in [0, 1]."""
    ref = np.asarray(reference, dtype=np.float64)
    vec = tt_to_dense(trial)
    if vec.size != ref.size:
        raise ValueError(f"trial has {vec.size} amplitudes, reference {ref.size}")
    denom = np.linalg.norm(vec) * np.linalg.norm(ref)
    if denom == 0.0:
        raise ZeroOverlapError("fidelity with a zero-norm state")
    return min(1.0, float(abs(vec @ ref) / denom))


def default_trial(d):
    """The fully disordered state 2^{-d/2} (1,1)^{otimes d} as a rank-1 TT."""
    return TensorTrain.from_product(np.full((d, 2), 2.0 ** -0.5))


def run(config):
    """Execute the full schedule; returns (trace, final trial TT, final ensemble).

    The walkers start as copies of the disordered state ``default_trial(d)``,
    which is also the first trial.  Deterministic for a fixed config and seed.
    """
    lattice = config.lattice
    prop = config.propagators
    sketch_stop = config.resolved_sketch_stop()
    d = lattice.d

    trial = default_trial(d)
    ensemble = Ensemble.from_trial_product(trial, config.n_walkers, config.seed)

    pair = None
    if config.reanchor:
        pair = make_sketch_pair(d, config.sketch_rank, config.delta, seed=config.seed)
        target_ranks = config.target_ranks(d)

    timers = {"propagate": 0.0, "measure": 0.0, "popcontrol": 0.0, "sketch": 0.0}
    records = []

    def measure(n):
        t0 = time.perf_counter()
        e = mixed_energy(ensemble, trial, lattice, config.g)
        records.append((n, e, float(ensemble.weight.sum()), int(ensemble.alive.sum())))
        timers["measure"] += time.perf_counter() - t0

    measure(0)
    for n in range(1, config.total_steps + 1):
        measuring = n % config.measure_every == 0
        combing = n % config.popcontrol_every == 0
        sketching = (
            config.reanchor
            and n % config.sketch_every == 0
            and n <= sketch_stop
        )
        settle = measuring or combing or sketching or n == config.total_steps
        t0 = time.perf_counter()
        step(ensemble, trial, lattice, prop, settle=settle)
        timers["propagate"] += time.perf_counter() - t0
        if measuring:
            measure(n)
        if combing:
            t0 = time.perf_counter()
            population_control(ensemble, stream(config.seed, _PURPOSE_POP, n))
            timers["popcontrol"] += time.perf_counter() - t0
        if sketching:
            t0 = time.perf_counter()
            # the outgoing trial's overlap cache is dead weight during the fit
            ensemble.detach()
            trial = sketch_ensemble(ensemble, pair, target_ranks)
            reanchor_overlaps(ensemble, trial)
            timers["sketch"] += time.perf_counter() - t0

    steps = np.array([r[0] for r in records], dtype=np.int64)
    energy = np.array([r[1] for r in records])
    trace = EnergyTrace(
        steps=steps,
        energy=energy,
        total_weight=np.array([r[2] for r in records]),
        alive=np.array([r[3] for r in records], dtype=np.int64),
        equilibration_steps=config.resolved_equilibration(),
        diagnostics={
            "wall_times": dict(timers),
            "reanchor_kills": list(ensemble.reanchor_kill_counts),
        },
    )
    tail = trace.post_equilibration_energies()
    if tail.size >= 2:
        trace.mean, trace.stderr = blocking_error(tail)
    elif tail.size == 1:
        trace.mean = float(tail[0])
    return trace, trial, ensemble

