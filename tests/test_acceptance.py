"""Acceptance gate: every headline requirement at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The d=16 production-configuration runs are shared module-scope
fixtures; the full module takes roughly 15 minutes single-core.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

pytestmark = pytest.mark.slow

from ttqmc.config import RunConfig
from ttqmc.oracle import exact_ground
from ttqmc.qmc_driver import default_trial, fidelity, mixed_energy, run
from ttqmc.sketching import make_sketch_pair, sketch_ensemble
from ttqmc.spin_model import (
    PropagatorSet,
    analytic_chain_energy,
    build_lattice,
    dense_hamiltonian,
    one_body_matrix,
)
from ttqmc.tensor_train import ProductState, TensorTrain, product_overlaps, tt_to_dense
from ttqmc.walker_engine import (
    Ensemble,
    Walker,
    population_control,
    reanchor_overlaps,
    sample_bond,
    step,
    stream,
)

SEEDS = (0, 1, 2, 3, 4)
E16 = None  # filled on first use


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _e16():
    global E16
    if E16 is None:
        E16 = analytic_chain_energy(16, 1.0)
    return E16


def headline_config(seed, **kw):
    base = dict(
        lattice_kind="chain",
        lattice_dims=(16,),
        lattice_boundary="periodic",
        g=1.0,
        dtau=0.01,
        n_walkers=2000,
        total_steps=4000,
        measure_every=10,
        popcontrol_every=10,
        sketch_every=50,
        sketch_stop_step=2000,
        sketch_rank=60,
        delta=0.1,
        seed=seed,
    )
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def reanchored_runs():
    """(relative error, relative stderr, fidelity) per seed, re-anchored mode."""
    lat = build_lattice("chain", (16,), "periodic")
    ground = exact_ground(lat, 1.0, cap=16).ground_state
    out = []
    for seed in SEEDS:
        trace, trial, _ = run(headline_config(seed))
        rel = (trace.mean - _e16()) / abs(_e16())
        out.append((rel, trace.stderr / abs(_e16()), fidelity(trial, ground)))
    return out


@pytest.fixture(scope="module")
def vanilla_runs():
    out = []
    for seed in SEEDS:
        trace, _, _ = run(headline_config(seed, reanchor=False))
        out.append((trace.mean - _e16()) / abs(_e16()))
    return out


@pytest.fixture(scope="module")
def vanilla_small_runs():
    out = []
    for seed in SEEDS:
        trace, _, _ = run(headline_config(seed, reanchor=False, n_walkers=200))
        out.append((trace.mean - _e16()) / abs(_e16()))
    return out


def test_criterion_1_hs_exactness():
    # dense sum_x p(x) b(x) equals exp(dtau z_i z_j) entrywise
    t0 = time.perf_counter()
    worst = 0.0
    for dtau in (0.001, 0.01, 0.1):
        prop = PropagatorSet.build(1.0, dtau)
        z = np.array([1.0, -1.0])
        avg = np.zeros(4)
        for x in (1, -1):
            fac = prop.bond_site_factors(x)
            avg += 0.5 * prop.bond_prefactor * np.kron(fac, fac)
        exact = np.exp(dtau * np.kron(z, z))
        worst = max(worst, float(np.max(np.abs(avg - exact))))
    ok = worst < 1e-13 and time.perf_counter() - t0 < 1.0
    _report(1, ok, f"max entrywise deviation {worst:.2e} (< 1e-13)")


def test_criterion_2_trotter_order():
    lat = build_lattice("chain", (4,), "periodic")
    H = dense_hamiltonian(lat, 1.0)
    d = 4
    errs = []
    for dtau in (0.02, 0.01):
        half = one_body_matrix(1.0, dtau)
        B1 = np.array([[1.0]])
        for _ in range(d):
            B1 = np.kron(B1, half)
        states = np.arange(2 ** d)
        zz = np.zeros(2 ** d)
        for p, q in lat.chain_bonds:
            zz += (1.0 - 2.0 * ((states >> (d - 1 - p)) & 1)) * (
                1.0 - 2.0 * ((states >> (d - 1 - q)) & 1)
            )
        approx = B1 @ np.diag(np.exp(dtau * zz)) @ B1
        errs.append(np.linalg.norm(approx - expm(-dtau * H), 2))
    ratio = errs[0] / errs[1]
    _report(2, 6.0 <= ratio <= 10.0, f"error ratio 0.02/0.01 = {ratio:.2f} (in [6, 10])")


def test_criterion_3_overlap_constancy():
    # both auxiliary-field branches give the same post-update weighted overlap
    rng = np.random.default_rng(99)
    prop = PropagatorSet.build(1.0, 0.05)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(3, 8))
        trial = ProductState(np.exp(0.6 * rng.standard_normal((d, 2)))).as_tt()
        sites = np.exp(0.6 * rng.standard_normal((d, 2)))
        state = ProductState(sites)
        walker = Walker(
            state,
            float(np.exp(rng.standard_normal())),
            float(product_overlaps(trial, state.sites[:, :, None])[0]),
        )
        p, q = sorted(rng.choice(d, size=2, replace=False))
        vals = []
        for u in (1e-12, 1.0 - 1e-12):

            class _U:
                def __init__(self, v):
                    self.v = v

                def random(self, n=None):
                    return self.v if n is None else np.full(n, self.v)

            out = sample_bond(walker, (p, q), trial, prop, _U(u))
            vals.append(
                out.weight * float(product_overlaps(trial, out.state.sites[:, :, None])[0]) / out.overlap
            )
        worst = max(worst, abs(vals[0] - vals[1]) / abs(vals[0]))
    _report(3, worst < 1e-12, f"worst branch rel. diff {worst:.2e} over 1000 triples (< 1e-12)")


def test_criterion_4_zero_variance():
    lat = build_lattice("chain", (8,), "open")
    sol = exact_ground(lat, 1.0)
    trial = TensorTrain.from_dense(sol.ground_state)
    ens = Ensemble.from_trial_product(default_trial(8), 500, seed=0)
    reanchor_overlaps(ens, trial)
    prop = PropagatorSet.build(1.0, 0.01)
    from ttqmc.qmc_driver import _batch_local_energies

    stds, mixed_errs = [], []
    for n in range(1, 101):
        step(ens, trial, lat, prop)
        if n % 10 == 0:
            eloc = _batch_local_energies(ens, trial, lat, 1.0)
            stds.append(float(np.std(eloc[ens.alive])))
            mixed_errs.append(abs(mixed_energy(ens, trial, lat, 1.0) - sol.energy))
            population_control(ens, stream(0, 2, n))
    ok = max(stds) < 1e-9 and max(mixed_errs) < 1e-9
    _report(
        4,
        ok,
        f"max local-energy std {max(stds):.2e} (< 1e-9), "
        f"max mixed-energy error {max(mixed_errs):.2e} (< 1e-9)",
    )


def test_criterion_5_analytic_vs_dense():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (8, 10, 12):
        lat = build_lattice("chain", (d,), "periodic")
        for g in (0.5, 1.0, 2.0):
            sol = exact_ground(lat, g)
            worst = max(worst, abs(sol.energy - analytic_chain_energy(d, g)))
    elapsed = time.perf_counter() - t0
    _report(5, worst < 1e-9, f"max |analytic - eigensolver| {worst:.2e} (< 1e-9), {elapsed:.0f}s")


def test_criterion_6_sketch_recovery():
    rng = np.random.default_rng(7)
    d = 6
    single = Walker(
        ProductState(rng.standard_normal((d, 2)) + 2.0), weight=1.2, overlap=0.8
    )
    u, v = (rng.standard_normal((d, 2)) + 1.5 for _ in range(2))
    pairwalkers = [
        Walker(ProductState(u), 0.5, 1.0),
        Walker(ProductState(v), 1.5, 1.0),
        Walker(ProductState(u), 1.0, 2.0),
        Walker(ProductState(v), 2.0, 0.5),
    ]
    truth_single = single.weight / single.overlap * single.state.to_dense()
    truth_pair = sum(w.weight / w.overlap * w.state.to_dense() for w in pairwalkers)
    passes = 0
    for seed in range(20):
        pair = make_sketch_pair(d, 12, 0.1, seed=seed)
        fit1 = tt_to_dense(sketch_ensemble([single], pair, [2, 4, 4, 4, 2]))
        err1 = np.linalg.norm(fit1 - truth_single) / np.linalg.norm(truth_single)
        fit2 = tt_to_dense(sketch_ensemble(pairwalkers, pair, [2, 2, 2, 2, 2]))
        err2 = np.linalg.norm(fit2 - truth_pair) / np.linalg.norm(truth_pair)
        if err1 < 1e-8 and err2 < 1e-6:
            passes += 1
    _report(6, passes >= 19, f"{passes}/20 sketch seeds recover (need >= 19)")


def test_criterion_7_headline_energy(reanchored_runs):
    rel, rel_err, _ = reanchored_runs[0]
    ok = abs(rel) <= 5e-4 and abs(rel) <= 3.0 * rel_err
    _report(
        7,
        ok,
        f"d=16 relative error {rel:+.2e} (<= 5e-4), {abs(rel) / rel_err:.2f} blocked stderr (<= 3)",
    )


def test_criterion_8_reanchoring_beats_vanilla(reanchored_runs, vanilla_runs):
    re_mean = float(np.mean([abs(r[0]) for r in reanchored_runs]))
    va_mean = float(np.mean([abs(v) for v in vanilla_runs]))
    ok = va_mean > re_mean and 1e-4 <= va_mean <= 1e-2
    _report(
        8,
        ok,
        f"mean |rel err| vanilla {va_mean:.2e} vs re-anchored {re_mean:.2e} "
        f"(vanilla strictly larger, order 1e-3)",
    )


def test_criterion_9_fidelity(reanchored_runs):
    fids = [r[2] for r in reanchored_runs]
    n_pass = sum(f >= 0.9 for f in fids)
    _report(
        9,
        n_pass >= 4,
        f"fidelity >= 0.9 on {n_pass}/5 seeds (need >= 4); values "
        + ", ".join(f"{f:.3f}" for f in fids),
    )


def test_criterion_10_population_bias_direction(vanilla_runs, vanilla_small_runs):
    b2000 = float(np.mean(vanilla_runs))
    b200 = float(np.mean(vanilla_small_runs))
    ok = abs(b200) > abs(b2000)
    _report(
        10,
        ok,
        f"|bias| N=200 {abs(b200):.2e} > N=2000 {abs(b2000):.2e}; "
        f"ratio {abs(b200) / abs(b2000):.1f}",
    )


def test_criterion_11_linear_cost_in_d():
    g = 1.0
    times = {}
    for d in (16, 32):
        rng = np.random.default_rng(d)
        lat = build_lattice("chain", (d,), "periodic")
        ens = Ensemble.from_trial_product(default_trial(d), 2000, seed=1)
        for m in range(d):
            ens.sites[m] = np.exp(0.3 * rng.standard_normal((2000, 2))).T
        pair = make_sketch_pair(d, 60, 0.1, seed=5)
        ranks = RunConfig().target_ranks(d)
        sketch_times, overlap_times = [], []
        cache = ens.attach(default_trial(d))
        cache.note_all_changed()
        ens.ovlp = np.maximum(cache.overlaps(), 1e-300)
        tt = sketch_ensemble(ens, pair, ranks)  # warm-up + trial builder
        trial = tt
        for _ in range(3):
            t0 = time.perf_counter()
            sketch_ensemble(ens, pair, ranks)
            sketch_times.append(time.perf_counter() - t0)
            cache = ens.attach(trial)
            t0 = time.perf_counter()
            cache.note_all_changed()
            cache.overlaps()
            overlap_times.append(time.perf_counter() - t0)
        times[d] = (min(sketch_times), min(overlap_times))
    sketch_ratio = times[32][0] / times[16][0]
    overlap_ratio = times[32][1] / times[16][1]
    ok = sketch_ratio <= 2.5 and overlap_ratio <= 2.5
    _report(
        11,
        ok,
        f"d=32/d=16 wall-time ratios: sketch {sketch_ratio:.2f}, "
        f"trial overlap {overlap_ratio:.2f} (both <= 2.5)",
    )
