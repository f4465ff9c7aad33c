import numpy as np
import pytest

from ttqmc.config import RunConfig
from ttqmc import qmc_driver
from ttqmc.errors import (
    DeadEnsembleError,
    NonFiniteResultError,
    WeightError,
    ZeroOverlapError,
)
from ttqmc.oracle import exact_ground
from ttqmc.qmc_driver import (
    EnergyTrace,
    blocking_error,
    default_trial,
    fidelity,
    mixed_energy,
    run,
)
from ttqmc.spin_model import PropagatorSet, build_lattice
from ttqmc.tensor_train import ProductState, tt_to_dense
from ttqmc.walker_engine import Ensemble, TrialHandle, Walker, reanchor_overlaps, step

from conftest import random_positive_product


def quick_config(**kw):
    base = dict(
        lattice_dims=(4,),
        lattice_boundary="periodic",
        n_walkers=20,
        total_steps=40,
        sketch_every=10,
        sketch_stop_step=20,
        equilibration_steps=20,
        sketch_rank=8,
        measure_every=5,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


def local_energy(trial, walker, lattice, g):
    """<psi_tr, H phi> / <psi_tr, phi> for a single walker, term by term.

    An oracle for ``_batch_local_energies``: every term is a direct
    ``trial.overlap`` of one modified product state, with no cache.
    """
    den = trial.overlap(walker.state)
    if den == 0.0:
        raise ZeroOverlapError("trial-walker overlap is zero")
    sites = walker.state.sites
    sx = 0.0
    for m in range(walker.state.d):
        flipped = sites.copy()
        flipped[m] = sites[m, ::-1]
        sx += trial.overlap(ProductState(flipped))
    zz = 0.0
    sign = np.array([1.0, -1.0])
    for p, q in lattice.chain_bonds:
        mod = sites.copy()
        mod[p] = sites[p] * sign
        mod[q] = sites[q] * sign
        zz += trial.overlap(ProductState(mod))
    return (-g * sx - zz) / den


class TestLocalEnergy:
    def test_uniform_trial_uniform_walker_d2(self):
        # sigma^x terms each reproduce the overlap; the zz term vanishes
        lat = build_lattice("chain", (2,), "open")
        trial = default_trial(2)
        state = ProductState(np.ones((2, 2)))
        walker = Walker(state, 1.0, trial.overlap(state))
        assert local_energy(trial, walker, lat, 1.0) == pytest.approx(-2.0, abs=1e-13)

    def test_exact_trial_gives_e0_for_any_walker(self, rng):
        lat = build_lattice("chain", (2,), "open")
        sol = exact_ground(lat, 1.0)
        trial = TrialHandle.from_dense(sol.ground_state)
        for _ in range(5):
            state = ProductState(rng.standard_normal((2, 2)) + 1.5)
            walker = Walker(state, 1.0, trial.overlap(state))
            assert local_energy(trial, walker, lat, 1.0) == pytest.approx(
                -np.sqrt(5.0), abs=1e-12
            )

    def test_classical_all_up(self):
        lat = build_lattice("chain", (4,), "periodic")
        trial = default_trial(4)
        state = ProductState(np.tile([1.0, 0.0], (4, 1)))
        walker = Walker(state, 1.0, trial.overlap(state))
        assert local_energy(trial, walker, lat, 0.0) == pytest.approx(-4.0, abs=1e-13)

    def test_zero_denominator_error(self):
        lat = build_lattice("chain", (2,), "open")
        trial = TrialHandle.from_product(ProductState([[1.0, -1.0], [1.0, 1.0]]))
        state = ProductState([[1.0, 1.0], [1.0, 0.0]])
        walker = Walker(state, 1.0, 0.0)
        with pytest.raises(ZeroOverlapError):
            local_energy(trial, walker, lat, 1.0)


class TestMixedEnergy:
    def test_identical_walkers(self, rng):
        lat = build_lattice("chain", (3,), "open")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 7, seed=0)
        expected = local_energy(trial, ens.walker(0), lat, 1.0)
        assert mixed_energy(ens, trial, lat, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_weighted_average_arithmetic(self, rng):
        # two walkers with weights (1, 3) and local energies (0, -4) -> -3;
        # realized through direct weighting of computed local energies
        lat = build_lattice("chain", (3,), "periodic")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 2, seed=0)
        for m in range(3):
            ens.sites[m][:, 1] = np.abs(rng.standard_normal(2)) + 0.3
        cache = ens.attach(trial)
        cache.note_all_changed()
        ens.ovlp = np.maximum(cache.overlaps(), 0.0)
        ens.weight = np.array([1.0, 3.0])
        e0 = local_energy(trial, ens.walker(0), lat, 1.0)
        e1 = local_energy(trial, ens.walker(1), lat, 1.0)
        expected = (1.0 * e0 + 3.0 * e1) / 4.0
        assert mixed_energy(ens, trial, lat, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_near_float_max_stay_finite(self):
        # weights summing to 1e308 would overflow an unnormalized dot
        lat = build_lattice("chain", (3,), "open")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 4, seed=0)
        expected = mixed_energy(ens, trial, lat, 1.0)
        ens.weight = np.full(4, 2.5e307)
        assert mixed_energy(ens, trial, lat, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_non_finite_energy_names_step(self, monkeypatch):
        lat = build_lattice("chain", (3,), "open")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 4, seed=0)
        ens.step = 7
        monkeypatch.setattr(qmc_driver, "_batch_local_energies", lambda *args: np.full(4, np.nan))
        with pytest.raises(NonFiniteResultError, match="mixed energy is nan at step 7") as err:
            mixed_energy(ens, trial, lat, 1.0)
        assert err.value.diagnostics["step"] == 7

    def test_matches_explicit_weighted_mean(self, rng):
        # estimator consistency: batch path vs single-walker local energies
        lat = build_lattice("chain", (5,), "periodic")
        trial = TrialHandle.from_product(random_positive_product(rng, 5))
        ens = Ensemble.from_trial_product(default_trial(5), 10, seed=2)
        reanchor_overlaps(ens, trial)
        step(ens, trial, lat, PropagatorSet.build(1.0, 0.05))
        walkers = [ens.walker(k) for k in range(ens.n_walkers)]
        explicit = sum(
            w.weight * local_energy(trial, w, lat, 1.0) for w in walkers
        ) / ens.weight.sum()
        assert mixed_energy(ens, trial, lat, 1.0) == pytest.approx(explicit, rel=1e-13)

    def test_exact_trial_zero_variance(self, rng):
        lat = build_lattice("chain", (4,), "open")
        sol = exact_ground(lat, 1.0)
        trial = TrialHandle.from_dense(sol.ground_state)
        ens = Ensemble.from_trial_product(default_trial(4), 15, seed=4)
        for m in range(4):
            ens.sites[m] = (np.abs(rng.standard_normal((15, 2))) + 0.2).T
        reanchor_overlaps(ens, trial)
        assert mixed_energy(ens, trial, lat, 1.0) == pytest.approx(sol.energy, abs=1e-10)

    def test_zero_total_weight_fatal(self):
        lat = build_lattice("chain", (3,), "open")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 3, seed=0)
        ens.weight[:] = 0.0
        with pytest.raises(DeadEnsembleError):
            mixed_energy(ens, trial, lat, 1.0)


    def test_non_finite_weight_named(self):
        lat = build_lattice("chain", (3,), "open")
        trial = default_trial(3)
        ens = Ensemble.from_trial_product(trial, 2, seed=0)
        ens.step = 4
        ens.weight = np.array([1.0, np.inf])
        with pytest.raises(WeightError) as err:
            mixed_energy(ens, trial, lat, 1.0)
        assert err.value.diagnostics["step"] == 4
        assert err.value.diagnostics["walker"] == 1
        assert "walker 1 has weight inf at step 4" in str(err.value)
        assert "died" not in str(err.value)


class TestBlockingError:
    def test_constant_series(self):
        mean, err = blocking_error(np.full(100, 2.5))
        assert mean == 2.5
        assert err == 0.0

    def test_iid_normal_close_to_naive(self, rng):
        sigma, n = 1.7, 1024
        ratios = []
        for _ in range(100):
            x = sigma * rng.standard_normal(n)
            _, err = blocking_error(x)
            ratios.append(err / (sigma / np.sqrt(n)))
        assert abs(np.mean(ratios) - 1.0) < 0.3

    def test_ar1_blocked_exceeds_naive(self, rng):
        rho, n = 0.9, 4096
        noise = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = noise[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + np.sqrt(1 - rho ** 2) * noise[i]
        naive = np.std(x, ddof=1) / np.sqrt(n)
        _, blocked = blocking_error(x)
        assert blocked > 2.0 * naive

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            blocking_error([1.0])


class TestFidelity:
    def test_identical(self):
        trial = default_trial(4)
        assert fidelity(trial, trial.to_dense()) == pytest.approx(1.0, rel=1e-14)

    def test_orthogonal(self):
        trial = default_trial(3)
        other = TrialHandle.from_product(
            ProductState(np.tile([1.0, -1.0], (3, 1)))
        )
        assert fidelity(trial, other.to_dense()) == pytest.approx(0.0, abs=1e-14)

    def test_strong_field_ground_state_is_disordered(self):
        # for g >> 1 the ground state approaches the uniform x-polarized state
        lat = build_lattice("chain", (8,), "periodic")
        sol = exact_ground(lat, 50.0)
        assert fidelity(default_trial(8), sol.ground_state) >= 0.99

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroOverlapError):
            fidelity(default_trial(3), np.zeros(8))

    def test_scale_invariant_and_clipped(self):
        trial = default_trial(5)
        assert fidelity(trial, -7.3 * trial.to_dense()) == 1.0


class TestEnergyTrace:
    def test_trace_steps_strictly_increasing(self):
        with pytest.raises(ValueError):
            EnergyTrace(
                steps=np.array([0, 10, 10]),
                energy=np.zeros(3),
                total_weight=np.ones(3),
                alive=np.ones(3, dtype=np.int64),
                equilibration_steps=0,
            )


class TestRun:
    def test_zero_steps_single_measurement(self):
        cfg = quick_config(total_steps=0, sketch_stop_step=0, equilibration_steps=0)
        trace, trial, ens = run(cfg)
        assert trace.steps.tolist() == [0]
        assert ens.step == 0
        # trial unchanged: still the disordered product
        np.testing.assert_allclose(
            tt_to_dense(trial.tt), tt_to_dense(default_trial(4).tt)
        )

    def test_trace_is_deterministic(self):
        a, _, _ = run(quick_config())
        b, _, _ = run(quick_config())
        np.testing.assert_array_equal(a.energy, b.energy)
        np.testing.assert_array_equal(a.total_weight, b.total_weight)

    def test_seed_changes_trace(self):
        a, _, _ = run(quick_config())
        b, _, _ = run(quick_config(seed=2))
        assert not np.array_equal(a.energy, b.energy)

    def test_vanilla_equals_noop_sketch_schedule(self):
        # disabling re-anchoring must reproduce the plain algorithm exactly
        vanilla, _, _ = run(quick_config(reanchor=False, equilibration_steps=20))
        noop, _, _ = run(
            quick_config(reanchor=True, sketch_stop_step=0, equilibration_steps=20)
        )
        np.testing.assert_array_equal(vanilla.energy, noop.energy)
        np.testing.assert_array_equal(vanilla.total_weight, noop.total_weight)
        np.testing.assert_array_equal(vanilla.alive, noop.alive)

    def test_reanchoring_swaps_trial(self):
        trace, trial, _ = run(quick_config())
        assert trial.tt.ranks != default_trial(4).tt.ranks or not np.allclose(
            tt_to_dense(trial.tt), tt_to_dense(default_trial(4).tt)
        )
        assert len(trace.diagnostics["reanchor_kills"]) == 2

    def test_small_chain_converges_to_exact(self):
        # d=2 open chain at g=1: post-equilibration mean within 3 blocked
        # stderr of -sqrt(5)
        cfg = RunConfig(
            lattice_dims=(2,),
            lattice_boundary="open",
            n_walkers=500,
            total_steps=2000,
            sketch_every=50,
            sketch_stop_step=1000,
            equilibration_steps=1000,
            sketch_rank=4,
            seed=3,
        )
        trace, _, _ = run(cfg)
        e0 = -np.sqrt(5.0)
        assert abs(trace.mean - e0) <= 3.0 * trace.stderr
        # one-sided variational alarm: the mixed estimator of a converged
        # re-anchored run must never sit far below the true ground energy
        assert trace.mean >= e0 - 5.0 * trace.stderr

    def test_custom_dense_initial_trial(self):
        lat = build_lattice("chain", (4,), "periodic")
        sol = exact_ground(lat, 1.0)
        cfg = quick_config(reanchor=False, equilibration_steps=0)
        trace, _, _ = run(cfg, initial_trial=TrialHandle.from_dense(sol.ground_state))
        np.testing.assert_allclose(trace.energy, sol.energy, atol=1e-9)

    def test_settles_on_measure_comb_sketch_and_last_steps(self, monkeypatch):
        from ttqmc import qmc_driver

        cfg = quick_config(
            total_steps=13,
            measure_every=4,
            popcontrol_every=6,
            sketch_every=5,
            sketch_stop_step=10,
            equilibration_steps=0,
        )
        settled = []
        real_step = qmc_driver.step

        def recording(ensemble, *args, settle=True):
            real_step(ensemble, *args, settle=settle)
            if settle:
                settled.append(ensemble.step)

        monkeypatch.setattr(qmc_driver, "step", recording)
        _, _, ens = run(cfg)
        # measures 4, 8, 12; combs 6, 12; sketches 5, 10; last step 13
        assert settled == [4, 5, 6, 8, 10, 12, 13]
        assert ens.step == 13 and not ens.pending_half

    def test_wall_times_recorded(self):
        trace, _, _ = run(quick_config())
        for phase in ("propagate", "measure", "popcontrol", "sketch"):
            assert phase in trace.diagnostics["wall_times"]
