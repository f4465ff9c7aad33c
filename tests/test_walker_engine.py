import re

import numpy as np
import pytest

from ttqmc import walker_engine
from ttqmc.errors import DeadEnsembleError, PendingHalfStepError, WeightError
from ttqmc.oracle import exact_ground
from ttqmc.qmc_driver import default_trial, mixed_energy
from ttqmc.sketching import make_sketch_pair, sketch_ensemble
from ttqmc.spin_model import PropagatorSet, build_lattice, hs_lambda
from ttqmc.tensor_train import (
    ProductState,
    TensorTrain,
    advance,
    product_overlaps,
    right_transfer,
    site_halves,
    tt_to_dense,
)
from ttqmc.walker_engine import (
    Ensemble,
    Walker,
    comb_copy_counts,
    population_control,
    reanchor_overlaps,
    sample_bond,
    step,
    stream,
)

from conftest import random_positive_product, random_tt, tt_product_overlap


def uniform_trial(d):
    return default_trial(d)


def positive_walker(rng, d, trial):
    state = random_positive_product(rng, d)
    return Walker(state=state, weight=1.0, overlap=tt_product_overlap(trial, state))


def apply_one_body(walker, trial, propagators):
    """The half one-body propagator on a single walker, site vectors unscaled.

    The pass normalizes the site vectors and folds their norms into the
    weight; the unscaled vectors and their overlap are restored here.
    """
    ens = Ensemble.from_walkers([walker])
    alive = ens.alive
    walker_engine._one_body_pass(
        ens, ens.attach(trial), propagators.one_body_half, alive, bool(alive.all())
    )
    norms = np.linalg.norm(walker.state.sites @ propagators.one_body_half, axis=1)
    sites = ens.sites[:, :, 0] * norms[:, None]
    return Walker(ProductState(sites), float(ens.weight[0]), float(ens.ovlp[0]) * np.prod(norms))


class TestApplyOneBody:
    def test_single_site_weight_ratio(self):
        # d=1, g=1, dtau=0.01, uniform trial, walker (1,0):
        # new overlap / old = (cosh + sinh)(0.005) = e^{0.005}
        trial = uniform_trial(1)
        walker = Walker(ProductState([[1.0, 0.0]]), 1.0, tt_product_overlap(trial, ProductState([[1.0, 0.0]])))
        prop = PropagatorSet.build(1.0, 0.01)
        out = apply_one_body(walker, trial, prop)
        assert out.weight / walker.weight == pytest.approx(np.exp(0.005), rel=1e-13)

    def test_g_zero_identity(self, rng):
        trial = uniform_trial(4)
        walker = positive_walker(rng, 4, trial)
        out = apply_one_body(walker, trial, PropagatorSet.build(0.0, 0.02))
        # the pass divides by the site norms and the helper multiplies them
        # back, a round trip exact to the last bit only
        np.testing.assert_allclose(out.state.sites, walker.state.sites, rtol=1e-15, atol=0)
        assert out.weight == walker.weight

    def test_positive_sector_stays_positive(self, rng):
        trial = uniform_trial(5)
        for _ in range(20):
            walker = positive_walker(rng, 5, trial)
            out = apply_one_body(walker, trial, PropagatorSet.build(0.7, 0.05))
            assert out.weight > 0
            assert np.all(out.state.sites > 0)

    def test_overlap_cache_refreshed(self, rng):
        trial = uniform_trial(4)
        walker = positive_walker(rng, 4, trial)
        out = apply_one_body(walker, trial, PropagatorSet.build(1.0, 0.05))
        assert out.overlap == pytest.approx(tt_product_overlap(trial, out.state), rel=1e-12)

    def test_negative_overlap_kills(self):
        # sigma^x mixing rotates the walker across the trial's nodal line
        trial = TensorTrain.from_dense([0.1, -1.0])
        state = ProductState([[1.0, 0.0]])
        walker = Walker(state, 1.0, tt_product_overlap(trial, state))
        assert walker.overlap > 0
        out = apply_one_body(walker, trial, PropagatorSet.build(1.0, 0.5))
        assert out.weight == 0.0
        assert out.overlap == 0.0


class TestSampleBond:
    def test_all_up_walker_normalization(self, rng):
        # N = e^{-dtau} cosh(2 lam) = e^{dtau}; p(+1) = e^{2 lam}/(2 cosh 2 lam)
        d, dtau = 4, 0.03
        trial = uniform_trial(d)
        state = ProductState(np.tile([1.0, 0.0], (d, 1)))
        walker = Walker(state, 1.0, tt_product_overlap(trial, state))
        prop = PropagatorSet.build(1.0, dtau)
        out = sample_bond(walker, (0, 1), trial, prop, np.random.default_rng(0))
        assert out.weight / walker.weight == pytest.approx(np.exp(dtau), rel=1e-13)
        lam = hs_lambda(dtau)
        p_plus = np.exp(2 * lam) / (2 * np.cosh(2 * lam))
        # exhaust both branches by driving the uniform across the threshold
        plus_state = sample_bond(
            walker, (0, 1), trial, prop, _FixedUniform(p_plus * 0.999)
        ).state
        minus_state = sample_bond(
            walker, (0, 1), trial, prop, _FixedUniform(min(p_plus * 1.001, 0.999))
        ).state
        assert plus_state.sites[0, 0] > walker.state.sites[0, 0]  # e^{+lam} branch
        assert minus_state.sites[0, 0] < walker.state.sites[0, 0]

    def test_posterior_weighted_overlap_constant_across_branches(self, rng):
        # Both branches give the same post-update weighted overlap
        # w' <psi, b(x) phi> / O_tr(b(x) phi) = w N
        d = 5
        for _ in range(50):
            trial = random_positive_product(rng, d).as_tt()
            walker = positive_walker(rng, d, trial)
            prop = PropagatorSet.build(1.0, 0.05)
            bond = tuple(sorted(rng.choice(d, size=2, replace=False)))
            outs = [
                sample_bond(walker, bond, trial, prop, _FixedUniform(u))
                for u in (1e-9, 1.0 - 1e-9)
            ]
            vals = [
                o.weight * tt_product_overlap(trial, o.state) / o.overlap for o in outs
            ]
            assert vals[0] == pytest.approx(vals[1], rel=1e-12)

    def test_one_bond_unbiasedness(self, rng):
        # positive trial: N O_tr(phi) = (1/2) sum_x <psi, b(x) phi> exactly
        d = 4
        for _ in range(50):
            trial = random_positive_product(rng, d).as_tt()
            walker = positive_walker(rng, d, trial)
            prop = PropagatorSet.build(1.0, 0.04)
            p, q = sorted(rng.choice(d, size=2, replace=False))
            out = sample_bond(walker, (p, q), trial, prop, _FixedUniform(0.5))
            n_const = out.weight / walker.weight
            total = 0.0
            for x in (1, -1):
                fac = prop.bond_site_factors(x)
                mod = walker.state.sites.copy()
                mod[p] = mod[p] * fac * prop.bond_prefactor
                mod[q] = mod[q] * fac
                total += 0.5 * tt_product_overlap(trial, ProductState(mod))
            assert n_const * walker.overlap == pytest.approx(total, rel=1e-13)

    def test_dtau_zero_identity(self, rng):
        trial = uniform_trial(3)
        walker = positive_walker(rng, 3, trial)
        prop = PropagatorSet.build(1.0, 0.0)
        out = sample_bond(walker, (0, 1), trial, prop, np.random.default_rng(1))
        np.testing.assert_array_equal(out.state.sites, walker.state.sites)
        assert out.weight == pytest.approx(walker.weight, rel=1e-15)


class _FixedUniform:
    def __init__(self, value):
        self.value = value

    def random(self, n=None):
        if n is None:
            return self.value
        return np.full(n, self.value)


class TestStep:
    def test_zero_variance_with_exact_trial(self):
        lat = build_lattice("chain", (6,), "open")
        sol = exact_ground(lat, 1.0)
        trial = TensorTrain.from_dense(sol.ground_state)
        ens = Ensemble.from_trial_product(uniform_trial(6), 40, seed=3)
        reanchor_overlaps(ens, trial)
        prop = PropagatorSet.build(1.0, 0.01)
        before = mixed_energy(ens, trial, lat, 1.0)
        step(ens, trial, lat, prop)
        after = mixed_energy(ens, trial, lat, 1.0)
        assert before == pytest.approx(sol.energy, abs=1e-10)
        assert after == pytest.approx(sol.energy, abs=1e-10)

    def test_classical_ground_state_invariant_at_g_zero(self):
        lat = build_lattice("chain", (4,), "periodic")
        trial = uniform_trial(4)
        all_up = np.tile([1.0, 0.0], (4, 1))
        ens = Ensemble(
            np.repeat(all_up[:, :, None], 10, axis=2),
            np.ones(10),
            np.full(10, tt_product_overlap(trial, ProductState(all_up))),
            seed=5,
        )
        prop = PropagatorSet.build(0.0, 0.07)
        step(ens, trial, lat, prop)
        # diagonal propagators only rescale; per-step normalization
        # returns the site vectors to exactly (1, 0)
        np.testing.assert_array_equal(ens.sites, np.repeat(all_up[:, :, None], 10, axis=2))

    def test_bit_reproducible_trajectory(self):
        lat = build_lattice("chain", (4,), "periodic")
        trial = uniform_trial(4)
        prop = PropagatorSet.build(1.0, 0.02)

        def trajectory():
            ens = Ensemble.from_trial_product(trial, 1, seed=11)
            for _ in range(20):
                step(ens, trial, lat, prop)
            return [s.copy() for s in ens.sites], ens.weight.copy(), ens.ovlp.copy()

        a, b = trajectory(), trajectory()
        for sa, sb in zip(a[0], b[0]):
            np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])

    def test_dead_walkers_untouched(self, rng):
        lat = build_lattice("chain", (4,), "open")
        trial = uniform_trial(4)
        ens = Ensemble.from_trial_product(trial, 6, seed=1)
        ens.weight[2] = 0.0
        frozen = ens.sites[:, :, 2].copy()
        frozen_ovlp = ens.ovlp[2]
        step(ens, trial, lat, PropagatorSet.build(1.0, 0.05))
        np.testing.assert_array_equal(ens.sites[:, :, 2], frozen)
        assert ens.ovlp[2] == frozen_ovlp
        assert ens.weight[2] == 0.0

    def test_all_dead_is_fatal(self):
        trial = uniform_trial(3)
        lat = build_lattice("chain", (3,), "open")
        ens = Ensemble.from_trial_product(trial, 3, seed=0)
        ens.weight[:] = 0.0
        with pytest.raises(DeadEnsembleError):
            step(ens, trial, lat, PropagatorSet.build(1.0, 0.01))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "quantity, weight, ovlp", [("weight", np.inf, None), ("overlap", 0.0, np.nan)]
    )
    def test_bad_result_named(self, quantity, weight, ovlp):
        # the step that leaves a non-finite weight or overlap names it, with
        # no NumPy warning, and does not report it as a death
        lat = build_lattice("chain", (4,), "periodic")
        trial = uniform_trial(4)
        ens = Ensemble.from_trial_product(trial, 5, seed=1)
        ens.weight[3] = weight
        if ovlp is not None:
            ens.ovlp[3] = ovlp
        with pytest.raises(WeightError) as err:
            step(ens, trial, lat, PropagatorSet.build(1.0, 0.05))
        assert err.value.diagnostics["step"] == 1
        assert err.value.diagnostics["walker"] == 3
        assert f"walker 3 has {quantity} " in str(err.value)
        assert "died" not in str(err.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_bond_overlap_named(self):
        # the trial's overlaps are finite (1e100) but its left partials
        # overflow, so the bond overlaps are NaN: the step names that
        # overlap instead of counting the walkers as killed
        cores = [c.copy() for c in uniform_trial(3).cores]
        for c, s in zip(cores, (1e200, 1e200, 1e-300)):
            c *= s
        trial = TensorTrain(cores)
        ens = Ensemble.from_trial_product(uniform_trial(3), 4, seed=1)
        reanchor_overlaps(ens, trial)
        assert np.all(np.isfinite(ens.ovlp))
        with pytest.raises(WeightError, match="walker 0 has overlap nan at step 1"):
            step(ens, trial, build_lattice("chain", (3,), "open"), PropagatorSet.build(1.0, 0.05))

    def test_weights_stay_nonnegative(self, rng):
        lat = build_lattice("chain", (5,), "periodic")
        tt = random_tt(rng, 5, 2)
        ens = Ensemble.from_trial_product(uniform_trial(5), 30, seed=9)
        for m in range(5):
            ens.sites[m] = (np.abs(rng.standard_normal((30, 2))) + 0.05).T
        # orient the generic signed trial toward the walker cloud so the
        # swap leaves survivors, then propagate under it
        probe = ProductState(ens.sites[:, :, 0])
        if tt_product_overlap(tt, probe) < 0:
            tt = TensorTrain([-tt.cores[0]] + list(tt.cores[1:]))
        trial = tt
        reanchor_overlaps(ens, trial)
        prop = PropagatorSet.build(0.8, 0.05)
        for _ in range(10):
            try:
                step(ens, trial, lat, prop)
            except DeadEnsembleError:
                break
            assert np.all(ens.weight >= 0.0)
            alive = ens.weight > 0
            assert np.all(ens.ovlp[alive] > 0.0)


class TestFusedHalves:
    @staticmethod
    def _run(settles):
        # a positive rank-2 trial keeps every walker alive, so the dropped
        # constraint check between fused halves never matters here
        d = 6
        lat = build_lattice("chain", (d,), "periodic")
        tt = random_tt(np.random.default_rng(7), d, 2)
        trial = TensorTrain([np.abs(c) + 0.1 for c in tt.cores])
        ens = Ensemble.from_trial_product(uniform_trial(d), 25, seed=13)
        reanchor_overlaps(ens, trial)
        prop = PropagatorSet.build(1.0, 0.05)
        for settle in settles:
            step(ens, trial, lat, prop, settle=settle)
        return ens

    @pytest.mark.parametrize("k", [1, 4])
    def test_fused_steps_match_settled_steps(self, k):
        fused = self._run([False] * k + [True])
        split = self._run([True] * (k + 1))
        assert not fused.pending_half and fused.step == split.step == k + 1
        assert np.all(fused.weight > 0) and np.all(split.weight > 0)
        (unit_a, scale_a), (unit_b, scale_b) = map(_unit_sites, (fused, split))
        # the same fields were sampled: equal site vectors up to a per-walker scale
        for a, b in zip(unit_a, unit_b):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
        # and the same represented ensemble sum_k w_k phi_k / O_tr(phi_k)
        np.testing.assert_allclose(
            fused.weight / fused.ovlp * scale_a,
            split.weight / split.ovlp * scale_b,
            rtol=1e-10,
        )

    def test_pending_half_is_set_and_cleared(self):
        ens = self._run([False])
        assert ens.pending_half
        ens = self._run([False, True])
        assert not ens.pending_half

    @pytest.mark.parametrize(
        "observe",
        [
            lambda ens, trial, lat: mixed_energy(ens, trial, lat, 1.0),
            lambda ens, trial, lat: population_control(ens, np.random.default_rng(0)),
            lambda ens, trial, lat: reanchor_overlaps(ens, trial),
            lambda ens, trial, lat: sketch_ensemble(
                ens, make_sketch_pair(ens.d, 4, 0.1, seed=0), [2, 2, 2, 2, 2]
            ),
            lambda ens, trial, lat: ens.walker(0),
        ],
        ids=["mixed_energy", "population_control", "reanchor_overlaps",
             "sketch_ensemble", "walker"],
    )
    def test_observers_refuse_pending_ensemble(self, observe):
        d = 6
        lat = build_lattice("chain", (d,), "periodic")
        trial = uniform_trial(d)
        ens = Ensemble.from_trial_product(trial, 10, seed=3)
        step(ens, trial, lat, PropagatorSet.build(1.0, 0.05), settle=False)
        weight = ens.weight.copy()
        with pytest.raises(PendingHalfStepError):
            observe(ens, trial, lat)
        np.testing.assert_array_equal(ens.weight, weight)


def _unit_sites(ens):
    """Unit-norm site vectors and the per-walker product of the site norms."""
    norms = np.linalg.norm(ens.sites, axis=1)
    return ens.sites / norms[:, None, :], np.prod(norms, axis=0)


class TestPopulationControl:
    def test_comb_hand_trace_offset_03(self):
        np.testing.assert_array_equal(comb_copy_counts([1.5, 0.5], 0.3), [1, 1])

    def test_comb_hand_trace_offset_06(self):
        np.testing.assert_array_equal(comb_copy_counts([1.5, 0.5], 0.6), [2, 0])

    def test_equal_weights_identity(self, rng):
        trial = uniform_trial(3)
        for offset in (0.01, 0.37, 0.99):
            ens = Ensemble.from_trial_product(trial, 5, seed=2)
            for m in range(3):
                ens.sites[m] = (rng.standard_normal((5, 2)) + 2.0).T
            before = [s.copy() for s in ens.sites]
            population_control(ens, _FixedUniform(offset))
            for m in range(3):
                np.testing.assert_array_equal(ens.sites[m], before[m])
            np.testing.assert_array_equal(ens.weight, np.ones(5))

    def test_count_preserved_and_weights_reset(self, rng):
        trial = uniform_trial(4)
        ens = Ensemble.from_trial_product(trial, 64, seed=8)
        ens.weight = np.exp(rng.standard_normal(64))
        population_control(ens, np.random.default_rng(5))
        assert ens.n_walkers == 64
        np.testing.assert_array_equal(ens.weight, np.ones(64))

    def test_expected_copy_counts(self, rng):
        # mean copy count over many offsets matches the normalized weight
        w = np.array([2.4, 0.2, 1.1, 0.8, 0.5])
        w = w / w.mean()
        reps = 10_000
        counts = np.zeros((reps, w.size))
        for i in range(reps):
            counts[i] = comb_copy_counts(w, rng.random())
        mean = counts.mean(axis=0)
        sem = counts.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean - w) <= 3 * np.maximum(sem, 1e-12))

    def test_zero_total_weight_fatal(self):
        trial = uniform_trial(3)
        ens = Ensemble.from_trial_product(trial, 4, seed=1)
        ens.weight[:] = 0.0
        ens.step = 5
        with pytest.raises(DeadEnsembleError) as err:
            population_control(ens, np.random.default_rng(0))
        assert err.value.diagnostics["step"] == 5
        assert "step" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "bad, walker",
        [(np.inf, 1), (np.nan, 1), (-0.5, 1), (1e308, None)],
        ids=["inf", "nan", "negative", "overflowing-sum"],
    )
    def test_bad_weights_named(self, bad, walker):
        trial = uniform_trial(3)
        ens = Ensemble.from_trial_product(trial, 3, seed=1)
        ens.step = 7
        ens.weight = np.array([1.0, bad, 1.0]) if walker is not None else np.full(3, bad)
        with pytest.raises(WeightError) as err:
            population_control(ens, np.random.default_rng(0))
        assert err.value.diagnostics["step"] == 7
        assert err.value.diagnostics["walker"] == walker
        assert "step 7" in str(err.value)
        assert "died" not in str(err.value)

    def test_dead_walkers_never_copied(self):
        trial = uniform_trial(3)
        ens = Ensemble.from_trial_product(trial, 4, seed=1)
        ens.sites[0][:, 2] = [3.0, 4.0]  # mark walker 2
        ens.weight = np.array([1.0, 1.0, 0.0, 2.0])
        population_control(ens, np.random.default_rng(3))
        assert not np.any(np.all(ens.sites[0].T == [3.0, 4.0], axis=1))

    def test_cache_valid_after_comb(self, rng):
        # the comb reorders the walkers under a cache whose partials were
        # all valid; its next overlaps must be those of the combed walkers
        d, n = 6, 16
        trial = random_tt(rng, d, 3)
        sites = rng.standard_normal((d, n, 2)).transpose(0, 2, 1)
        ens = Ensemble(sites, np.ones(n), np.ones(n), seed=1)
        cache = ens.attach(trial)
        cache.ensure_measure()
        ens.weight = np.exp(rng.standard_normal(n))
        population_control(ens, np.random.default_rng(4))
        direct = [tt_product_overlap(trial, ens.walker(k).state) for k in range(n)]
        np.testing.assert_allclose(cache.overlaps(), direct, rtol=1e-12)


class TestReanchorOverlaps:
    def test_same_trial_bit_identical(self):
        lat = build_lattice("chain", (5,), "periodic")
        trial = uniform_trial(5)
        ens = Ensemble.from_trial_product(trial, 12, seed=4)
        prop = PropagatorSet.build(1.0, 0.02)
        for _ in range(3):
            step(ens, trial, lat, prop)
        sites_before = [s.copy() for s in ens.sites]
        w_before, o_before = ens.weight.copy(), ens.ovlp.copy()
        same = TensorTrain(trial.cores)  # equal values, fresh object
        reanchor_overlaps(ens, same)
        for m in range(5):
            np.testing.assert_array_equal(ens.sites[m], sites_before[m])
        np.testing.assert_array_equal(ens.weight, w_before)
        np.testing.assert_array_equal(ens.ovlp, o_before)

    def test_positive_swap_no_kills(self, rng):
        trial = uniform_trial(4)
        ens = Ensemble.from_trial_product(trial, 10, seed=6)
        new = random_positive_product(rng, 4).as_tt()
        reanchor_overlaps(ens, new)
        assert ens.reanchor_kill_counts[-1] == 0
        assert np.all(ens.weight > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_overlap_named(self):
        # the cores overflow, so every fresh overlap is NaN: the re-anchor
        # names it, with no NumPy warning, instead of storing it for the
        # next step to blame on propagation
        big = 1e200
        trial = TensorTrain([
            np.full((1, 2, 2), big),
            big * np.array([[[1.0, -1.0], [1.0, 1.0]], [[1.0, 1.0], [-1.0, 1.0]]]),
            np.full((2, 2, 1), big),
        ])
        ens = Ensemble.from_trial_product(uniform_trial(3), 4, seed=1)
        with pytest.raises(WeightError, match="walker 0 has overlap nan at step 0; re-anchoring needs"):
            reanchor_overlaps(ens, trial)
        np.testing.assert_array_equal(ens.weight, np.ones(4))

    def test_negated_trial_kills_everything(self):
        trial = uniform_trial(4)
        ens = Ensemble.from_trial_product(trial, 10, seed=6)
        negated = TensorTrain([-trial.cores[0]] + list(trial.cores[1:]))
        with pytest.raises(DeadEnsembleError):
            reanchor_overlaps(ens, negated)


def _positive_trial(rng, d):
    tt = random_tt(rng, d, 2)
    return TensorTrain([np.abs(c) + 0.1 for c in tt.cores])


def _one_body_reference(ens, trial, B, alive):
    """The one-body pass site by site on walker-first (n, 2) copies.

    Returns the (sites, weight, ovlp) the pass must leave: unit-norm site
    vectors and weights times the product of the norms in site order, dead
    walkers untouched.
    """
    scale = np.ones(ens.n_walkers)
    sites = []
    for m in range(ens.d):
        v = np.ascontiguousarray(ens.sites[m].T)
        new = v @ B
        norms = np.sqrt(np.square(new) @ np.ones(2))
        scale *= norms
        sites.append(np.where(alive[:, None], new / norms[:, None], v).T)
    sites = np.stack(sites)
    fresh = np.maximum(product_overlaps(trial, sites), 0.0)
    old = np.where(ens.ovlp > 0.0, ens.ovlp, 1.0)
    weight = np.where(alive, ens.weight * (fresh * scale / old), ens.weight)
    return sites, weight, np.where(alive, fresh, ens.ovlp)


class TestSiteLayout:
    @pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 5), (4, 2), (4, 2, 3, 1)])
    def test_rejects_other_site_shapes(self, shape):
        # (4, 3, 2) is the walker-first layout of 3 walkers at d = 4
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            Ensemble(np.ones(shape), np.ones(3), np.ones(3), seed=0)

    def test_cache_shares_sites_through_every_writer(self, rng):
        d, n = 6, 12
        trial = _positive_trial(rng, d)
        ens = Ensemble(np.exp(rng.standard_normal((d, 2, n))), np.ones(n), np.ones(n), seed=0)
        reanchor_overlaps(ens, trial)
        ens.weight[[2, 7]] = 0.0
        sites = ens.sites
        prop = PropagatorSet.build(1.0, 0.05)
        factors = walker_engine._bond_factors(prop)
        writers = {
            "one-body pass": lambda c: walker_engine._one_body_pass(
                ens, c, prop.one_body_half, ens.alive, False
            ),
            "bond pass": lambda c: [
                walker_engine._sample_bond_kernel(
                    ens, c, p, q, factors, rng.random(n), ens.alive, False
                )
                for p, q in build_lattice("chain", (d,), "periodic").chain_bonds
            ],
            "comb": lambda c: population_control(ens, np.random.default_rng(1)),
            "re-anchor": lambda c: reanchor_overlaps(ens, _positive_trial(rng, d)),
        }
        for name, write in writers.items():
            write(ens.attach(ens._trial))
            cache = ens._cache
            assert ens.sites is sites and cache.sites is sites, name
            assert sites.flags.c_contiguous, name
            # the cache reads the written values: its overlaps are a fresh sweep's
            fresh = product_overlaps(ens._trial, sites.copy())
            assert np.array_equal(cache.overlaps(), fresh), name

    @pytest.mark.parametrize("full", [False, True])
    def test_one_body_pass_matches_per_site_reference(self, rng, full):
        d, n = 7, 15
        trial = _positive_trial(rng, d)
        ens = Ensemble(rng.standard_normal((d, 2, n)), np.ones(n), np.ones(n), seed=0)
        reanchor_overlaps(ens, trial)
        ens.weight = np.exp(rng.standard_normal(n)) * (ens.weight > 0.0)
        ens.weight[[0, 9]] = 0.0
        prop = PropagatorSet.build(1.0, 0.05)
        B = prop.one_body_full if full else prop.one_body_half
        alive = ens.alive
        assert 0 < alive.sum() < n
        expected = _one_body_reference(ens, trial, B, alive)
        walker_engine._one_body_pass(ens, ens.attach(trial), B, alive, False)
        for got, want in zip((ens.sites, ens.weight, ens.ovlp), expected):
            assert np.array_equal(got, want)


class TestStreams:
    def test_keyed_streams_reproducible(self):
        a = stream(123, 1, step=7).random(5)
        b = stream(123, 1, step=7).random(5)
        c = stream(123, 1, step=8).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestTrialTT:
    def test_cached_overlaps_agree_with_direct(self, rng):
        # overlaps through the incremental caches match direct contraction
        # for both product and dense trials
        lat = build_lattice("chain", (6,), "periodic")
        prop = PropagatorSet.build(1.0, 0.03)
        tt_trial = random_positive_product(rng, 6).as_tt()
        sol = exact_ground(lat, 1.0)
        dense_trial = TensorTrain.from_dense(sol.ground_state)
        for trial in (tt_trial, dense_trial):
            ens = Ensemble.from_trial_product(uniform_trial(6), 15, seed=3)
            reanchor_overlaps(ens, trial)
            for _ in range(3):
                step(ens, trial, lat, prop)
            for k in range(ens.n_walkers):
                w = ens.walker(k)
                direct = tt_product_overlap(trial, w.state)
                assert w.overlap == pytest.approx(direct, rel=1e-12)

    def test_walkers_start_only_from_rank1(self, rng):
        ens = Ensemble.from_trial_product(random_positive_product(rng, 4).as_tt(), 3, seed=0)
        assert ens.n_walkers == 3 and np.all(ens.ovlp > 0.0)
        for trial in (random_tt(rng, 4, 2), TensorTrain.from_dense(np.ones(16))):
            with pytest.raises(ValueError, match="rank-1"):
                Ensemble.from_trial_product(trial, 3, seed=0)

    def test_dense_trial_rejects_bad_length(self):
        with pytest.raises(ValueError):
            TensorTrain.from_dense(np.ones(6))


def _signed_ensemble(rng, d, n, dead=()):
    ens = Ensemble(
        rng.standard_normal((d, n, 2)).transpose(0, 2, 1), np.ones(n), np.ones(n), seed=0
    )
    ens.weight[list(dead)] = 0.0
    return ens


def _dense_bond_overlaps(psi, ens, p, q, factors):
    """Kronecker-expanded <psi, b(x) phi_k>, rows x = +1, -1."""
    fac, _ = factors
    out = np.empty((2, ens.n_walkers))
    for x in (0, 1):
        for k in range(ens.n_walkers):
            sites = ens.sites[:, :, k].copy()
            sites[p] = sites[p] * fac[:2, x]
            sites[q] = sites[q] * fac[2:, x]
            out[x, k] = psi @ ProductState(sites).to_dense()
    return out


class TestTTKernel:
    @pytest.mark.parametrize(
        "lattice",
        [
            build_lattice("chain", (7,), "periodic"),
            build_lattice("cylinder", (4, 2), "periodic"),
        ],
        ids=["chain7", "cylinder4x2"],
    )
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_bond_overlaps_match_dense(self, rng, lattice, rank):
        # nearest-neighbour, wrap and snake-order cylinder bonds (span up to 7)
        tt = random_tt(rng, lattice.d, rank)
        psi = tt_to_dense(tt)
        trial = tt
        factors = walker_engine._bond_factors(PropagatorSet.build(1.0, 0.05))
        ens = _signed_ensemble(rng, lattice.d, 5, dead=(1,))
        cache = ens.attach(trial)
        spans = set()
        for p, q in lattice.chain_bonds:
            got = cache.bond_overlaps(p, q, factors[1])
            ref = _dense_bond_overlaps(psi, ens, p, q, factors)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            spans.add(q - p)
        assert max(spans) == lattice.d - 1

    def test_apply_bond_stores_fresh_left_partial(self, rng):
        d = 8
        trial = random_tt(rng, d, 3)
        factors = walker_engine._bond_factors(PropagatorSet.build(1.0, 0.05))
        for p, q in [(2, 3), (1, 6), (0, 7)]:
            ens = _signed_ensemble(rng, d, 6, dead=(0, 4))
            cache = ens.attach(trial)
            alive = ens.alive
            walker_engine._sample_bond_kernel(
                ens, cache, p, q, factors, rng.random(6), alive, False
            )
            assert cache.lv == p + 1
            fresh = advance(cache.left[p], cache.wl[p], ens.sites[p])
            np.testing.assert_allclose(cache.left[p + 1], fresh, rtol=1e-13, atol=1e-15)
            # the cached partials give the same overlaps as a fresh sweep
            stored = cache.overlaps()
            cache.note_all_changed()
            np.testing.assert_allclose(stored, cache.overlaps(), rtol=1e-12)

    def test_step_rebuilds_right_partials_once(self, rng, monkeypatch):
        # bonds run by right end with the wrap bond last, so a step with one
        # one-body pass builds the right environment once (the d sites of
        # the pass's overlap sweep) instead of again after an early wrap
        # bond; a settled step makes a second pass and so a second sweep
        d = 16
        lat = build_lattice("chain", (d,), "periodic")
        tt = random_tt(rng, d, 2)
        trial = TensorTrain([np.abs(c) for c in tt.cores])
        ens = Ensemble.from_trial_product(uniform_trial(d), 20, seed=2)
        reanchor_overlaps(ens, trial)
        prop = PropagatorSet.build(1.0, 0.01)
        rebuilt = []
        ensure_right = walker_engine._TTCache.ensure_right

        def counting(cache, m):
            rebuilt.append(max(cache.rv - m, 0))
            ensure_right(cache, m)

        monkeypatch.setattr(walker_engine._TTCache, "ensure_right", counting)
        step(ens, trial, lat, prop)
        rebuilt.clear()
        step(ens, trial, lat, prop, settle=False)
        assert 0 < sum(rebuilt) <= d + 2

    @pytest.mark.parametrize("settle", [False, True])
    def test_bond_pass_rebuilds_no_right_partials(self, rng, monkeypatch, settle):
        # the one-body pass's right-to-left overlap sweep leaves every right
        # environment valid, and bonds ordered by right end never invalidate
        # one that a later bond reads; a bond reads the sweep's stored
        # site-q halves unless an earlier bond changed site q, which on a
        # chain happens only to the periodic wrap bond (q = d-1 was changed
        # by bond (d-2, d-1))
        d = 16
        tt = random_tt(rng, d, 2)
        trial = TensorTrain([np.abs(c) for c in tt.cores])
        prop = PropagatorSet.build(1.0, 0.01)
        rebuilt = []
        halves = [0]
        in_bond = [False]
        ensure_right = walker_engine._TTCache.ensure_right
        kernel = walker_engine._sample_bond_kernel

        def counting(cache, m):
            if in_bond[0]:
                rebuilt.append(max(cache.rv - m, 0))
            ensure_right(cache, m)

        def counting_halves(P, W, v):
            # only the right-side halves: W is one of the trial's right transfers
            halves[0] += in_bond[0] and any(W is w for w in ens._cache.wr)
            return site_halves(P, W, v)

        def bond_kernel(*args):
            in_bond[0] = True
            try:
                return kernel(*args)
            finally:
                in_bond[0] = False

        monkeypatch.setattr(walker_engine._TTCache, "ensure_right", counting)
        monkeypatch.setattr(walker_engine, "site_halves", counting_halves)
        monkeypatch.setattr(walker_engine, "_sample_bond_kernel", bond_kernel)
        for boundary, per_step in (("periodic", 1), ("open", 0)):
            lat = build_lattice("chain", (d,), boundary)
            ens = Ensemble.from_trial_product(uniform_trial(d), 20, seed=2)
            reanchor_overlaps(ens, trial)
            rebuilt.clear()
            halves[0] = 0
            for _ in range(3):
                step(ens, trial, lat, prop, settle=settle)
            assert halves[0] == 3 * per_step, boundary
            assert sum(rebuilt) == 0

    @pytest.mark.parametrize(
        "lattice",
        [
            build_lattice("chain", (7,), "periodic"),
            build_lattice("cylinder", (4, 2), "periodic"),
        ],
        ids=["chain7", "cylinder4x2"],
    )
    def test_bond_site_halves_are_fresh(self, rng, monkeypatch, lattice):
        # every site-q halves a bond dots, stored by the sweep or recomputed,
        # equal bit for bit the halves of the current sites: the wrap bond
        # and a cylinder's second bond ending at q must not read the stored
        # ones, which an earlier bond has made stale
        d = lattice.d
        tt = random_tt(rng, d, 3)
        trial = TensorTrain([np.abs(c) for c in tt.cores])
        prop = PropagatorSet.build(1.0, 0.05)
        ens = Ensemble.from_trial_product(uniform_trial(d), 12, seed=3)
        reanchor_overlaps(ens, trial)
        site_right_halves = walker_engine._TTCache.site_right_halves
        seen = []

        def checked(cache, q):
            b = site_right_halves(cache, q)
            R = np.ones((1, ens.n_walkers))
            for m in range(d - 1, q, -1):
                R = advance(R, right_transfer(trial.cores[m]), ens.sites[m])
            assert np.array_equal(b, site_halves(R, right_transfer(trial.cores[q]), ens.sites[q])), q
            seen.append(q)
            return b

        monkeypatch.setattr(walker_engine._TTCache, "site_right_halves", checked)
        for settle in (False, True, True):
            step(ens, trial, lattice, prop, settle=settle)
        mixed_energy(ens, trial, lattice, 1.0)
        assert len(seen) == 4 * len(lattice.chain_bonds)
