import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ttqmc.errors import DimensionMismatchError, RankZeroError, SketchFitError, TtqmcError
from ttqmc.sketching import (
    LS_CUTOFF,
    _advance_left,
    _right_partials,
    make_sketch_pair,
    sketch_ensemble,
    validate_target_ranks,
)
from ttqmc.tensor_train import (
    ProductState,
    TensorTrain,
    tt_to_dense,
    tt_tt_overlap,
)
from ttqmc.walker_engine import Ensemble, Walker

from conftest import tt_product_overlap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def product_walker(sites, weight=1.0, overlap=1.0):
    return Walker(state=ProductState(sites), weight=weight, overlap=overlap)


def dense_ensemble_sum(walkers):
    return sum(w.weight / w.overlap * w.state.to_dense() for w in walkers)


class TestMakeSketchPair:
    def test_deterministic(self):
        a = make_sketch_pair(6, 10, 0.1, seed=42)
        b = make_sketch_pair(6, 10, 0.1, seed=42)
        for ca, cb in zip(a.left.cores + a.right.cores, b.left.cores + b.right.cores):
            np.testing.assert_array_equal(ca, cb)

    def test_different_seeds_differ(self):
        a = make_sketch_pair(6, 10, 0.1, seed=1)
        b = make_sketch_pair(6, 10, 0.1, seed=2)
        assert not np.array_equal(a.left.cores[1], b.left.cores[1])

    def test_paper_scale_configuration(self):
        # rank 60, delta 0.1 is the working choice for 16-spin systems
        pair = make_sketch_pair(16, 60, 0.1, seed=0)
        assert pair.sketch_rank == 60
        assert pair.delta == 0.1
        assert pair.left.ranks == (60,) * 15
        assert pair.left.cores[0].shape == (1, 2, 60)
        assert pair.right.cores[-1].shape == (60, 2, 1)

    def test_cluster_basis_span(self):
        # each core slice decomposes as C1 (1,1) + C2 (delta,-delta)
        pair = make_sketch_pair(4, 5, 0.3, seed=7)
        for core in pair.left.cores:
            sym = 0.5 * (core[:, 0, :] + core[:, 1, :])
            anti = 0.5 * (core[:, 0, :] - core[:, 1, :])
            rebuilt = np.stack([sym + anti, sym - anti], axis=1)
            np.testing.assert_allclose(rebuilt, core, atol=1e-15)
            assert np.std(anti) > 0  # the delta component is present

    def test_delta_zero_flagged_degenerate(self):
        # delta = 0 collapses v_2: both physical slices of every core agree
        pair = make_sketch_pair(4, 5, 0.0, seed=7)
        np.testing.assert_array_equal(
            pair.left.cores[1][:, 0, :], pair.left.cores[1][:, 1, :]
        )


def least_squares_core(X, Y, cutoff):
    """Minimum-norm least-squares solve of X G = Y with SV thresholding.

    The per-core solve of the two-phase fit below.  Y may carry trailing
    axes; singular values below cutoff * sigma_max are treated as exact
    zeros (null space).  Raises RankZeroError if nothing survives the
    threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise ValueError(f"X must be square or tall, got shape {X.shape}")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
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


class TestLeastSquaresCore:
    def test_identity_returns_y(self, rng):
        Y = rng.standard_normal((4, 2, 3))
        np.testing.assert_allclose(least_squares_core(np.eye(4), Y, 1e-12), Y)

    def test_thresholded_null_space(self):
        X = np.diag([2.0, 1e-20])
        Y = np.array([[4.0, 2.0], [1.0, 1.0]])
        G = least_squares_core(X, Y, 1e-12)
        # second singular value is below cutoff: its direction is null space
        np.testing.assert_allclose(G[0], [2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(G[1], [0.0, 0.0], atol=1e-14)

    def test_recovers_known_solution(self, rng):
        X = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        G = rng.standard_normal((6, 2, 4))
        Y = np.einsum("ab,bic->aic", X, G)
        np.testing.assert_allclose(least_squares_core(X, Y, 1e-12), G, atol=1e-10)

    def test_rank_zero_error(self):
        with pytest.raises(RankZeroError):
            least_squares_core(np.zeros((3, 3)), np.zeros((3, 2, 1)), 1e-12)

    def test_wide_x_rejected(self, rng):
        with pytest.raises(ValueError, match="square or tall"):
            least_squares_core(rng.standard_normal((2, 5)), rng.standard_normal((2, 2)), 1e-12)


class TestTargetRankValidation:
    def test_requested_pattern_ok(self):
        assert validate_target_ranks([2, 4, 4, 4, 2], 6, 60) == [2, 4, 4, 4, 2]

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="target ranks"):
            validate_target_ranks([2, 4], 6, 60)

    def test_exceeds_sketch_rank(self):
        with pytest.raises(ValueError, match="sketch rank"):
            validate_target_ranks([2, 4, 4, 4, 2], 6, 3)

    def test_nesting_violation(self):
        with pytest.raises(ValueError, match="nested"):
            validate_target_ranks([2, 8, 4, 4, 2], 6, 60)
        with pytest.raises(ValueError, match="nested"):
            validate_target_ranks([2, 4, 4, 4, 4], 6, 60)


class TestSketchEnsemble:
    def test_single_walker_recovery(self, rng):
        d = 6
        walker = product_walker(rng.standard_normal((d, 2)) + 2.0, weight=1.3, overlap=0.7)
        pair = make_sketch_pair(d, 12, 0.1, seed=5)
        fit = sketch_ensemble([walker], pair, [2, 4, 4, 4, 2])
        truth = dense_ensemble_sum([walker])
        err = np.linalg.norm(tt_to_dense(fit) - truth) / np.linalg.norm(truth)
        assert err < 1e-8

    def test_rank2_sum_recovery(self, rng):
        # four product states drawn from two distinct states: the weighted
        # sum is exactly a rank-2 TT
        d = 6
        u = rng.standard_normal((d, 2)) + 1.5
        v = rng.standard_normal((d, 2)) + 1.5
        walkers = [
            product_walker(u, 0.5, 1.0),
            product_walker(v, 1.5, 1.0),
            product_walker(u, 1.0, 2.0),
            product_walker(v, 2.0, 0.5),
        ]
        pair = make_sketch_pair(d, 12, 0.1, seed=9)
        fit = sketch_ensemble(walkers, pair, [2, 2, 2, 2, 2])
        truth = dense_ensemble_sum(walkers)
        err = np.linalg.norm(tt_to_dense(fit) - truth) / np.linalg.norm(truth)
        assert err < 1e-6

    def test_output_ranks_exactly_as_requested(self, rng):
        d = 6
        walkers = [
            product_walker(rng.standard_normal((d, 2)) + 2.0, 1.0, 1.0) for _ in range(8)
        ]
        pair = make_sketch_pair(d, 16, 0.1, seed=3)
        fit = sketch_ensemble(walkers, pair, [2, 4, 4, 4, 2])
        assert fit.ranks == (2, 4, 4, 4, 2)

    def test_exact_recovery_across_seeds(self, rng):
        # probabilistic guarantee: >= 19/20 sketch seeds recover an ensemble
        # whose weighted sum has TT rank <= target, sketch rank >= 2*max rank
        d = 7
        u = rng.standard_normal((d, 2)) + 1.2
        v = rng.standard_normal((d, 2)) + 1.2
        walkers = [product_walker(u, 0.8, 1.1), product_walker(v, 1.7, 0.6)]
        truth = dense_ensemble_sum(walkers)
        passes = 0
        for seed in range(20):
            pair = make_sketch_pair(d, 8, 0.1, seed=seed)
            fit = sketch_ensemble(walkers, pair, [2, 2, 2, 2, 2, 2])
            err = np.linalg.norm(tt_to_dense(fit) - truth) / np.linalg.norm(truth)
            if err < 1e-6:
                passes += 1
        assert passes >= 19

    def test_linearity_in_weights(self, rng):
        d = 5
        walkers = [
            product_walker(rng.standard_normal((d, 2)) + 1.5, w, 1.0)
            for w in (0.5, 1.0, 2.0)
        ]
        scaled = [Walker(w.state, 3.0 * w.weight, w.overlap) for w in walkers]
        pair = make_sketch_pair(d, 10, 0.1, seed=13)
        base = tt_to_dense(sketch_ensemble(walkers, pair, [2, 4, 4, 2]))
        tripled = tt_to_dense(sketch_ensemble(scaled, pair, [2, 4, 4, 2]))
        np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-10)

    def test_zero_weight_walkers_skipped(self, rng):
        d = 5
        keep = product_walker(rng.standard_normal((d, 2)) + 2.0, 1.0, 1.0)
        junk = product_walker(np.full((d, 2), np.e), 0.0, 1.0)
        pair = make_sketch_pair(d, 10, 0.1, seed=2)
        with_junk = sketch_ensemble([keep, junk], pair, [2, 2, 2, 2])
        without = sketch_ensemble([keep], pair, [2, 2, 2, 2])
        np.testing.assert_allclose(tt_to_dense(with_junk), tt_to_dense(without), rtol=1e-12)

    def test_negative_weight_rejected(self, rng):
        walker = product_walker(np.ones((4, 2)), -1.0, 1.0)
        pair = make_sketch_pair(4, 6, 0.1, seed=2)
        with pytest.raises(ValueError, match="negative"):
            sketch_ensemble([walker], pair, [2, 2, 2])

    def test_positive_weight_nonpositive_overlap_rejected(self, rng):
        walker = product_walker(np.ones((4, 2)), 1.0, 0.0)
        pair = make_sketch_pair(4, 6, 0.1, seed=2)
        with pytest.raises(ValueError, match="overlap"):
            sketch_ensemble([walker], pair, [2, 2, 2])

    @pytest.mark.parametrize("weight, overlap", [(-1.0, 1.0), (1.0, 0.0)])
    def test_bad_walker_is_named_ttqmc_error(self, weight, overlap):
        walkers = [
            product_walker(np.ones((4, 2))),
            product_walker(np.ones((4, 2)), weight, overlap),
        ]
        pair = make_sketch_pair(4, 6, 0.1, seed=2)
        with pytest.raises(TtqmcError, match="at walker 1") as err:
            sketch_ensemble(walkers, pair, [2, 2, 2])
        assert isinstance(err.value, SketchFitError)
        assert err.value.cut is None

    def test_degenerate_pair_rank_zero_names_cut(self):
        # delta = 0 collapses the cluster basis to span{(1,1)}; a walker whose
        # site vectors are orthogonal to it zeroes every cross matrix
        d = 5
        walker = product_walker(np.tile([1.0, -1.0], (d, 1)), 1.0, 1.0)
        pair = make_sketch_pair(d, 6, 0.0, seed=4)
        with pytest.raises(RankZeroError) as err:
            sketch_ensemble([walker], pair, [2, 2, 2, 2])
        assert err.value.cut is not None

    def test_dimension_mismatch(self, rng):
        walker = product_walker(np.ones((4, 2)), 1.0, 1.0)
        pair = make_sketch_pair(5, 6, 0.1, seed=2)
        with pytest.raises(DimensionMismatchError):
            sketch_ensemble([walker], pair, [2, 2, 2, 2])


class TestSweepPartials:
    def test_partials_match_sub_train_overlaps(self, rng):
        # L[c][k, a] is walker k's sites < c against the sketch's cores
        # 0..c-1 with the last right index fixed to a (times coeff[k]);
        # R[c][k, a] likewise for sites >= c with the first left index a.
        # The right sweep keeps R only at the even cuts c >= 2 and at c = d.
        for d in (5, 6):
            self.check_partials(rng, d, n=4)

    @staticmethod
    def check_partials(rng, d, n):
        pair = make_sketch_pair(d, 3, 0.1, seed=7)
        sites = [rng.standard_normal((n, 2)) for _ in range(d)]
        coeff = rng.random(n) + 0.5
        L = [coeff.reshape(-1, 1)]
        for core, v in zip(pair.left.cores, sites):
            out = np.empty((n, core.shape[2]))
            L.append(_advance_left(L[-1], core, v, out, np.empty(2 * out.size)))
        R, spare = _right_partials(pair.right, sites, np.empty(2 * n * 3))
        assert len(L) == d + 1
        assert sorted(R) == list(range(2, d, 2)) + [d]
        assert spare.shape == (n, 3)
        np.testing.assert_array_equal(R[d], np.ones((n, 1)))
        for k in range(n):
            walker = np.stack([s[k] for s in sites])
            for c in range(1, d + 1):
                cores = [np.asarray(g) for g in pair.left.cores[:c]]
                for a in range(L[c].shape[1]):
                    sub = TensorTrain(cores[:-1] + [cores[-1][:, :, a : a + 1]])
                    ref = coeff[k] * tt_product_overlap(sub, ProductState(walker[:c]))
                    assert L[c][k, a] == pytest.approx(ref, rel=1e-12, abs=1e-14)
            for c in range(2, d, 2):
                cores = [np.asarray(g) for g in pair.right.cores[c:]]
                for a in range(R[c].shape[1]):
                    sub = TensorTrain([cores[0][a : a + 1]] + cores[1:])
                    ref = tt_product_overlap(sub, ProductState(walker[c:]))
                    assert R[c][k, a] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def two_phase_fit(walkers, pair, target_ranks):
    """The solve-then-truncate fit, kept as an oracle for ``sketch_ensemble``.

    First phase: core m solves X_m G_m = Y_m by least squares.  Y_m is the
    ensemble sketched on both sides of site m, and X_m contracts the left
    sketch with the solved cores 0..m-1.  Second phase: the leading right
    singular vectors of each X_m, as many as the target rank, are
    contracted into the two cores next to cut m.
    """
    d = walkers[0].state.d
    coeff = np.array([w.weight / w.overlap for w in walkers])
    sites = [np.stack([w.state.sites[m] for w in walkers]) for m in range(d)]
    R = [np.ones((len(walkers), 1))]
    for m in range(d - 1, -1, -1):
        R.insert(0, np.einsum("kb,aib,ki->ka", R[0], pair.right.cores[m], sites[m]))

    def y_core(L, m):
        return np.einsum("ka,ki,kb->aib", L, sites[m], R[m + 1])

    L = coeff[:, None]
    cores, vs = [y_core(L, 0)], [None]
    for m in range(1, d):
        s_prev = pair.left.cores[m - 1]
        if m == 1:
            x = np.einsum("aix,aig->xg", s_prev, cores[0])
        else:
            x = np.einsum("ab,aix,big->xg", x, s_prev, cores[m - 1])
        vs.append(np.linalg.svd(x)[2][: target_ranks[m - 1]])
        L = np.einsum("ka,aix,ki->kx", L, s_prev, sites[m - 1])
        cores.append(least_squares_core(x, y_core(L, m), LS_CUTOFF))
    trimmed = []
    for m, g in enumerate(cores):
        if m > 0:
            g = np.einsum("ag,gib->aib", vs[m], g)
        if m < d - 1:
            g = np.einsum("aig,bg->aib", g, vs[m + 1])
        trimmed.append(g)
    return TensorTrain(trimmed)


def random_walkers(rng, d, n):
    return [
        product_walker(rng.standard_normal((d, 2)), rng.random() + 0.5, rng.random() + 0.5)
        for _ in range(n)
    ]


def nested_ranks(d, edge, middle):
    return ([edge] + [middle] * (d - 3) + [edge])[: d - 1]


class TestOneSweepFit:
    @pytest.mark.parametrize("seed", range(4))
    # odd d ends on an even-index core fitted against R_d, even d on an
    # odd-index core taken from the two-site sum Y_{d-1}
    @pytest.mark.parametrize(
        "d, n",
        [(2, 1), (2, 20), (3, 1), (3, 20), (4, 30), (5, 1), (5, 25),
         (7, 1), (7, 40), (10, 1), (10, 60)],
    )
    def test_matches_two_phase_oracle(self, d, n, seed):
        rng = np.random.default_rng(100 * d + 10 * n + seed)
        walkers = random_walkers(rng, d, n)
        pair = make_sketch_pair(d, 12, 0.1, seed=seed)
        ranks = nested_ranks(d, 2, 4)
        tt = sketch_ensemble(walkers, pair, ranks)
        fit = tt_to_dense(tt)
        ref = tt_to_dense(two_phase_fit(walkers, pair, ranks))
        # entries near zero are held to the vector's scale
        np.testing.assert_allclose(fit, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
        if n == 1:
            # the numerical rank is 1, below every target rank: every
            # direction past the first is zeroed, not inverted
            for core in tt.cores[1:]:
                assert np.all(core[1:] == 0.0)

    def test_matches_two_phase_oracle_at_d20(self):
        d = 20
        rng = np.random.default_rng(2020)
        walkers = random_walkers(rng, d, 200)
        pair = make_sketch_pair(d, 16, 0.1, seed=3)
        ranks = nested_ranks(d, 2, 4)
        a = sketch_ensemble(walkers, pair, ranks)
        b = two_phase_fit(walkers, pair, ranks)
        cos = tt_tt_overlap(a, b) / np.sqrt(tt_tt_overlap(a, a) * tt_tt_overlap(b, b))
        assert cos >= 1.0 - 1e-12

    def test_cores_independent_of_blas_threads(self):
        # one n=2000 sketch in two fresh processes, at 1 and 2 BLAS threads
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from ttqmc.sketching import make_sketch_pair, sketch_ensemble\n"
            "from ttqmc.walker_engine import Ensemble\n"
            "d, n = 32, 2000\n"
            "rng = np.random.default_rng(11)\n"
            "sites = rng.standard_normal((d, n, 2)).transpose(0, 2, 1)\n"
            "ens = Ensemble(sites, rng.random(n) + 0.5, rng.random(n) + 0.5, seed=0)\n"
            "ranks = [2] + [4] * (d - 3) + [2]\n"
            "tt = sketch_ensemble(ens, make_sketch_pair(d, 60, 0.1, seed=5), ranks)\n"
            "print(hashlib.sha256(b''.join(c.tobytes() for c in tt.cores)).hexdigest())\n"
        )
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            hashes.append(out.stdout.strip())
        assert len(hashes[0]) == 64
        assert hashes[0] == hashes[1]


class TestWorkingSet:
    def test_sketch_peak_below_half_the_cuts(self):
        # The right sweep keeps about d/2 partials of n * s doubles; one for
        # every cut would need (d + 1) * n * s * 8 bytes.
        d, n, s = 32, 2000, 60
        rng = np.random.default_rng(11)
        sites = np.ascontiguousarray(rng.standard_normal((d, n, 2)).transpose(0, 2, 1))
        ens = Ensemble(sites, rng.random(n) + 0.5, rng.random(n) + 0.5, seed=0)
        pair = make_sketch_pair(d, s, 0.1, seed=5)
        tracemalloc.start()
        try:
            sketch_ensemble(ens, pair, nested_ranks(d, 2, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (d // 2 + 4) * n * s * 8


class TestFitFailuresNamed:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "weight, overlap, name",
        [(np.inf, 1.0, "weight"), (np.nan, 1.0, "weight"), (1.0, 1e-320, "coefficient")],
    )
    def test_non_finite_coefficient(self, weight, overlap, name):
        walkers = [
            product_walker(np.ones((4, 2))),
            product_walker(np.ones((4, 2)), weight, overlap),
        ]
        pair = make_sketch_pair(4, 6, 0.1, seed=2)
        with pytest.raises(SketchFitError, match=f"non-finite walker {name}.* at walker 1"):
            sketch_ensemble(walkers, pair, [2, 2, 2])

    def test_overflowing_cross_matrix_names_cut(self, rng):
        d = 24
        walkers = random_walkers(rng, d, 20)
        walkers[0] = Walker(walkers[0].state, 1e300, 1.0)
        pair = make_sketch_pair(d, 12, 0.1, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SketchFitError, match="non-finite cross matrix at cut") as err:
                sketch_ensemble(walkers, pair, nested_ranks(d, 2, 4))
        assert 1 <= err.value.cut < d

    def test_svd_failure_names_cut(self, rng, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        pair = make_sketch_pair(5, 6, 0.1, seed=2)
        with pytest.raises(SketchFitError, match="cut 1 failed: SVD did not converge") as err:
            sketch_ensemble(random_walkers(rng, 5, 3), pair, [2, 2, 2, 2])
        assert err.value.cut == 1
