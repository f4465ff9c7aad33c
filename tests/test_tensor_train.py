import numpy as np
import pytest

from ttqmc.errors import DenseCapError, DimensionMismatchError
from ttqmc.oracle import exact_ground
from ttqmc.spin_model import build_lattice
from ttqmc.tensor_train import (
    ProductState,
    TensorTrain,
    load_tt,
    save_tt,
    tt_product_overlap,
    tt_to_dense,
    tt_tt_overlap,
)

from conftest import random_tt


def ones_rank1(d):
    return TensorTrain.from_product(np.ones((d, 2)))


def up_rank1(d):
    return TensorTrain.from_product(np.tile([1.0, 0.0], (d, 1)))


class TestTensorTrainType:
    def test_rank_bookkeeping(self, rng):
        tt = random_tt(rng, 5, 3)
        assert tt.d == 5
        assert tt.ranks == (3, 3, 3, 3)

    def test_bond_mismatch_rejected(self, rng):
        cores = [rng.standard_normal((1, 2, 2)), rng.standard_normal((3, 2, 1))]
        with pytest.raises(ValueError, match="bond mismatch"):
            TensorTrain(cores)

    def test_boundary_rank_must_be_one(self, rng):
        with pytest.raises(ValueError, match="boundary"):
            TensorTrain([rng.standard_normal((2, 2, 1))])

    def test_physical_dimension_must_be_two(self, rng):
        with pytest.raises(ValueError, match="physical"):
            TensorTrain([rng.standard_normal((1, 3, 1))])

    def test_immutable(self, rng):
        tt = random_tt(rng, 3, 2)
        with pytest.raises(AttributeError):
            tt.cores = ()
        with pytest.raises(ValueError):
            tt.cores[0][0, 0, 0] = 1.0

    def test_product_state_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            ProductState([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            ProductState([[1.0, np.inf], [1.0, 0.0]])


class TestProductOverlap:
    def test_rank1_all_ones_times_up(self):
        # every site contributes a dot product of 1
        tt = ones_rank1(3)
        phi = ProductState(np.tile([1.0, 0.0], (3, 1)))
        assert tt_product_overlap(tt, phi) == pytest.approx(1.0, abs=1e-15)

    def test_disordered_times_all_ones(self):
        # (1/4) * 2^4 by separable factorization
        tt = TensorTrain.disordered(4)
        phi = ProductState(np.ones((4, 2)))
        assert tt_product_overlap(tt, phi) == pytest.approx(4.0, rel=1e-14)

    def test_matches_dense_contraction(self, rng):
        tt = random_tt(rng, 5, 2)
        phi = ProductState(rng.standard_normal((5, 2)))
        expected = tt_to_dense(tt) @ phi.to_dense()
        got = tt_product_overlap(tt, phi)
        assert abs(got - expected) / abs(expected) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            tt_product_overlap(random_tt(rng, 4, 2), ProductState(np.ones((5, 2))))

    def test_rank1_equals_product_of_site_dots(self, rng):
        for _ in range(10):
            sites_tt = rng.standard_normal((6, 2))
            sites_phi = rng.standard_normal((6, 2))
            tt = TensorTrain.from_product(sites_tt)
            got = tt_product_overlap(tt, ProductState(sites_phi))
            expected = np.prod(np.sum(sites_tt * sites_phi, axis=1))
            assert abs(got - expected) <= 1e-14 * abs(expected)

    def test_scaling_one_core(self, rng):
        tt = random_tt(rng, 4, 2)
        phi = ProductState(rng.standard_normal((4, 2)))
        base = tt_product_overlap(tt, phi)
        scaled = tt.scaled(-2.5)
        assert tt_product_overlap(scaled, phi) == pytest.approx(-2.5 * base, rel=1e-13)


class TestTTOverlap:
    def test_normalized_rank1_self_overlap(self):
        tt = up_rank1(6)
        assert tt_tt_overlap(tt, tt) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_per_site(self):
        a = TensorTrain.disordered(3)
        b = TensorTrain.from_product(np.tile([1.0 / np.sqrt(2), -1.0 / np.sqrt(2)], (3, 1)))
        assert tt_tt_overlap(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_dot(self, rng):
        a = random_tt(rng, 5, 3)
        b = random_tt(rng, 5, 3)
        expected = tt_to_dense(a) @ tt_to_dense(b)
        got = tt_tt_overlap(a, b)
        assert abs(got - expected) / abs(expected) < 1e-12

    def test_symmetric(self, rng):
        a = random_tt(rng, 6, 3)
        b = random_tt(rng, 6, 4)
        x, y = tt_tt_overlap(a, b), tt_tt_overlap(b, a)
        assert abs(x - y) <= 1e-12 * abs(x)

    def test_self_overlap_nonnegative(self, rng):
        for _ in range(5):
            a = random_tt(rng, 5, 3)
            assert tt_tt_overlap(a, a) >= -1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            tt_tt_overlap(random_tt(rng, 4, 2), random_tt(rng, 5, 2))


class TestToDense:
    def test_all_ones_d2(self):
        assert tt_to_dense(ones_rank1(2)) == pytest.approx([1, 1, 1, 1])

    def test_disordered_d2(self):
        assert tt_to_dense(TensorTrain.disordered(2)) == pytest.approx([0.5] * 4)

    def test_every_entry_matches_basis_overlap(self, rng):
        # exhaustive basis check at d=4
        tt = random_tt(rng, 4, 3)
        dense = tt_to_dense(tt)
        for idx in range(16):
            sites = np.zeros((4, 2))
            for m in range(4):
                sites[m, (idx >> (3 - m)) & 1] = 1.0
            assert dense[idx] == pytest.approx(
                tt_product_overlap(tt, ProductState(sites)), rel=1e-13, abs=1e-13
            )

    def test_cap_refusal(self, rng):
        tt = random_tt(rng, 6, 2)
        with pytest.raises(DenseCapError):
            tt_to_dense(tt, cap=5)

    def test_dense_oracle_equivalence_up_to_d8(self, rng):
        for d in (2, 4, 8):
            tt = random_tt(rng, d, 3)
            phi = ProductState(rng.standard_normal((d, 2)))
            dense = tt_to_dense(tt)
            assert tt_product_overlap(tt, phi) == pytest.approx(
                dense @ phi.to_dense(), rel=1e-12
            )


class TestFromDense:
    @staticmethod
    def _assert_exact(v):
        tt = TensorTrain.from_dense(v)
        d = tt.d
        assert 2 ** d == v.size
        assert tt.ranks == tuple(min(2 ** c, 2 ** (d - c)) for c in range(1, d))
        err = np.linalg.norm(tt_to_dense(tt) - v)
        assert err <= 1e-13 * np.linalg.norm(v)

    def test_random_vectors_reproduced(self, rng):
        for d in range(1, 11):
            self._assert_exact(rng.standard_normal(2 ** d))

    def test_exact_ground_state_reproduced(self):
        sol = exact_ground(build_lattice("chain", (8,), "open"), 1.0)
        self._assert_exact(sol.ground_state)

    @pytest.mark.parametrize(
        "vec", [np.ones(6), np.ones((4, 4))], ids=["length-6", "2-D"]
    )
    def test_bad_shape_rejected(self, vec):
        with pytest.raises(ValueError):
            TensorTrain.from_dense(vec)


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        tt = random_tt(rng, 5, 4)
        path = tmp_path / "trial.tt"
        save_tt(path, tt)
        back = load_tt(path)
        assert back.ranks == tt.ranks
        np.testing.assert_array_equal(tt_to_dense(back), tt_to_dense(tt))

    def test_version_tag_checked(self, rng, tmp_path):
        path = tmp_path / "bad.tt"
        np.savez(path.open("wb"), format=np.array("other-format"), d=np.array(2))
        with pytest.raises(ValueError, match="format"):
            load_tt(path)
