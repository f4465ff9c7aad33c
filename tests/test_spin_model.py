import numpy as np
import pytest
from scipy.linalg import expm

from scipy.sparse.linalg import eigsh

from ttqmc import spin_model
from ttqmc.errors import DenseCapError, EigensolverError
from ttqmc.spin_model import (
    SIGMA_X,
    PropagatorSet,
    _lanczos_ground_energy,
    analytic_chain_energy,
    build_lattice,
    dense_hamiltonian,
    hs_lambda,
    one_body_matrix,
    sparse_hamiltonian,
)


class TestBuildLattice:
    def test_periodic_chain_bonds(self):
        lat = build_lattice("chain", (4,), "periodic")
        assert set(lat.bonds) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert lat.tt_order == (0, 1, 2, 3)

    def test_open_grid_2x2(self):
        lat = build_lattice("grid", (2, 2), "open")
        assert len(lat.bonds) == 4

    def test_cylinder_4x16_bond_count(self):
        # 16 rings of 4 bonds plus 4 rows of 15 bonds
        lat = build_lattice("cylinder", (4, 16), "periodic")
        assert len(lat.bonds) == 64 + 60

    def test_cylinder_ring_bonds_short_in_chain_order(self):
        lat = build_lattice("cylinder", (4, 6), "periodic")
        spans = [abs(p - q) for p, q in lat.chain_bonds]
        assert max(spans) <= 2 * 4 - 1

    def test_d2_periodic_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            build_lattice("chain", (2,), "periodic")

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            build_lattice("grid", (3, 3), "periodic")
        with pytest.raises(ValueError):
            build_lattice("cylinder", (4, 4), "open")
        with pytest.raises(ValueError):
            build_lattice("triangular", (4,), "open")

    def test_bonds_unique_sorted_pairs(self):
        lat = build_lattice("grid", (3, 4), "open")
        assert len(set(lat.bonds)) == len(lat.bonds)
        assert all(i < j for i, j in lat.bonds)
        assert sorted(lat.bonds) == list(lat.bonds)

    def test_tt_order_is_bijection(self):
        lat = build_lattice("cylinder", (4, 16), "periodic")
        assert sorted(lat.tt_order) == list(range(64))


class TestOneBodyMatrix:
    def test_g_zero_identity(self):
        np.testing.assert_array_equal(one_body_matrix(0.0, 0.01), np.eye(2))

    def test_semigroup(self):
        B = one_body_matrix(1.3, 0.02)
        np.testing.assert_allclose(B @ B, one_body_matrix(1.3, 0.04), rtol=1e-14)

    def test_matches_series_exponential(self):
        # series-computed matrix exponential as independent oracle
        A = 1.0 * 0.01 / 2.0 * SIGMA_X
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 30):
            term = term @ A / k
            series = series + term
        got = one_body_matrix(1.0, 0.01)
        np.testing.assert_allclose(got, series, rtol=1e-14)
        assert got[0, 0] == pytest.approx(np.cosh(0.005), rel=1e-15)
        assert got[0, 1] == pytest.approx(np.sinh(0.005), rel=1e-15)


class TestHsLambda:
    def test_small_dtau_sqrt_limit(self):
        lam = hs_lambda(1e-8)
        assert lam / np.sqrt(1e-8) == pytest.approx(1.0, abs=1e-3)

    def test_defining_identity(self):
        lam = hs_lambda(0.01)
        assert np.cosh(2 * lam) == pytest.approx(np.exp(0.02), rel=1e-14)
        assert lam == pytest.approx(0.1003, abs=5e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hs_lambda(0.0)

    @pytest.mark.parametrize("dtau", [0.001, 0.01, 0.1])
    def test_field_average_identity(self, dtau):
        # 4x4 identity: sum_x (1/2) e^{-dtau} e^{x lam (z_i + z_j)} = e^{dtau z_i z_j}
        prop = PropagatorSet.build(1.0, dtau)
        z = np.array([1.0, -1.0])
        lhs = np.zeros(4)
        for x in (1, -1):
            fac = prop.bond_site_factors(x)
            lhs += 0.5 * prop.bond_prefactor * np.kron(fac, fac)
        rhs = np.exp(dtau * np.kron(z, z))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14)
        expected_diag = [np.exp(dtau), np.exp(-dtau), np.exp(-dtau), np.exp(dtau)]
        np.testing.assert_allclose(lhs, expected_diag, rtol=1e-14)


class TestDenseHamiltonian:
    def test_single_site(self):
        lat = build_lattice("chain", (1,), "open")
        H = dense_hamiltonian(lat, 0.7)
        np.testing.assert_allclose(H, -0.7 * SIGMA_X)
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [-0.7, 0.7])

    def test_d2_open_ground_energy(self):
        lat = build_lattice("chain", (2,), "open")
        e0 = np.linalg.eigvalsh(dense_hamiltonian(lat, 1.0))[0]
        assert e0 == pytest.approx(-np.sqrt(5.0), rel=1e-12)

    def test_classical_limit_periodic(self):
        lat = build_lattice("chain", (8,), "periodic")
        e0 = np.linalg.eigvalsh(dense_hamiltonian(lat, 0.0))[0]
        assert e0 == pytest.approx(-8.0, abs=1e-12)

    def test_cap(self):
        lat = build_lattice("chain", (15,), "open")
        with pytest.raises(DenseCapError):
            dense_hamiltonian(lat, 1.0)

    def test_sparse_matches_dense(self):
        lat = build_lattice("chain", (6,), "periodic")
        np.testing.assert_array_equal(
            sparse_hamiltonian(lat, 1.3).toarray(), dense_hamiltonian(lat, 1.3)
        )

    def test_symmetric(self):
        lat = build_lattice("grid", (2, 3), "open")
        H = dense_hamiltonian(lat, 0.8)
        np.testing.assert_array_equal(H, H.T)


class TestAnalyticChainEnergy:
    def test_classical_limit(self):
        assert analytic_chain_energy(10, 0.0) == pytest.approx(-10.0, abs=1e-12)

    def test_matches_dense_d8(self):
        lat = build_lattice("chain", (8,), "periodic")
        e_dense = np.linalg.eigvalsh(dense_hamiltonian(lat, 1.0))[0]
        assert abs(analytic_chain_energy(8, 1.0) - e_dense) < 1e-10

    def test_strong_field_d10(self):
        lat = build_lattice("chain", (10,), "periodic")
        e_dense = np.linalg.eigvalsh(dense_hamiltonian(lat, 4.0))[0]
        e_an = analytic_chain_energy(10, 4.0)
        assert abs(e_an - e_dense) < 1e-10
        assert abs(e_an - (-4.0 * 10)) / (4.0 * 10) < 0.02


LANCZOS_LATTICES = {
    "chain8-periodic": ("chain", (8,), "periodic"),
    "chain10-open": ("chain", (10,), "open"),
    "chain12-periodic": ("chain", (12,), "periodic"),
    "cylinder3x4": ("cylinder", (3, 4), "periodic"),
}


class TestLanczosGroundEnergy:
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", list(LANCZOS_LATTICES))
    def test_matches_exact_diagonalization(self, name, g):
        lat = build_lattice(*LANCZOS_LATTICES[name])
        if lat.d <= 10:
            expected = np.linalg.eigh(dense_hamiltonian(lat, g))[0][0]
        else:
            expected = eigsh(sparse_hamiltonian(lat, g), k=1, which="SA", return_eigenvectors=False)[0]
        assert abs(_lanczos_ground_energy(lat, g) - expected) < 1e-10

    def test_iteration_cap_is_an_error(self, monkeypatch):
        # d=8 at g=1 needs about 15 iterations
        monkeypatch.setattr(spin_model, "LANCZOS_MAX_ITER", 3)
        lat = build_lattice("chain", (8,), "periodic")
        with pytest.raises(EigensolverError) as err:
            _lanczos_ground_energy(lat, 1.0)
        assert err.value.d == 8


class TestPropagatorProperties:
    def _dense_step(self, lat, g, dtau):
        d = lat.d
        B1 = np.array([[1.0]])
        half = one_body_matrix(g, dtau)
        for _ in range(d):
            B1 = np.kron(B1, half)
        states = np.arange(2 ** d)
        zz = np.zeros(2 ** d)
        for p, q in lat.chain_bonds:
            sp = 1.0 - 2.0 * ((states >> (d - 1 - p)) & 1)
            sq = 1.0 - 2.0 * ((states >> (d - 1 - q)) & 1)
            zz += sp * sq
        B2 = np.diag(np.exp(dtau * zz))
        return B1 @ B2 @ B1

    def test_trotter_error_third_order(self):
        # halving dtau must shrink the per-step error by about 2^3
        lat = build_lattice("chain", (4,), "periodic")
        H = dense_hamiltonian(lat, 1.0)
        errs = []
        for dtau in (0.02, 0.01):
            approx = self._dense_step(lat, 1.0, dtau)
            errs.append(np.linalg.norm(approx - expm(-dtau * H), 2))
        assert 6.0 <= errs[0] / errs[1] <= 10.0

    def test_hs_factorization_exact(self):
        # the field-averaged bond product equals the full two-body propagator
        lat = build_lattice("chain", (4,), "periodic")
        d, dtau = lat.d, 0.05
        prop = PropagatorSet.build(1.0, dtau)
        full = np.eye(2 ** d)
        for p, q in lat.chain_bonds:
            avg = np.zeros(2 ** d)
            for x in (1, -1):
                fac = prop.bond_site_factors(x)
                states = np.arange(2 ** d)
                diag = np.full(2 ** d, 0.5 * prop.bond_prefactor)
                diag = diag * fac[(states >> (d - 1 - p)) & 1]
                diag = diag * fac[(states >> (d - 1 - q)) & 1]
                avg += diag
            full = full @ np.diag(avg)
        states = np.arange(2 ** d)
        zz = np.zeros(2 ** d)
        for p, q in lat.chain_bonds:
            sp = 1.0 - 2.0 * ((states >> (d - 1 - p)) & 1)
            sq = 1.0 - 2.0 * ((states >> (d - 1 - q)) & 1)
            zz += sp * sq
        exact = np.diag(np.exp(dtau * zz))
        np.testing.assert_allclose(full, exact, atol=1e-13)

    def test_positivity(self):
        prop = PropagatorSet.build(0.9, 0.02)
        assert np.all(prop.one_body_half >= 0.0)
        for x in (1, -1):
            assert np.all(prop.bond_prefactor * prop.bond_site_factors(x) > 0.0)
        vec = np.array([0.3, 1.2])
        assert np.all(prop.one_body_half @ vec > 0.0)

    def test_dtau_zero_is_identity(self):
        prop = PropagatorSet.build(1.0, 0.0)
        np.testing.assert_array_equal(prop.one_body_half, np.eye(2))
        assert prop.lam == 0.0
        assert prop.bond_prefactor == 1.0
