import numpy as np
import pytest

from ttqmc.errors import DenseCapError
from ttqmc.oracle import ExactSolution, exact_ground
from ttqmc.spin_model import analytic_chain_energy, build_lattice

from conftest import csr_hamiltonian


def residual_check(solution, lattice, g):
    """||H psi0 - E0 psi0||_2 of an exact solution."""
    H = csr_hamiltonian(lattice, g)
    psi = solution.ground_state
    return float(np.linalg.norm(H @ psi - solution.energy * psi))


class TestExactGround:
    def test_d2_open_critical(self):
        sol = exact_ground(build_lattice("chain", (2,), "open"), 1.0)
        assert sol.energy == pytest.approx(-np.sqrt(5.0), rel=1e-12)

    def test_matches_analytic_d8(self):
        sol = exact_ground(build_lattice("chain", (8,), "periodic"), 1.0)
        assert abs(sol.energy - analytic_chain_energy(8, 1.0)) < 1e-10

    def test_classical_doublet_even_combination(self):
        # d=3 open, g=0: two bonds, two symmetric ground configurations; the
        # solver returns their even combination (|000> + |111>) / sqrt(2)
        sol = exact_ground(build_lattice("chain", (3,), "open"), 0.0)
        assert sol.energy == pytest.approx(-2.0, abs=1e-12)
        expected = np.zeros(8)
        expected[[0, 7]] = 2 ** -0.5
        np.testing.assert_allclose(sol.ground_state, expected, atol=1e-14)

    def test_normalized_and_sign_fixed(self):
        sol = exact_ground(build_lattice("chain", (6,), "periodic"), 1.0)
        assert np.linalg.norm(sol.ground_state) == pytest.approx(1.0, rel=1e-12)
        assert sol.ground_state[np.argmax(np.abs(sol.ground_state))] > 0
        # critical TFI ground state is entrywise positive in this basis
        assert np.all(sol.ground_state > 0)

    def test_krylov_path_matches_analytic(self):
        # d=12: every size goes through the one Lanczos solver
        sol = exact_ground(build_lattice("chain", (12,), "periodic"), 1.0)
        assert abs(sol.energy - analytic_chain_energy(12, 1.0)) < 1e-9

    def test_cap(self):
        with pytest.raises(DenseCapError):
            exact_ground(build_lattice("chain", (15,), "open"), 1.0)


class TestResidualCheck:
    def test_contract_small_residual(self):
        lat = build_lattice("chain", (8,), "periodic")
        sol = exact_ground(lat, 1.0)
        assert residual_check(sol, lat, 1.0) < 1e-9

    def test_perturbed_vector_large_residual(self, rng):
        lat = build_lattice("chain", (8,), "periodic")
        sol = exact_ground(lat, 1.0)
        noisy = sol.ground_state + 1e-3 * rng.standard_normal(sol.ground_state.size)
        noisy /= np.linalg.norm(noisy)
        perturbed = ExactSolution(energy=sol.energy, ground_state=noisy)
        assert residual_check(perturbed, lat, 1.0) > 1e-4

    def test_single_site_analytic(self):
        # E0 = -g with psi0 proportional to (1, 1)
        lat = build_lattice("chain", (1,), "open")
        psi = np.full(2, 2 ** -0.5)
        sol = ExactSolution(energy=-1.0, ground_state=psi)
        assert residual_check(sol, lat, 1.0) < 1e-14

