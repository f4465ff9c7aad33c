"""Tests of the benchmark's own references and checks (seconds to run).

    python3 -m pytest -q perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

from checks import (
    check_energy,
    check_identical,
    check_step0,
    check_trace,
    check_trial,
    parse_trace,
)
from reference import (
    chain_bonds,
    cylinder_bonds,
    exact_ground,
    expected_ranks,
    free_fermion_energy,
    rayleigh_quotient,
)


def product_cores(theta, d):
    """cos(theta)|0> + sin(theta)|1> on every site, as rank-1 cores."""
    v = np.array([math.cos(theta), math.sin(theta)])
    return [v.reshape(1, 2, 1).copy() for _ in range(d)]


def tilted_energy(theta, d, n_bonds, g):
    """Hand value: <X> = sin(2 theta), <Z> = cos(2 theta) on every site."""
    return -g * d * math.sin(2 * theta) - n_bonds * math.cos(2 * theta) ** 2


@pytest.mark.parametrize("d", [6, 8])
def test_kron_eigensolve_matches_free_fermions(d):
    e0, psi = exact_ground(d, chain_bonds(d), 1.0)
    assert e0 == pytest.approx(free_fermion_energy(d, 1.0), abs=1e-9)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_free_fermion_off_critical():
    e0, _ = exact_ground(8, chain_bonds(8), 0.6)
    assert e0 == pytest.approx(free_fermion_energy(8, 0.6), abs=1e-9)


def test_cylinder_bond_count_and_snake():
    bonds = cylinder_bonds(4, 4)
    assert len(bonds) == 28
    # Ring bonds close each column: positions 0-3, then 4-7 (reversed).
    assert (0, 3) in bonds and (4, 7) in bonds
    # Long-axis bonds span up to 7 chain positions in the snake.
    assert max(q - p for p, q in bonds) == 7


def test_rayleigh_quotient_of_product_states():
    d, g = 8, 1.0
    bonds = chain_bonds(d)
    assert rayleigh_quotient(product_cores(math.pi / 4, d), bonds, g) == pytest.approx(-g * d)
    assert rayleigh_quotient(product_cores(0.0, d), bonds, g) == pytest.approx(-len(bonds))
    theta = 0.6
    assert rayleigh_quotient(product_cores(theta, d), bonds, g) == pytest.approx(
        tilted_energy(theta, d, len(bonds), g)
    )


def test_rayleigh_quotient_is_scale_free():
    cores = product_cores(0.6, 5)
    cores[2] = cores[2] * 7.5
    bonds = chain_bonds(5)
    assert rayleigh_quotient(cores, bonds, 1.0) == pytest.approx(
        tilted_energy(0.6, 5, len(bonds), 1.0)
    )


def good_trial(d):
    # Slightly polarised: below -g d, above E0.
    return product_cores(math.pi / 4 - 0.15, d)


def test_trial_check_accepts_good_trial():
    d = 8
    bonds = chain_bonds(d)
    e0 = free_fermion_energy(d, 1.0)
    assert check_trial(good_trial(d), bonds, 1.0, e0, (1,) * (d - 1)) == []


def test_trial_check_rejects_sign_flipped_core():
    d = 8
    bonds = chain_bonds(d)
    cores = good_trial(d)
    cores[3][:, 1, :] *= -1.0
    fails = check_trial(cores, bonds, 1.0, free_fermion_energy(d, 1.0), (1,) * (d - 1))
    assert any("does not beat" in f for f in fails)


def test_trial_check_rejects_energy_below_e0():
    d = 8
    fails = check_trial(good_trial(d), chain_bonds(d), 1.0, -7.9, (1,) * (d - 1))
    assert any("below the ground-state energy" in f for f in fails)


def test_trial_check_rejects_wrong_ranks():
    d = 8
    fails = check_trial(
        good_trial(d), chain_bonds(d), 1.0, free_fermion_energy(d, 1.0),
        expected_ranks(d, 2, 4, 60),
    )
    assert any("ranks" in f for f in fails)


def test_expected_ranks_pattern():
    assert expected_ranks(16, 2, 4, 60) == (2,) + (4,) * 13 + (2,)
    assert expected_ranks(3, 2, 4, 60) == (2, 2)


def test_energy_check_tolerance():
    ref = -20.0
    assert check_energy(ref * 1.02, ref, 0.03) == []
    assert check_energy(ref * (1 - 0.031), ref, 0.03)
    assert check_energy(float("nan"), ref, 0.03)
    assert check_energy(None, ref, 0.03)


def test_energy_tolerance_rejects_unprojected_run():
    # The step-0 energy -g d of the d = 16 chain is 22% above E0.
    e0 = free_fermion_energy(16, 1.0)
    assert check_energy(-16.0, e0, 0.03)


TRACE = "step,energy,total_weight,alive\n0,-16.0,2000.0,2000\n10,-18.5,1990.2,2000\n"


def test_trace_checks_accept_good_trace():
    rows = parse_trace(TRACE)
    assert check_trace(rows, 2000, 2) == []
    assert check_step0(rows, 1.0, 16) == []


def test_trace_check_rejects_nan():
    rows = parse_trace(TRACE.replace("-18.5", "nan"))
    assert any("non-finite" in f for f in check_trace(rows, 2000, 2))


def test_trace_check_rejects_bad_alive_and_row_count():
    rows = parse_trace(TRACE.replace("1990.2,2000", "1990.2,0"))
    fails = check_trace(rows, 2000, 3)
    assert any("rows" in f for f in fails)
    assert any("alive=0" in f for f in fails)


def test_step0_check_rejects_shifted_energy():
    rows = parse_trace(TRACE.replace("0,-16.0", "0,-16.001"))
    assert check_step0(rows, 1.0, 16)


def test_identical_check():
    assert check_identical(b"a", b"a", "traces") == []
    assert check_identical(b"a", b"b", "traces")
