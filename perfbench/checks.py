"""Correctness checks on the files a ``ttqmc run`` leaves behind.

Each check returns a list of failure messages (empty when the check
passes), so one run can report every property it violates.
"""

from __future__ import annotations

import csv
import io
import math

from reference import rayleigh_quotient, tt_ranks

# Slack on E0 <= <H>: the Rayleigh quotient and the Lanczos E0 are each
# accurate to about 1e-12 relative.
VARIATIONAL_SLACK = 1e-9


def parse_trace(text):
    """Rows of ``trace.csv`` as (step, energy, total_weight, alive)."""
    reader = csv.DictReader(io.StringIO(text))
    return [
        (int(r["step"]), float(r["energy"]), float(r["total_weight"]), int(r["alive"]))
        for r in reader
    ]


def check_trace(rows, n_walkers, expected_rows):
    fails = []
    if len(rows) != expected_rows:
        fails.append(f"trace has {len(rows)} rows, expected {expected_rows}")
    for step, energy, weight, alive in rows:
        if not (math.isfinite(energy) and math.isfinite(weight)):
            fails.append(f"non-finite trace row at step {step}")
        if not 0 < alive <= n_walkers:
            fails.append(f"alive={alive} at step {step} outside (0, {n_walkers}]")
    return fails


def check_step0(rows, g, d):
    """The disordered starting trial gives E_local = -g d for every walker."""
    if not rows or rows[0][0] != 0:
        return ["trace does not start at step 0"]
    if abs(rows[0][1] + g * d) > 1e-9 * g * d:
        return [f"step-0 energy {rows[0][1]!r} != -g*d = {-g * d!r}"]
    return []


def check_energy(energy, reference, tolerance):
    if energy is None or not math.isfinite(energy):
        return [f"no finite mixed energy (got {energy!r})"]
    rel = abs(energy - reference) / abs(reference)
    if rel > tolerance:
        return [f"mixed energy {energy:.6f} is {rel:.3%} off {reference:.6f} (tolerance {tolerance:.1%})"]
    return []


def check_trial(cores, bonds, g, e0, ranks):
    """Ranks as configured and E0 <= <psi|H|psi>/<psi|psi> < -g d."""
    fails = []
    if tt_ranks(cores) != tuple(ranks):
        fails.append(f"trial ranks {tt_ranks(cores)} != configured {tuple(ranks)}")
    d = len(cores)
    rq = rayleigh_quotient(cores, bonds, g)
    if not math.isfinite(rq):
        return fails + [f"non-finite trial energy {rq!r}"]
    if rq < e0 - VARIATIONAL_SLACK * abs(e0):
        fails.append(f"trial energy {rq:.9f} below the ground-state energy {e0:.9f}")
    if not rq < -g * d:
        fails.append(f"trial energy {rq:.6f} does not beat the disordered trial's {-g * d}")
    return fails


def check_identical(a, b, what):
    """Byte equality: a fixed config and seed give a bit-identical trace."""
    if a != b:
        return [f"{what} differ"]
    return []
