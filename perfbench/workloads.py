"""The benchmark's workloads: one ``ttqmc run`` config each, keyed by seed.

Every workload uses the paper's headline setup: g = 1 (the critical
point), dtau = 0.01, 2000 walkers, target ranks (2, 4, ..., 4, 2) and
sketch rank 60.  ``--seed`` enters only as the config's ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import chain_bonds, cylinder_bonds

HEADLINE = {
    "g": 1.0,
    "dtau": 0.01,
    "n_walkers": 2000,
    "measure_every": 10,
    "popcontrol_every": 10,
    "sketch_rank": 60,
    "delta": 0.1,
    "target_edge_rank": 2,
    "target_middle_rank": 4,
    "reanchor": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    lattice: dict
    bonds: tuple
    total_steps: int
    sketch_every: int
    sketch_stop_step: int
    equilibration_steps: int
    # Relative tolerance of the mixed energy against the exact E0.  The
    # step-0 (unprojected) energy -g d is 21-22% off on every workload.
    energy_tolerance: float

    @property
    def d(self):
        return max(max(b) for b in self.bonds) + 1

    def config(self, seed, total_steps=None):
        """The run's config; ``total_steps=0`` gives the set-up-only run."""
        steps = self.total_steps if total_steps is None else total_steps
        cfg = dict(HEADLINE)
        cfg.update(self.lattice)
        cfg.update(
            total_steps=steps,
            sketch_every=self.sketch_every,
            sketch_stop_step=min(self.sketch_stop_step, steps),
            equilibration_steps=min(self.equilibration_steps, steps),
            seed=int(seed),
        )
        return cfg

    def expected_rows(self, total_steps=None):
        steps = self.total_steps if total_steps is None else total_steps
        return steps // HEADLINE["measure_every"] + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain16",
            lattice={"lattice_kind": "chain", "lattice_dims": [16], "lattice_boundary": "periodic"},
            bonds=tuple(chain_bonds(16)),
            total_steps=150,
            sketch_every=50,
            sketch_stop_step=100,
            equilibration_steps=100,
            energy_tolerance=0.03,
        ),
        Workload(
            name="cylinder4x4",
            lattice={"lattice_kind": "cylinder", "lattice_dims": [4, 4], "lattice_boundary": "periodic"},
            bonds=tuple(cylinder_bonds(4, 4)),
            total_steps=150,
            sketch_every=50,
            sketch_stop_step=100,
            equilibration_steps=100,
            energy_tolerance=0.03,
        ),
        Workload(
            name="chain64_resketch",
            lattice={"lattice_kind": "chain", "lattice_dims": [64], "lattice_boundary": "periodic"},
            bonds=tuple(chain_bonds(64)),
            total_steps=40,
            sketch_every=5,
            sketch_stop_step=40,
            equilibration_steps=20,
            energy_tolerance=0.10,
        ),
    )
}
