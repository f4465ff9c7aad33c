"""Run configuration: one flat-key record, JSON-serializable, flag-overridable."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, LatticeError
from .qmc_driver import Schedule
from .sketching import validate_target_ranks
from .spin_model import PropagatorSet, build_lattice


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; defaults mirror the standard experiment setup.

    ``sketch_stop_step`` and ``equilibration_steps`` left at None resolve to
    min(2000, total_steps) and the sketch stop respectively, so short runs
    stay self-consistent.  ``reanchor=False`` is the vanilla mode (fixed
    disordered trial throughout).
    """

    lattice_kind: str = "chain"
    lattice_dims: tuple = (16,)
    lattice_boundary: str = "periodic"
    g: float = 1.0
    dtau: float = 0.01
    n_walkers: int = 2000
    total_steps: int = 4000
    measure_every: int = 10
    popcontrol_every: int = 10
    sketch_every: int = 50
    sketch_stop_step: int | None = None
    equilibration_steps: int | None = None
    sketch_rank: int = 60
    delta: float = 0.1
    target_edge_rank: int = 2
    target_middle_rank: int = 4
    reanchor: bool = True
    seed: int = 0
    threads: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "lattice_dims", tuple(self.lattice_dims))
        self.validate()

    def validate(self):
        if self.g < 0:
            raise ConfigError("g", f"must be >= 0, got {self.g}")
        if self.dtau <= 0:
            raise ConfigError("dtau", f"must be positive, got {self.dtau}")
        if self.n_walkers < 1:
            raise ConfigError("n_walkers", f"must be >= 1, got {self.n_walkers}")
        if self.total_steps < 0:
            raise ConfigError("total_steps", "must be >= 0")
        for name in ("measure_every", "popcontrol_every", "sketch_every"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "interval must be >= 1")
        if self.sketch_stop_step is not None and self.sketch_stop_step > self.total_steps:
            raise ConfigError(
                "sketch_stop_step",
                f"{self.sketch_stop_step} exceeds total_steps {self.total_steps}",
            )
        if self.sketch_rank < 1:
            raise ConfigError("sketch_rank", "must be >= 1")
        if self.delta < 0:
            raise ConfigError("delta", "must be >= 0")
        if self.target_edge_rank < 1:
            raise ConfigError("target_edge_rank", "must be >= 1")
        if self.target_middle_rank < 1:
            raise ConfigError("target_middle_rank", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        self._validate_propagators()
        d = self.lattice().d
        if self.reanchor:
            if d < 2:
                raise ConfigError("lattice_dims", f"re-anchoring needs d >= 2 sites, got d={d}")
            try:
                validate_target_ranks(self.target_ranks(d), d, self.sketch_rank)
            except ValueError as exc:
                raise ConfigError(
                    "target_middle_rank",
                    f"{exc} (target_edge_rank={self.target_edge_rank}, "
                    f"target_middle_rank={self.target_middle_rank})",
                ) from exc

    def _validate_propagators(self):
        """Reject a (g, dtau) whose bond or one-body propagator overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            prop = PropagatorSet.build(self.g, self.dtau)
            bond = [prop.bond_prefactor, prop.lam]
            bond += [f for x in (1, -1) for f in prop.bond_site_factors(x)]
        if not np.all(np.isfinite(bond)):
            raise ConfigError("dtau", f"bond propagator is not finite at dtau={self.dtau}")
        if not np.all(np.isfinite(prop.one_body_half)):
            raise ConfigError(
                "g",
                f"one-body propagator exp(g dtau sigma^x / 2) is not finite "
                f"at g={self.g}, dtau={self.dtau}",
            )

    def lattice(self):
        try:
            return build_lattice(self.lattice_kind, self.lattice_dims, self.lattice_boundary)
        except LatticeError as exc:
            raise ConfigError(f"lattice_{exc.part}", str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("lattice_dims", str(exc)) from exc

    def resolved_sketch_stop(self):
        if self.sketch_stop_step is not None:
            return self.sketch_stop_step
        return min(2000, self.total_steps)

    def resolved_equilibration(self):
        if self.equilibration_steps is not None:
            return self.equilibration_steps
        return self.resolved_sketch_stop()

    def resolved_schedule(self):
        return Schedule(
            dtau=self.dtau,
            total_steps=self.total_steps,
            measure_every=self.measure_every,
            popcontrol_every=self.popcontrol_every,
            sketch_every=self.sketch_every,
            sketch_stop_step=self.resolved_sketch_stop(),
            equilibration_steps=self.resolved_equilibration(),
        )

    def target_ranks(self, d):
        """Edge/middle rank pattern clipped to what d admits."""
        ranks = []
        for c in range(1, d):
            r = self.target_edge_rank if c in (1, d - 1) else self.target_middle_rank
            ranks.append(min(r, 2 ** c, 2 ** (d - c), self.sketch_rank))
        return ranks

    def echo(self):
        """Effective parameters, resolved, sufficient to re-run identically."""
        out = asdict(self)
        out["lattice_dims"] = list(self.lattice_dims)
        out["sketch_stop_step"] = self.resolved_sketch_stop()
        out["equilibration_steps"] = self.resolved_equilibration()
        return out


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def config_from_dict(data, source="config"):
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(sorted(unknown)[0], f"unknown key in {source}")
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError("config", str(exc)) from exc


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return config_from_dict(data, source=path)
