"""Run configuration: one flat-key record, JSON-serializable, flag-overridable.

``FIELDS`` is the one table of each field's type and lower bound.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, LatticeError
from .sketching import validate_target_ranks
from .spin_model import PropagatorSet, build_lattice


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# Each type's name in errors and its test.  abs() against the largest double
# compares an int exactly, so an int past the float range is refused here.
_TYPES = {
    int: ("an integer", _is_int),
    int | None: ("an integer or null", lambda v: v is None or _is_int(v)),
    float: ("a finite number", lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}

# field: (type, inclusive lower bound or None)
FIELDS = {
    "lattice_kind": (str, None),
    "lattice_dims": (tuple, None),
    "lattice_boundary": (str, None),
    "g": (float, 0),
    "dtau": (float, None),
    "n_walkers": (int, 1),
    "total_steps": (int, 0),
    "measure_every": (int, 1),
    "popcontrol_every": (int, 1),
    "sketch_every": (int, 1),
    "sketch_stop_step": (int | None, 0),
    "equilibration_steps": (int | None, 0),
    "sketch_rank": (int, 1),
    "delta": (float, 0),
    "target_edge_rank": (int, 1),
    "target_middle_rank": (int, 1),
    "reanchor": (bool, None),
    "seed": (int, 0),
    "out_dir": (str, None),
}


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
    out_dir: str = "runs"

    def __post_init__(self):
        for name, (kind, low) in FIELDS.items():
            value = getattr(self, name)
            what, test = _TYPES[kind]
            if not test(value):
                raise ConfigError(name, f"must be {what}, got {value!r}")
            if low is not None and value is not None and value < low:
                raise ConfigError(name, f"must be >= {low}, got {value!r}")
        object.__setattr__(self, "lattice_dims", tuple(self.lattice_dims))
        # the rules that span fields or need more than a bound
        if self.dtau <= 0:
            raise ConfigError("dtau", f"must be positive, got {self.dtau}")
        if self.seed >= 2 ** 64:
            raise ConfigError("seed", f"must fit the streams' 64-bit key (< 2**64), got {self.seed}")
        for name in ("sketch_stop_step", "equilibration_steps"):
            value = getattr(self, name)
            if value is not None and value > self.total_steps:
                raise ConfigError(name, f"{value} exceeds total_steps {self.total_steps}")
        out = self.out_dir
        if not out or "\0" in out or (os.path.lexists(out) and not os.path.isdir(out)):
            raise ConfigError("out_dir", f"must name a directory to create or reuse, got {out!r}")
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
        if not np.all(np.isfinite(prop.one_body_full)):
            raise ConfigError(
                "g",
                f"one-body propagator exp(g dtau sigma^x) is not finite "
                f"at g={self.g}, dtau={self.dtau}",
            )

    def lattice(self):
        try:
            return build_lattice(self.lattice_kind, self.lattice_dims, self.lattice_boundary)
        except LatticeError as exc:
            raise ConfigError(f"lattice_{exc.part}", str(exc)) from exc

    def resolved_sketch_stop(self):
        if self.sketch_stop_step is not None:
            return self.sketch_stop_step
        return min(2000, self.total_steps)

    def resolved_equilibration(self):
        if self.equilibration_steps is not None:
            return self.equilibration_steps
        return self.resolved_sketch_stop()

    def target_ranks(self, d):
        """Edge/middle rank pattern clipped to what d admits (2^min(c, d - c) at cut c).

        The power is formed only while it can be below the rank, so the cost is linear in d.
        """
        ranks = []
        for c in range(1, d):
            r = min(self.target_edge_rank if c in (1, d - 1) else self.target_middle_rank, self.sketch_rank)
            e = min(c, d - c)
            ranks.append(min(r, 2 ** e) if e < r.bit_length() else r)
        return ranks

    def echo(self):
        """Effective parameters, resolved, sufficient to re-run identically."""
        out = asdict(self)
        out["lattice_dims"] = list(self.lattice_dims)
        out["sketch_stop_step"] = self.resolved_sketch_stop()
        out["equilibration_steps"] = self.resolved_equilibration()
        return out


def config_from_dict(data, source="config"):
    unknown = set(data) - set(FIELDS)
    if unknown:
        raise ConfigError(sorted(unknown)[0], f"unknown key in {source}")
    return RunConfig(**data)


def load_config(path, **overrides):
    """The config in the JSON file ``path``, with ``overrides`` set over its keys."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return config_from_dict({**data, **overrides}, source=path)
