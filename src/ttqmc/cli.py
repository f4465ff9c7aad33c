"""Command-line entry point: run and experiment-sweep subcommands.

Subcommands: ``run``, ``trotter-sweep``, ``popsize-sweep``, ``gsweep``.
A JSON config file (flat keys mirroring RunConfig) supplies parameters;
command-line flags override file values.  All output files are written
atomically (temp + rename).  Exit codes: 0 ok, 2 config error, 3 runtime
fatal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import FIELDS, RunConfig, load_config
from .errors import ConfigError, NonFiniteResultError, OutputError, TtqmcError
from .oracle import ORACLE_CAP, exact_ground
from .qmc_driver import fidelity, run
from .spin_model import analytic_chain_energy
from .tensor_train import save_tt

# Read at import, as the BLAS reads them once when it loads.
_BLAS_THREADS = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _atomic_write(path, write):
    """``write(tmp)``, then rename tmp to ``path``; an OSError names ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(path, exc) from exc


def _atomic_write_text(path, text):
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _atomic_write_tt(path, tt):
    _atomic_write(path, lambda tmp: save_tt(tmp, tt))


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _csv_text(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating)) or v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference(config, lattice):
    """(reference energy, dense ground state or None) for error reporting."""
    energy, vec = None, None
    if lattice.d <= ORACLE_CAP:
        sol = exact_ground(lattice, config.g)
        energy, vec = sol.energy, sol.ground_state
    if lattice.kind == "chain" and lattice.boundary == "periodic":
        energy = analytic_chain_energy(lattice.d, config.g)
    return energy, vec


def _summary_payload(config, trace, reference_energy, fid, blas_threads):
    out = {
        "config": config.echo(),
        "blas_threads": blas_threads,
        "energy_mean": trace.mean,
        "energy_stderr": trace.stderr,
        "n_measurements": int(trace.steps.size),
        "n_post_equilibration": int(trace.post_equilibration_energies().size),
        "reference_energy": reference_energy,
        "relative_error": None,
        "fidelity": fid,
        "reanchor_kills": trace.diagnostics.get("reanchor_kills", []),
        "wall_times": trace.diagnostics.get("wall_times", {}),
    }
    if reference_energy is not None and trace.mean is not None:
        out["relative_error"] = (trace.mean - reference_energy) / abs(reference_energy)
    return out


def _strict_json(payload):
    """JSON text of ``payload``; a non-finite top-level number raises NonFiniteResultError."""
    for key, value in sorted(payload.items()):
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteResultError(f"summary field {key!r}", value)
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_run(config):
    lattice = config.lattice()
    trace, trial, _ = run(config)
    reference_energy, ground_state = _reference(config, lattice)
    fid = None
    if ground_state is not None:
        fid = fidelity(trial, ground_state)
    summary = _summary_payload(config, trace, reference_energy, fid, _BLAS_THREADS)
    summary_text = _strict_json(summary)

    _atomic_write_text(os.path.join(config.out_dir, "trace.csv"), trace.to_csv())
    _atomic_write_text(os.path.join(config.out_dir, "summary.json"), summary_text)
    _atomic_write_tt(os.path.join(config.out_dir, "trial.tt"), trial)

    if trace.mean is not None:
        line = f"energy = {trace.mean:.10f}"
        if trace.stderr is not None:
            line += f" +/- {trace.stderr:.3e}"
        print(line)
    if summary["relative_error"] is not None:
        print(f"relative error vs reference = {summary['relative_error']:.3e}")
    if fid is not None:
        print(f"fidelity vs exact ground state = {fid:.6f}")
    return 0


def _bias_rows(field, configs, args):
    """(value, energy, stderr, reference, energy - reference) per config.

    The Trotter bias grows as O(dtau^2); the population-control bias shrinks like 1/N.
    """
    rows = []
    for cfg in configs:
        trace, _, _ = run(cfg)
        reference_energy, _ = _reference(cfg, cfg.lattice())
        err = None if None in (reference_energy, trace.mean) else trace.mean - reference_energy
        v = getattr(cfg, field)
        rows.append((v, trace.mean, trace.stderr, reference_energy, err))
        print(f"{field}={v}: energy={trace.mean} stderr={trace.stderr} bias={err}")
    return rows


def _derivative_rows(field, configs, args):
    """(g, energy, stderr, dE/dg) per config; dE/dg is (E(g + dg) - E(g)) / dg."""
    dg = args.dg
    if not 0 < dg <= sys.float_info.max:
        raise ConfigError("dg", f"must be positive and finite, got {dg}")
    pairs = [(cfg, replace(cfg, g=cfg.g + dg)) for cfg in configs]
    rows = []
    for cfg, cfg_dg in pairs:
        trace, _, _ = run(cfg)
        trace_dg, _, _ = run(cfg_dg)
        slope = None if None in (trace.mean, trace_dg.mean) else (trace_dg.mean - trace.mean) / dg
        rows.append((cfg.g, trace.mean, trace.stderr, slope))
        print(f"g={cfg.g}: energy={trace.mean} dE/dg={slope}")
    return rows


# subcommand: (swept field, list flag, CSV name, CSV header, row function)
_SWEEPS = {
    "trotter-sweep": ("dtau", "dtaus", "trotter.csv", "dtau,energy,stderr,reference,error", _bias_rows),
    "popsize-sweep": (
        "n_walkers", "walker_counts", "popsize.csv", "n_walkers,energy,stderr,reference,bias", _bias_rows,
    ),
    "gsweep": ("g", "g_values", "gsweep.csv", "g,energy,stderr,denergy_dg", _derivative_rows),
}


def _sweep_values(config, text, field, flag):
    """One validated config per comma-separated value of ``--<flag>``, in increasing order.

    Blank entries are skipped.  A bad entry, a repeat or no value names the
    flag; ``RunConfig`` names a value out of the field's range.
    """
    parse = FIELDS[field][0]
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(parse(entry))
        except ValueError:
            raise ConfigError(flag, f"cannot parse {entry.strip()!r} as {parse.__name__}") from None
    if not values:
        raise ConfigError(flag, "empty sweep")
    values.sort()
    repeated = [a for a, b in zip(values, values[1:]) if a == b]
    if repeated:
        raise ConfigError(flag, f"value {repeated[0]} is repeated")
    return [replace(config, **{field: v}) for v in values]


def _sweep(config, args, field, flag, out_name, header, make_rows):
    """One run (or pair of runs) per swept value; writes one CSV."""
    configs = _sweep_values(config, getattr(args, flag), field, flag)
    csv = _csv_text(header, make_rows(field, configs, args))
    _atomic_write_text(os.path.join(config.out_dir, out_name), csv)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="ttqmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flat RunConfig keys)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--no-reanchor", action="store_true", help="vanilla mode: fixed disordered trial")
        p.add_argument("--out-dir", help="output directory")

    p_run = sub.add_parser("run", help="one full run: trace.csv, summary.json, trial.tt")
    add_common(p_run)

    p_tr = sub.add_parser("trotter-sweep", help="energy vs imaginary-time step size")
    add_common(p_tr)
    p_tr.add_argument("--dtaus", required=True, help="comma-separated step sizes")

    p_pop = sub.add_parser("popsize-sweep", help="energy vs walker count")
    add_common(p_pop)
    p_pop.add_argument("--walker-counts", required=True, help="comma-separated counts")

    p_g = sub.add_parser("gsweep", help="energy and dE/dg over field strengths")
    add_common(p_g)
    p_g.add_argument("--g-values", required=True, help="comma-separated field strengths")
    p_g.add_argument("--dg", type=float, default=0.01, help="finite-difference offset (positive)")

    return parser


def _config_from_args(args):
    flags = {"seed": args.seed, "out_dir": args.out_dir, "reanchor": False if args.no_reanchor else None}
    overrides = {k: v for k, v in flags.items() if v is not None}
    return load_config(args.config, **overrides) if args.config else RunConfig(**overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        return _sweep(config, args, *_SWEEPS[args.command])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TtqmcError as exc:
        # each error's message carries its own context (DeadEnsembleError
        # appends the diagnostics filled in after it was raised)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
