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
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, TtqmcError
from .oracle import ORACLE_CAP, exact_ground
from .qmc_driver import fidelity, g_sweep, run
from .spin_model import analytic_chain_energy
from .tensor_train import save_tt


def _atomic_write_text(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _atomic_write_tt(path, tt):
    tmp = f"{path}.tmp.{os.getpid()}"
    save_tt(tmp, tt)
    os.replace(tmp, path)


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _csv_text(header, rows):
    lines = [",".join(header)]
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


def _summary_payload(config, trace, reference_energy, fid):
    out = {
        "config": config.echo(),
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


def cmd_run(config):
    lattice = config.lattice()
    trace, trial, _ = run(config)
    reference_energy, ground_state = _reference(config, lattice)
    fid = None
    if ground_state is not None:
        fid = fidelity(trial, ground_state)

    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write_text(os.path.join(config.out_dir, "trace.csv"), trace.to_csv())
    summary = _summary_payload(config, trace, reference_energy, fid)
    _atomic_write_text(
        os.path.join(config.out_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write_tt(os.path.join(config.out_dir, "trial.tt"), trial.tt)

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


def _sweep_common(config, values, field_name, out_name, header):
    """One run per value of a single swept config field; emits one CSV."""
    rows = []
    for v in values:
        cfg = replace(config, **{field_name: v})
        lattice = cfg.lattice()
        trace, _, _ = run(cfg)
        reference_energy, _ = _reference(cfg, lattice)
        err = None
        if reference_energy is not None and trace.mean is not None:
            err = trace.mean - reference_energy
        rows.append((v, trace.mean, trace.stderr, reference_energy, err))
        print(f"{field_name}={v}: energy={trace.mean} stderr={trace.stderr} bias={err}")
    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write_text(
        os.path.join(config.out_dir, out_name),
        _csv_text(header, rows),
    )
    return rows


def cmd_trotter_sweep(config, dtau_list):
    """Energy vs imaginary-time step; bias accumulates as O(dtau^2)."""
    if not dtau_list:
        raise ConfigError("dtaus", "empty sweep")
    values = sorted(float(x) for x in dtau_list)
    _sweep_common(
        config,
        values,
        "dtau",
        "trotter.csv",
        ("dtau", "energy", "stderr", "reference", "error"),
    )
    return 0


def cmd_popsize_sweep(config, n_list):
    """Energy vs walker count; population-control bias shrinks like 1/N."""
    if not n_list:
        raise ConfigError("walker_counts", "empty sweep")
    values = sorted(int(x) for x in n_list)
    _sweep_common(
        config,
        values,
        "n_walkers",
        "popsize.csv",
        ("n_walkers", "energy", "stderr", "reference", "bias"),
    )
    return 0


def cmd_gsweep(config, g_values, dg):
    rows = g_sweep(config, g_values, dg)
    os.makedirs(config.out_dir, exist_ok=True)
    _atomic_write_text(
        os.path.join(config.out_dir, "gsweep.csv"),
        _csv_text(
            ("g", "energy", "stderr", "denergy_dg"),
            [(r["g"], r["energy"], r["stderr"], r["denergy_dg"]) for r in rows],
        ),
    )
    for r in rows:
        print(f"g={r['g']}: energy={r['energy']} dE/dg={r['denergy_dg']}")
    return 0


def _parse_float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


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
    p_g.add_argument("--dg", type=float, default=0.01, help="finite-difference offset")

    return parser


def _config_from_args(args):
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.no_reanchor:
        overrides["reanchor"] = False
    return replace(config, **overrides) if overrides else config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "trotter-sweep":
            return cmd_trotter_sweep(config, _parse_float_list(args.dtaus))
        if args.command == "popsize-sweep":
            return cmd_popsize_sweep(config, _parse_int_list(args.walker_counts))
        if args.command == "gsweep":
            return cmd_gsweep(config, _parse_float_list(args.g_values), args.dg)
        raise ConfigError("command", f"unknown command {args.command!r}")
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
