"""End-to-end and per-layer benchmark of ``ttqmc run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain16 --seed 1 --seconds 40 --trace 0

Each measured run is ``python3 -m ttqmc.cli run --config ...`` in a fresh
child process with a fresh output directory under ``perfbench/runs/``.
The program is taken from ``src/`` of the working directory.  The
benchmark repeats whole rounds of the workload's run until ``--seconds``
would be exceeded (at least one round), checks every run's outputs against
the independent references in ``reference.py``, and prints one JSON object
as the last line of standard output.

``--trace 0``: a cold set-up run (the same config with zero steps), then
rounds of one full run each; prints the end-to-end metrics.

``--trace 1``: rounds of one untraced and one traced full run
(``traced_child.py``); prints the per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    check_energy,
    check_identical,
    check_step0,
    check_trace,
    check_trial,
    parse_trace,
)
from reference import (  # noqa: E402
    exact_ground,
    expected_ranks,
    fidelity,
    free_fermion_energy,
    load_tt_cores,
    rayleigh_quotient,
)
from workloads import HEADLINE, WORKLOADS  # noqa: E402

# Every child is killed, and the benchmark gives up, this long after start.
DEADLINE_S = 170.0

# Per-layer span names whose durations are reported as medians in ms.
MEDIAN_MS = {
    "walker_engine.population_control_ms": "walker_engine.population_control",
    "walker_engine.reanchor_overlaps_ms": "walker_engine.reanchor_overlaps",
    "sketching.make_sketch_pair_ms": "sketching.make_sketch_pair",
    "sketching.sketch_ensemble_ms": "sketching.sketch_ensemble",
    "qmc_driver.mixed_energy_ms": "qmc_driver.mixed_energy",
    "tensor_train.save_tt_ms": "tensor_train.save_tt",
}

# Spans that run inside qmc_driver.run.
RUN_CALLS = (
    "walker_engine.step",
    "walker_engine.population_control",
    "walker_engine.reanchor_overlaps",
    "qmc_driver.mixed_energy",
    "sketching.make_sketch_pair",
    "sketching.sketch_ensemble",
)


class ChildFailed(Exception):
    pass


def blas_threads():
    """The caller's OpenBLAS setting, else one thread per usable core."""
    return os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))


def child_env(root, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv, out_dir, env, deadline):
    """Run one child to completion: (wall seconds, peak RSS in MB).

    Output goes to files in ``out_dir``; the child is killed at the
    deadline and always reaped before this returns.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another run")
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, open(
        os.path.join(out_dir, "stderr.txt"), "wb"
    ) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(out_dir, "stderr.txt")) as fh:
            tail = fh.read()[-400:]
        raise ChildFailed(f"{out_dir} exited with {proc.returncode}: {tail}")
    return wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, root, workload, seed, trace):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.threads = blas_threads()
        self.env = child_env(root, self.threads)
        self.dir = os.path.join(HERE, "runs", f"{workload}-seed{seed}-trace{trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.e0 = None
        self.ground_state = None

    # -- running -------------------------------------------------------

    def _config_path(self, total_steps=None):
        tag = "setup" if total_steps == 0 else "full"
        path = os.path.join(self.dir, f"config_{tag}.json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(self.w.config(self.seed, total_steps), fh, indent=1)
        return path

    def run_child(self, out_dir, total_steps=None, spans=None):
        """One ``ttqmc run``; returns (wall, rss) or None if it failed."""
        os.makedirs(out_dir)
        cli_args = ["run", "--config", self._config_path(total_steps), "--out-dir", out_dir]
        if spans is None:
            argv = [sys.executable, "-m", "ttqmc.cli"] + cli_args
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_child.py"), spans] + cli_args
        self.attempted += 1
        try:
            return spawn(argv, out_dir, self.env, self.deadline)
        except ChildFailed as exc:
            self.failed += 1
            print(f"run failed: {exc}", file=sys.stderr)
            return None

    # -- checks --------------------------------------------------------

    def check_run(self, out_dir, total_steps=None):
        w = self.w
        g = HEADLINE["g"]
        with open(os.path.join(out_dir, "trace.csv")) as fh:
            rows = parse_trace(fh.read())
        fails = check_trace(rows, HEADLINE["n_walkers"], w.expected_rows(total_steps))
        fails += check_step0(rows, g, w.d)
        if total_steps != 0:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            fails += check_energy(summary["energy_mean"], self.e0, w.energy_tolerance)
            cores = load_tt_cores(os.path.join(out_dir, "trial.tt"))
            ranks = expected_ranks(
                w.d, HEADLINE["target_edge_rank"], HEADLINE["target_middle_rank"],
                HEADLINE["sketch_rank"],
            )
            fails += check_trial(cores, w.bonds, g, self.e0, ranks)
        for msg in fails:
            self.failures.append(f"{os.path.relpath(out_dir, self.dir)}: {msg}")

    def reference(self):
        """Exact E0 (and, in traced mode at d = 16, the ground state)."""
        w = self.w
        fidelity_wanted = self.trace and w.d <= 16
        if w.lattice["lattice_kind"] == "chain" and not fidelity_wanted:
            self.e0 = free_fermion_energy(w.d, HEADLINE["g"])
        else:
            self.e0, self.ground_state = exact_ground(w.d, w.bonds, HEADLINE["g"])

    # -- measurement ---------------------------------------------------

    def rounds(self, seconds, one_round):
        """Whole rounds until the next would overrun ``seconds`` (at least one)."""
        t0 = time.monotonic()
        durations = []
        while True:
            r0 = time.monotonic()
            if not one_round(len(durations)):
                break
            durations.append(time.monotonic() - r0)
            if time.monotonic() - t0 + statistics.median(durations) > seconds:
                break

    def end_to_end(self, seconds):
        setup_dir = os.path.join(self.dir, "setup")
        setup = self.run_child(setup_dir, total_steps=0)
        if setup is None:
            return None
        self.check_run(setup_dir, total_steps=0)
        self.reference()
        walls, rss, traces = [], [], []

        def one_round(i):
            out = os.path.join(self.dir, f"round{i}")
            res = self.run_child(out)
            if res is None:
                return False
            self.check_run(out)
            # A fixed config and seed must reproduce the trace exactly.
            with open(os.path.join(out, "trace.csv"), "rb") as fh:
                traces.append(fh.read())
            for msg in check_identical(traces[0], traces[-1], f"trace.csv of round0 and round{i}"):
                self.failures.append(msg)
            walls.append(res[0])
            rss.append(res[1])
            return True

        self.rounds(seconds, one_round)
        if not walls:
            return None
        setup_s = setup[0]
        wall_s = statistics.median(walls)
        steps = HEADLINE["n_walkers"] * self.w.total_steps
        self.record = {"setup_s": setup_s, "walls": walls, "rss_mb": rss}
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "walker_steps_per_s": (steps / (wall_s - setup_s), "1/s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def per_layer(self, seconds):
        self.reference()
        plain_walls, traced_walls, traces = [], [], []

        def one_round(i):
            plain = os.path.join(self.dir, f"round{i}", "plain")
            traced = os.path.join(self.dir, f"round{i}", "traced")
            spans = os.path.join(traced, "spans.json")
            a = self.run_child(plain)
            b = self.run_child(traced, spans=spans) if a else None
            if b is None:
                return False
            for d in (plain, traced):
                self.check_run(d)
            with open(os.path.join(plain, "trace.csv"), "rb") as fa, open(
                os.path.join(traced, "trace.csv"), "rb"
            ) as fb:
                self.failures += check_identical(
                    fa.read(), fb.read(), f"round{i}: trace.csv of the plain and the traced run"
                )
            plain_walls.append(a[0])
            traced_walls.append(b[0])
            with open(spans) as fh:
                traces.append((traced, json.load(fh)))
            return True

        self.rounds(seconds, one_round)
        if not traces:
            return None
        metrics = layer_metrics(traces, self.w, self.e0, self.ground_state, self.failures)
        metrics["bench.tracing_overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls), "s",
        )
        self.record = {"plain_walls": plain_walls, "traced_walls": traced_walls}
        return metrics


def _self_time(span, children):
    """Duration of ``span`` not covered by any of its direct children."""
    covered, cursor = 0.0, span[1]
    for c in sorted(children, key=lambda s: s[1]):
        lo, hi = max(c[1], cursor), min(c[2], span[2])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span[2] - span[1] - covered


def _check_nesting(spans, failures):
    """Every driver call must lie inside the qmc_driver.run span."""
    for s in spans:
        if s[0] not in RUN_CALLS:
            continue
        p = s[3]
        while p is not None and spans[p][0] != "qmc_driver.run":
            p = spans[p][3]
        if p is None or not spans[p][1] <= s[1] <= s[2] <= spans[p][2]:
            failures.append(f"span {s[0]} is not nested in qmc_driver.run")
            return


def layer_metrics(traces, workload, e0, ground_state, failures):
    """Per-layer metrics pooled over the traced runs of all rounds."""
    by_name = {}
    run_self, import_s, peak_mb, overlaps = [], [], [], []
    kills, alive_frac, gap, out_bytes, fid = [], [], [], [], []
    missing = set()
    for out_dir, t in traces:
        spans = t["spans"]
        _check_nesting(spans, failures)
        missing.update(t["missing"])
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(s)
            if s[0] == "qmc_driver.run":
                run_self.append(_self_time(s, [c for c in spans if c[3] == i]))
        import_s.append(t["import_s"])
        if t["sketch_peak_mb"] is not None:
            peak_mb.append(t["sketch_peak_mb"])
        overlaps.extend(t["trial_overlaps"])
        with open(os.path.join(out_dir, "summary.json")) as fh:
            kills.append(sum(json.load(fh)["reanchor_kills"]))
        with open(os.path.join(out_dir, "trace.csv")) as fh:
            alive_frac.append(parse_trace(fh.read())[-1][3] / HEADLINE["n_walkers"])
        cores = load_tt_cores(os.path.join(out_dir, "trial.tt"))
        gap.append((rayleigh_quotient(cores, workload.bonds, HEADLINE["g"]) - e0) / abs(e0))
        out_bytes.append(sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in ("trace.csv", "summary.json", "trial.tt")
        ))
        if ground_state is not None:
            fid.append(fidelity(cores, ground_state))

    def dur(name):
        return [s[2] - s[1] for s in by_name.get(name, [])]

    med = statistics.median
    m = {}
    steps = by_name.get("walker_engine.step", [])
    if steps:
        ms = sorted(1e3 * (s[2] - s[1]) for s in steps)
        m["walker_engine.step_ms"] = (med(ms), "ms")
        m["walker_engine.step_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
        updates = sum(s[4]["alive"] for s in steps) * len(workload.bonds)
        m["walker_engine.bond_updates_per_s"] = (updates / sum(dur("walker_engine.step")), "1/s")
    combs = by_name.get("walker_engine.population_control", [])
    if combs:
        m["walker_engine.comb_ess_fraction"] = (
            statistics.fmean(s[4]["ess_fraction"] for s in combs), "ratio",
        )
    for metric, name in MEDIAN_MS.items():
        if by_name.get(name):
            m[metric] = (1e3 * med(dur(name)), "ms")
    m["walker_engine.reanchor_kills"] = (med(kills), "count")
    m["walker_engine.alive_fraction"] = (med(alive_frac), "ratio")
    sketches = by_name.get("sketching.sketch_ensemble", [])
    if sketches:
        sites = sum(s[4]["walker_sites"] for s in sketches)
        m["sketching.walker_sites_per_s"] = (sites / sum(dur("sketching.sketch_ensemble")), "1/s")
    if peak_mb:
        m["sketching.sketch_peak_mb"] = (med(peak_mb), "MB")
    m["sketching.trial_energy_gap"] = (med(gap), "ratio")
    if overlaps:
        m["sketching.trial_overlap_prev"] = (statistics.fmean(overlaps), "ratio")
    if fid:
        # Reported beside the metrics: d = 64 has no dense ground state.
        print(f"sketching.trial_fidelity = {med(fid)!r}", file=sys.stderr)
    if run_self:
        m["qmc_driver.run_self_s"] = (med(run_self), "s")
    if by_name.get("spin_model.reference"):
        m["spin_model.reference_s"] = (med(dur("spin_model.reference")), "s")
    m["cli.import_s"] = (med(import_s), "s")
    m["cli.output_bytes"] = (med(out_bytes), "bytes")
    if missing:
        print(f"missing layers (not wrapped): {sorted(missing)}", file=sys.stderr)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ttqmc", "cli.py")):
        print("benchmark: no src/ttqmc in the working directory", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.trace)
    metrics = (bench.per_layer if args.trace else bench.end_to_end)(args.seconds)
    if metrics is None:
        print("benchmark: no run completed", file=sys.stderr)
        return 1
    bench.record.update(
        workload=args.workload,
        seed=args.seed,
        blas_threads=bench.threads,
        e0=bench.e0,
        failures=bench.failures,
        metrics=metrics,
    )
    with open(os.path.join(bench.dir, "record.json"), "w") as fh:
        json.dump(bench.record, fh, indent=1)
    for msg in bench.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} blas_threads={bench.threads} "
        f"E0={bench.e0!r}",
        file=sys.stderr,
    )
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
