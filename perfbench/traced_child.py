"""``ttqmc`` CLI entry point with spans around the calls into each layer.

Usage: python3 perfbench/traced_child.py SPANS_JSON ttqmc-args...

Wraps the public functions that ``qmc_driver.run`` calls, under the names
``qmc_driver`` looks them up by, plus the CLI's reference computation and
output writing, then runs ``ttqmc.cli.main`` with the remaining arguments.
Spans (name, start, end, parent index, extra) are kept in memory and
written to SPANS_JSON when the run ends.  A function that no longer exists
is listed under ``missing`` instead of wrapped.
"""

import json
import sys
import time

t_import = time.perf_counter()
import ttqmc.cli as cli  # noqa: E402 - the import itself is measured

IMPORT_S = time.perf_counter() - t_import

import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import ttqmc.qmc_driver as qmc_driver  # noqa: E402

from reference import normalised_overlap  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self.trials = []
        self.sketch_peak_mb = None

    def span(self, name, fn, args=(), kwargs=None, extra=None):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, parent, extra or {}]
        self.spans.append(record)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            record[1], record[2] = t0, time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        def wrapper(*args, **kwargs):
            extra = before(*args, **kwargs) if before else None
            out = self.span(name, fn, args, kwargs, extra)
            if after:
                after(fn, out, args, kwargs)
            return out

        setattr(module, attr, wrapper)


def _alive(ensemble, *_, **__):
    return {"alive": int(np.count_nonzero(ensemble.weight > 0.0))}


def _ess(ensemble, *_, **__):
    w = ensemble.weight
    return {"ess_fraction": float(w.sum() ** 2 / (w.size * np.dot(w, w)))}


def _sketch_input(ensemble, *_, **__):
    return {"walker_sites": int(np.count_nonzero(ensemble.weight > 0.0)) * len(ensemble.sites)}


def install(tracer):
    def after_sketch(fn, tt, args, kwargs):
        tracer.trials.append([np.asarray(c) for c in tt.cores])
        if tracer.sketch_peak_mb is None:
            # One repeat of the (pure) first call under tracemalloc, in a
            # span of its own so it counts against no layer.
            def measured():
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            tracer.sketch_peak_mb = tracer.span("bench.sketch_tracemalloc", measured) / 2 ** 20

    tracer.wrap(qmc_driver, "step", "walker_engine.step", before=_alive)
    tracer.wrap(qmc_driver, "population_control", "walker_engine.population_control", before=_ess)
    tracer.wrap(qmc_driver, "reanchor_overlaps", "walker_engine.reanchor_overlaps")
    tracer.wrap(qmc_driver, "mixed_energy", "qmc_driver.mixed_energy")
    tracer.wrap(qmc_driver, "make_sketch_pair", "sketching.make_sketch_pair")
    tracer.wrap(
        qmc_driver, "sketch_ensemble", "sketching.sketch_ensemble",
        before=_sketch_input, after=after_sketch,
    )
    tracer.wrap(cli, "cmd_run", "cli.cmd_run")
    tracer.wrap(cli, "run", "qmc_driver.run")
    tracer.wrap(cli, "_reference", "spin_model.reference")
    tracer.wrap(cli, "_atomic_write_text", "cli.write_text")
    tracer.wrap(cli, "_atomic_write_tt", "cli.write_tt")
    tracer.wrap(cli, "save_tt", "tensor_train.save_tt")


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    overlaps = [
        normalised_overlap(a, b) for a, b in zip(tracer.trials, tracer.trials[1:])
    ]
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": IMPORT_S,
                "spans": tracer.spans,
                "missing": tracer.missing,
                "sketch_peak_mb": tracer.sketch_peak_mb,
                "trial_overlaps": overlaps,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
