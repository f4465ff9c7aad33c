import errno
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from ttqmc import cli, spin_model
from ttqmc.config import FIELDS, RunConfig, config_from_dict, load_config
from ttqmc.errors import ConfigError
from ttqmc.qmc_driver import EnergyTrace
from ttqmc.spin_model import build_lattice
from ttqmc.tensor_train import load_tt

from conftest import csr_hamiltonian


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if any simulation starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", refuse)


def write_config(tmp_path, **kw):
    base = dict(
        lattice_kind="chain",
        lattice_dims=[4],
        lattice_boundary="periodic",
        n_walkers=20,
        total_steps=40,
        measure_every=5,
        sketch_every=10,
        sketch_stop_step=20,
        equilibration_steps=20,
        sketch_rank=8,
        seed=1,
    )
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.resolved_sketch_stop() == 2000
        assert cfg.resolved_equilibration() == 2000

    def test_short_run_resolution(self):
        cfg = RunConfig(total_steps=100)
        assert cfg.resolved_sketch_stop() == 100

    def test_validation_names_field(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(dtau=-1.0)
        assert err.value.field == "dtau"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"walkers": 10}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_target_ranks_pattern(self):
        cfg = RunConfig()
        assert cfg.target_ranks(6) == [2, 4, 4, 4, 2]
        assert cfg.target_ranks(4) == [2, 4, 2]
        assert cfg.target_ranks(3) == [2, 2]

    def test_every_field_has_one_table_row(self):
        assert list(FIELDS) == [f.name for f in fields(RunConfig)]

    def test_integer_values_for_float_fields_echo_unchanged(self):
        echo = config_from_dict({"g": 2, "delta": 0}).echo()
        assert json.dumps([echo["g"], echo["delta"]]) == "[2, 0]"

    def test_echo_reports_resolved_values(self):
        cfg = RunConfig(total_steps=80)
        echo = cfg.echo()
        assert echo["sketch_stop_step"] == 80
        assert echo["equilibration_steps"] == 80
        assert set(echo) >= {"g", "dtau", "seed", "n_walkers", "lattice_kind"}


class TestCmdRun:
    def test_minimal_run_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", cfg_path, "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        config_echo = summary["config"]
        for key in (
            "g",
            "dtau",
            "n_walkers",
            "total_steps",
            "seed",
            "sketch_rank",
            "delta",
            "lattice_kind",
            "lattice_dims",
            "reanchor",
        ):
            assert key in config_echo
        assert summary["energy_mean"] is not None
        assert summary["relative_error"] is not None
        assert (out / "trace.csv").exists()
        trial = load_tt(out / "trial.tt")
        assert trial.d == 4

    def test_trace_csv_columns(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", cfg_path, "--out-dir", str(out)])
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,energy,total_weight,alive"
        assert len(lines) == 1 + 1 + 40 // 5  # header + step 0 + measurements

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_no_reanchor_flag(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", cfg_path, "--out-dir", str(out), "--no-reanchor"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["reanchor"] is False
        assert summary["reanchor_kills"] == []
        # vanilla mode keeps the rank-1 disordered trial
        trial = load_tt(out / "trial.tt")
        assert trial.ranks == (1, 1, 1)

    def test_invalid_config_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, dtau=-0.5)
        assert cli.main(["run", "--config", cfg_path]) == 2

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (
                {"lattice_dims": [8], "target_edge_rank": 1, "target_middle_rank": 4},
                "target_middle_rank",
            ),
            ({"lattice_dims": [1], "lattice_boundary": "open"}, "lattice_dims"),
            ({"lattice_kind": "grid", "lattice_dims": [3, 3]}, "lattice_boundary"),
            ({"lattice_dims": [3, 3]}, "lattice_dims"),
            ({"lattice_kind": "triangular"}, "lattice_kind"),
            ({"g": 1e308}, "g"),
            ({"dtau": 500.0}, "dtau"),
            ({"measure_every": 0}, "measure_every"),
            ({"total_steps": 100, "sketch_stop_step": 200}, "sketch_stop_step"),
            ({"n_walkers": 2.5}, "n_walkers"),
            ({"total_steps": 2.5}, "total_steps"),
            ({"sketch_rank": 3.5}, "sketch_rank"),
            ({"n_walkers": True}, "n_walkers"),
            ({"delta": float("nan")}, "delta"),
            ({"delta": float("inf")}, "delta"),
            ({"equilibration_steps": "x"}, "equilibration_steps"),
            ({"g": "abc"}, "g"),
            ({"g": None}, "g"),
            ({"dtau": "0.01"}, "dtau"),
            ({"lattice_dims": 4}, "lattice_dims"),
            ({"reanchor": "false"}, "reanchor"),
            ({"measure_every": 1.5}, "measure_every"),
            ({"lattice_dims": [4.5]}, "lattice_dims"),
            ({"sketch_stop_step": -5}, "sketch_stop_step"),
            ({"equilibration_steps": 41}, "equilibration_steps"),
            ({"g": 10 ** 400}, "g"),
        ],
    )
    def test_bad_config_exit_2_names_field(self, tmp_path, capsys, overrides, field):
        cfg_path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "in_file, flag", [({"out_dir": 5}, []), ({}, ["--out-dir", ""]), ({}, ["--out-dir", "TAKEN"])],
    )
    def test_bad_out_dir_exit_2_before_running(self, tmp_path, capsys, no_run, in_file, flag):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        argv = ["run", "--config", write_config(tmp_path, **in_file)]
        assert cli.main(argv + [str(taken) if a == "TAKEN" else a for a in flag]) == 2
        assert "config field 'out_dir'" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_unwritable_out_dir_exit_3_names_path(self, tmp_path, capsys):
        # valid when loaded, but its parent is a file, so no directory can be made
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "out"
        cfg_path = write_config(tmp_path, total_steps=0, sketch_stop_step=0, equilibration_steps=0)
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"cannot write {out / 'trace.csv'}" in err
        assert "Traceback" not in err

    def test_failed_trial_write_exit_3_names_path(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, tt):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(cli, "save_tt", full_disk)
        cfg_path = write_config(tmp_path, total_steps=0, sketch_stop_step=0, equilibration_steps=0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 3
        assert f"cannot write {out / 'trial.tt'}: No space left on device" in capsys.readouterr().err

    def test_sketch_svd_failure_exit_3_names_cut(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 3
        assert "cross matrix at cut 1 failed: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weights_exit_3_names_walker(self, tmp_path, capsys):
        # at g = 20, dtau = 0.1 every step multiplies the weights by about
        # exp(dtau g d) = e^16, so they overflow at step 45, long before the
        # first comb; the step that overflows names it, without a NumPy
        # overflow warning
        cfg_path = write_config(
            tmp_path, lattice_dims=[8], g=20.0, dtau=0.1, n_walkers=8, total_steps=60,
            measure_every=100, popcontrol_every=60, reanchor=False,
        )
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "has weight inf at step 45" in err
        # the step is named once, not again in a repeated context dict
        assert len(re.findall(r"step'?:? 45\b", err)) == 1
        assert "died" not in err

    def test_failed_analytic_check_exit_3_names_d(self, tmp_path, capsys, monkeypatch):
        # the free-fermion reference's cross-check is live in every chain run
        raw = spin_model._analytic_chain_energy_raw
        monkeypatch.setattr(spin_model, "_analytic_chain_energy_raw", lambda d, g: raw(d, g) + 1e-6)
        monkeypatch.setattr(spin_model, "_ANALYTIC_VALIDATED", False)
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "d=8" in err
        assert "Traceback" not in err

    @staticmethod
    def _run_without_scipy(tmp_path, cfg_path):
        """``ttqmc run`` in a fresh process; exits 10 if it loaded scipy."""
        code = (
            "import sys; from ttqmc import cli; "
            f"rc = cli.main(['run', '--config', {cfg_path!r}, '--out-dir', {str(tmp_path / 'out')!r}]); "
            "sys.exit(rc or 10 * ('scipy' in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == 0
        return json.loads((tmp_path / "out" / "summary.json").read_text())

    def test_periodic_chain_run_does_not_load_scipy(self, tmp_path):
        # d=16 is past the exact oracle, so the reference is the free-fermion
        # formula, whose cross-check runs without scipy
        cfg_path = write_config(
            tmp_path, lattice_dims=[16], total_steps=0, sketch_stop_step=0, equilibration_steps=0,
        )
        summary = self._run_without_scipy(tmp_path, cfg_path)
        # at g = 1 the free-fermion sum has the closed form -2 / sin(pi / 2d)
        assert summary["reference_energy"] == pytest.approx(-2.0 / np.sin(np.pi / 32), abs=1e-12)

    def test_cylinder_run_reports_exact_references_without_scipy(self, tmp_path):
        # d=12 is within the exact oracle: its Lanczos solver gives the
        # reference energy and the ground vector the fidelity is taken against
        cfg_path = write_config(
            tmp_path, lattice_kind="cylinder", lattice_dims=[3, 4], total_steps=20,
            sketch_stop_step=20, equilibration_steps=10,
        )
        summary = self._run_without_scipy(tmp_path, cfg_path)
        lat = build_lattice("cylinder", (3, 4), "periodic")
        e0 = eigsh(csr_hamiltonian(lat, 1.0), k=1, which="SA", return_eigenvectors=False)[0]
        assert summary["reference_energy"] == pytest.approx(e0, rel=1e-12)
        assert isinstance(summary["relative_error"], float)
        assert 0.0 < summary["fidelity"] <= 1.0

    def test_import_does_not_load_scipy(self):
        # the runtime needs numpy alone
        code = "import sys, ttqmc.cli; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_near_float_max_give_finite_outputs(self, tmp_path):
        # the total weight at step 12 is 9.8e306: finite, but the unnormalized
        # dot of the mixed estimator overflowed to -inf.  Rounding g or dtau
        # hides the failure, so both keep every digit
        cfg_path = write_config(
            tmp_path, lattice_dims=[8], g=3.30520897328002, dtau=1.8417276517693644,
            n_walkers=59, total_steps=12, measure_every=2, popcontrol_every=18, sketch_every=5,
            sketch_stop_step=None, equilibration_steps=None, sketch_rank=8, delta=1.0,
            target_edge_rank=3, target_middle_rank=4, reanchor=True, seed=23,
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[2]) > 1e306
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert np.isfinite(summary["energy_mean"])

    def test_non_finite_summary_exit_3_names_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fidelity", lambda trial, ref: float("nan"))
        cfg_path = write_config(tmp_path, total_steps=10, sketch_stop_step=10, equilibration_steps=0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--out-dir", str(out)]) == 3
        assert "summary field 'fidelity' is nan" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_records_blas_thread_settings(self, tmp_path):
        # the settings the process started with, which the BLAS read at load
        cfg_path = write_config(tmp_path, total_steps=0, sketch_stop_step=0, equilibration_steps=0)
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="3")
        env.pop("OMP_NUM_THREADS", None)
        argv = ["run", "--config", cfg_path, "--out-dir", str(tmp_path / "out")]
        subprocess.run(
            [sys.executable, "-m", "ttqmc.cli", *argv], env=env, capture_output=True, check=True, timeout=120,
        )
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3",
        }

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # 2000 walkers make the BLAS split its products across threads
        cfg_path = write_config(
            tmp_path, lattice_dims=[16], n_walkers=2000, total_steps=20,
            sketch_every=10, sketch_stop_step=20, equilibration_steps=10, sketch_rank=60,
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, PYTHONPATH=SRC)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            argv = ["run", "--config", cfg_path, "--out-dir", str(out)]
            subprocess.run(
                [sys.executable, "-m", "ttqmc.cli", *argv],
                env=env, capture_output=True, check=True, timeout=300,
            )
            outputs.append([(out / name).read_bytes() for name in ("trace.csv", "trial.tt")])
        assert outputs[0] == outputs[1]

    def test_seed_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path, seed=1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", cfg_path, "--out-dir", str(out_a), "--seed", "9"])
        cli.main(["run", "--config", cfg_path, "--out-dir", str(out_b)])
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        assert sa["config"]["seed"] == 9
        assert sb["config"]["seed"] == 1
        assert sa["energy_mean"] != sb["energy_mean"]


class TestSweeps:
    def test_trotter_single_value_degenerates_to_run(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(
            ["trotter-sweep", "--config", cfg_path, "--out-dir", str(out), "--dtaus", "0.02"]
        )
        assert rc == 0
        lines = (out / "trotter.csv").read_text().splitlines()
        assert lines[0] == "dtau,energy,stderr,reference,error"
        assert len(lines) == 2

    def test_trotter_unsorted_input_sorted_output(self, tmp_path):
        cfg_path = write_config(tmp_path, total_steps=20, sketch_stop_step=10, equilibration_steps=10)
        out = tmp_path / "out"
        rc = cli.main(
            [
                "trotter-sweep",
                "--config",
                cfg_path,
                "--out-dir",
                str(out),
                "--dtaus",
                "0.04,0.01,0.02",
            ]
        )
        assert rc == 0
        rows = (out / "trotter.csv").read_text().splitlines()[1:]
        dtaus = [float(r.split(",")[0]) for r in rows]
        assert dtaus == sorted(dtaus) == [0.01, 0.02, 0.04]

    def test_popsize_single_value(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(
            [
                "popsize-sweep",
                "--config",
                cfg_path,
                "--out-dir",
                str(out),
                "--walker-counts",
                "30",
            ]
        )
        assert rc == 0
        lines = (out / "popsize.csv").read_text().splitlines()
        assert lines[0] == "n_walkers,energy,stderr,reference,bias"
        assert len(lines) == 2

    def test_empty_sweep_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["trotter-sweep", "--config", cfg_path, "--dtaus", ""]) == 2

    def test_gsweep_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, total_steps=20, sketch_stop_step=10, equilibration_steps=10)
        out = tmp_path / "out"
        rc = cli.main(
            [
                "gsweep",
                "--config",
                cfg_path,
                "--out-dir",
                str(out),
                "--g-values",
                "0.5,1.0",
                "--dg",
                "0.01",
            ]
        )
        assert rc == 0
        lines = (out / "gsweep.csv").read_text().splitlines()
        assert lines[0] == "g,energy,stderr,denergy_dg"
        assert len(lines) == 3

    def test_gsweep_empty_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gsweep", "--config", cfg_path, "--g-values", ""]) == 2

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["trotter-sweep", "--dtaus", "abc"], "dtaus"),
            (["trotter-sweep", "--dtaus", "0.01,0.01"], "dtaus"),
            (["trotter-sweep", "--dtaus", "0.02,nan"], "dtau"),
            (["popsize-sweep", "--walker-counts", "1.5"], "walker_counts"),
            (["popsize-sweep", "--walker-counts", "20,0"], "n_walkers"),
            (["gsweep", "--g-values", "1,x"], "g_values"),
            (["gsweep", "--g-values", "1.0", "--dg", "nan"], "dg"),
            (["gsweep", "--g-values", "1.0", "--dg", "0"], "dg"),
            (["gsweep", "--g-values", "0.5,-1"], "g"),
        ],
    )
    def test_bad_sweep_exit_2_names_flag_or_field(self, tmp_path, capsys, no_run, argv, field):
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", write_config(tmp_path), "--out-dir", str(out)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_gsweep_sorts_values(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run", _linear_fake_run(0.0, 1.0))
        out = tmp_path / "out"
        argv = ["gsweep", "--config", write_config(tmp_path), "--out-dir", str(out), "--g-values", "1.0,0.5"]
        assert cli.main(argv) == 0
        rows = (out / "gsweep.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.5, 1.0]

    def test_gsweep_linear_function_derivative_exact(self, tmp_path, monkeypatch):
        # the derivative column is a plain finite difference of the means
        a, b = -3.0, 1.7
        monkeypatch.setattr(cli, "run", _linear_fake_run(a, b))
        out = tmp_path / "out"
        argv = ["gsweep", "--config", write_config(tmp_path), "--out-dir", str(out), "--g-values", "0.5,1.0"]
        assert cli.main(argv + ["--dg", "0.01"]) == 0
        for row in (out / "gsweep.csv").read_text().splitlines()[1:]:
            g, energy, _, slope = map(float, row.split(","))
            assert slope == pytest.approx(b, rel=1e-9)
            assert energy == pytest.approx(a + b * g, rel=1e-12)

    def test_gsweep_without_a_mean_leaves_cells_empty(self, tmp_path):
        # no measurement after equilibration, so no mean and no slope
        cfg_path = write_config(
            tmp_path, total_steps=10, measure_every=20, sketch_stop_step=10, equilibration_steps=5,
        )
        out = tmp_path / "out"
        assert cli.main(["gsweep", "--config", cfg_path, "--out-dir", str(out), "--g-values", "1.0"]) == 0
        assert (out / "gsweep.csv").read_text().splitlines()[1] == "1.0,,,"

    def test_gsweep_classical_point_d8(self, tmp_path):
        # g=0: E = -d exactly; the finite-difference slope at the classical
        # point is second order in g, hence flat within stochastic error
        cfg_path = write_config(
            tmp_path, lattice_dims=[8], g=0.0, n_walkers=200, total_steps=600, measure_every=10,
            sketch_every=50, sketch_stop_step=300, equilibration_steps=300, sketch_rank=12, seed=5,
        )
        out = tmp_path / "out"
        assert cli.main(["gsweep", "--config", cfg_path, "--out-dir", str(out), "--g-values", "0"]) == 0
        [row] = (out / "gsweep.csv").read_text().splitlines()[1:]
        g, energy, _, slope = map(float, row.split(","))
        assert g == 0.0
        assert energy == pytest.approx(-8.0, abs=0.05)
        assert abs(slope) < 1.0


def _linear_fake_run(a, b):
    """A stand-in for ``run`` whose mean energy is exactly a + b g."""

    def fake_run(config, initial_trial=None):
        trace = EnergyTrace(
            steps=np.array([0]),
            energy=np.array([a + b * config.g]),
            total_weight=np.array([1.0]),
            alive=np.array([1], dtype=np.int64),
            equilibration_steps=0,
            mean=a + b * config.g,
            stderr=0.0,
        )
        return trace, None, None

    return fake_run


# The JSON type each field takes, written out here independently of the
# config module's table.
JSON_TYPES = {
    "lattice_kind": "string", "lattice_dims": "integer list", "lattice_boundary": "string",
    "g": "number", "dtau": "number", "n_walkers": "integer", "total_steps": "integer",
    "measure_every": "integer", "popcontrol_every": "integer", "sketch_every": "integer",
    "sketch_stop_step": "integer or null", "equilibration_steps": "integer or null",
    "sketch_rank": "integer", "delta": "number", "target_edge_rank": "integer",
    "target_middle_rank": "integer", "reanchor": "boolean", "seed": "integer", "out_dir": "string",
}


def _has_json_type(kind, v):
    is_int = type(v) is int
    return {
        "string": type(v) is str,
        "boolean": type(v) is bool,
        "integer": is_int,
        "integer or null": is_int or v is None,
        "number": is_int or (type(v) is float and math.isfinite(v)),
        "integer list": type(v) is list and all(type(x) is int for x in v),
    }[kind]


# Every shape a JSON value can take.  Strings come from a small alphabet
# (no Unicode tables to build) plus the lattice names.  List entries stay
# small: a single lattice dimension is the chain length, and the lattice is
# built on load.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]),
    st.text(alphabet="acehinp/.\0", max_size=8),
    st.sampled_from(["chain", "grid", "cylinder", "open", "periodic"]),
    st.lists(st.one_of(st.integers(-2, 40), st.floats(-2, 40)), max_size=3),
)


class TestOneValidator:
    def test_json_types_cover_every_field(self):
        assert set(JSON_TYPES) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("field", sorted(JSON_TYPES))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(value=_JSON_VALUES)
    def test_any_single_value_gives_config_or_config_error(self, field, value):
        try:
            config_from_dict({field: value})
        except ConfigError as exc:
            if not _has_json_type(JSON_TYPES[field], value):
                assert exc.field == field
        else:
            assert _has_json_type(JSON_TYPES[field], value)


class TestAtomicity:
    def test_no_tmp_leftovers(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", cfg_path, "--out-dir", str(out)])
        leftovers = [p for p in os.listdir(out) if ".tmp." in p]
        assert leftovers == []
