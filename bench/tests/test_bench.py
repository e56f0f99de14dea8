"""Tests of the benchmark itself, on tiny grids.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import fchsim.integrate  # noqa: E402
from fchsim.config import load_experiment_config  # noqa: E402
from fchsim.experiments import run_simulate  # noqa: E402
from fchsim.spectral import SPECTRAL, VectorField  # noqa: E402

import run as bench_run  # noqa: E402
from verify import (  # noqa: E402
    GuardError, check_nonlinearity, energy_balance_failure, verify_outputs)
from workloads import WORKLOADS, initial_state  # noqa: E402

# The two simulate workloads on grids small enough for a unit test; the
# physics, step counts and sampling are the shipped ones.
TINY = {
    "ch2d": dataclasses.replace(WORKLOADS["ch2d-512"], overrides=("grid.points=32",)),
    "nse3d": dataclasses.replace(WORKLOADS["nse3d-48"], overrides=("grid.points=16",)),
}


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced child of each tiny workload."""
    return {key: bench_run.measure(w, seed=3, seconds=0, traced=True, root=str(ROOT))
            for key, w in TINY.items()}


def _declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_result_names_exactly_the_declared_metrics(traced_runs):
    end_to_end, per_layer = _declared()
    samples = traced_runs["ch2d"]["samples"]
    for traced, declared in ((False, end_to_end), (True, per_layer)):
        lines, result = bench_run.report(samples, traced)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(name in "\n".join(lines) for name in declared)


def test_fft_counts_of_the_seed_solver(traced_runs):
    # Pinned for the seed's RHS: 14 FFT calls per 2D filtered RHS moving
    # 20 N^2 elements, 22 calls per 3D unfiltered RHS; four RHS per step.
    ch2d = bench_run.layer_metrics(traced_runs["ch2d"]["samples"])
    assert ch2d["fft.calls_per_step"][0] == 56
    assert ch2d["fft.melems_per_step"][0] * 1e6 == pytest.approx(4 * 20 * 32**2, abs=1e-6)
    assert ch2d["helmholtz.apply_filter.calls"][0] == 4 * 12
    nse3d = bench_run.layer_metrics(traced_runs["nse3d"]["samples"])
    assert nse3d["fft.calls_per_step"][0] == 88
    assert nse3d["helmholtz.apply_filter.calls"][0] == 0
    assert nse3d["checkpoint.save_checkpoint.mb"][0] == pytest.approx(
        (53 + 3 * 16**3 * 16) / 1e6)  # header + coefficients


def _simulate(workload, seed, out):
    config = workload.load_config(seed, str(ROOT))
    config.output_dir = str(out)
    run_simulate(config)
    return config


def test_verification_fails_when_the_nonlinear_term_is_zero(tmp_path, monkeypatch):
    workload = TINY["ch2d"]
    config = _simulate(workload, 5, tmp_path / "control")
    v0 = initial_state(config)
    assert verify_outputs(workload, config, v0, str(tmp_path / "control"), 0) == []

    def zero(u, v, dealias=True):
        return VectorField.zeros(u.grid, SPECTRAL)

    monkeypatch.setattr(fchsim.integrate, "ch_nonlinear_term", zero)
    _simulate(workload, 5, tmp_path / "linear")
    failures = verify_outputs(workload, config, v0, str(tmp_path / "linear"), 0)
    assert len(failures) == 1 and "nonlinear term did not act" in failures[0]


def test_energy_balance_check_rejects_a_perturbed_energy(tmp_path):
    config = _simulate(TINY["nse3d"], 2, tmp_path)
    energy = np.loadtxt(tmp_path / "energy.csv", delimiter=",", skiprows=1)
    assert energy_balance_failure(energy, config.params) is None
    energy[-1, 1] *= 1.0 + 1e-4
    assert "energy balance residual" in energy_balance_failure(energy, config.params)


def test_guard_rejects_the_steady_stream_bump():
    config = load_experiment_config("decay", path=str(ROOT / "configs" / "decay_2d.ini"))
    with pytest.raises(GuardError, match="linear semigroup"):
        check_nonlinearity(initial_state(config), config.params)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_data_pass_the_guard(name):
    config = WORKLOADS[name].load_config(11, str(ROOT))
    assert check_nonlinearity(initial_state(config), config.params) > 1.0


def test_seed_reaches_the_datum_even_when_the_config_sets_one():
    # alpha_sweep_2d.ini sets [datum] seed = 7, which would win over --seed.
    workload = WORKLOADS["sweep128"]
    first, again, second = (initial_state(workload.load_config(s, str(ROOT))).data
                            for s in (1, 1, 2))
    assert np.array_equal(first, again)
    assert not np.allclose(first, second)
    assert "datum.seed=2" in workload.cli_args(2, str(ROOT), "out")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ch2d-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert done.returncode != 0
    assert done.stdout == ""
