import io
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fchsim import experiments, fields
from fchsim.checkpoint import load_checkpoint
from fchsim.cli import main
from fchsim.config import ConfigError, ExperimentConfig, load_experiment_config
from fchsim.diagnostics import EnergyRecord, l2_norm_sq
from fchsim.experiments import (
    BOX_TRUNCATION_CAVEAT,
    RUNNERS,
    make_datum,
    run_alpha_sweep,
    run_decay_experiment,
    run_filter_check,
    run_kernel_check,
    run_scaled_family,
    run_selftest,
    run_simulate,
    write_energy_csv,
    write_report,
)
from fchsim.integrate import BlowUpError, SolverParams, hold_freed_memory
from fchsim.spectral import SpectralGrid

TWO_PI = 2.0 * np.pi


def small_params(**kw):
    base = dict(nu=0.05, beta=0.75, alpha=0.5, dt=5e-3, t_end=0.25)
    base.update(kw)
    return SolverParams(**base)


def config_for(scenario, out, **kw):
    base = dict(scenario=scenario, output_dir=str(out))
    base.update(kw)
    return ExperimentConfig(**base)


class TestHelpers:
    def test_runner_registry_covers_every_scenario(self):
        from fchsim.config import SCENARIOS
        assert set(RUNNERS) == set(SCENARIOS)

    def test_energy_csv_format(self, tmp_path):
        records = [EnergyRecord(t=0.1, E=1.0 / 3.0, D=2.0e-17, v_l2=1.0,
                                gradv_l2=2.0, fhat_max=3.0)]
        path = tmp_path / "energy.csv"
        write_energy_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == EnergyRecord.CSV_HEADER
        row = [float(x) for x in lines[1].split(",")]
        # full double precision survives the round trip
        assert row == [0.1, 1.0 / 3.0, 2.0e-17, 1.0, 2.0, 3.0]

    def test_report_is_json(self, tmp_path):
        path = tmp_path / "r" / "report.json"
        write_report({"fits": {"E": np.float64(2.0)}, "bad": float("inf"),
                      "pair": (1, np.bool_(True))}, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["fits"]["E"] == 2.0
        assert loaded["bad"] == "inf"
        assert loaded["pair"] == [1, True]

    def test_family_spec_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            config_for("scaled-family", tmp_path, epsilons=(1.0, 1.0))
        with pytest.raises(ConfigError, match="positive"):
            config_for("scaled-family", tmp_path, epsilons=(1.0, -0.5))
        config = config_for("scaled-family", tmp_path, epsilons=[1, 0.5],
                            grid=(2, 80, 50.0), params=small_params(),
                            datum={"width": 3.0})
        assert tuple(config.epsilons) == (1.0, 0.5)


class TestMakeDatum:
    def test_stream_bump_default(self, tmp_path):
        grid = SpectralGrid(2, 32, TWO_PI)
        config = config_for("simulate", tmp_path, params=small_params(),
                            datum={"kind": "stream-bump", "width": 0.7,
                                   "peak_speed": 2.0})
        v = make_datum(config, grid)
        speed = np.sqrt(np.sum(v.data ** 2, axis=0))
        assert np.max(speed) == pytest.approx(2.0, rel=1e-2)

    def test_band_random_seeded(self, tmp_path):
        grid = SpectralGrid(2, 32, TWO_PI)
        config = config_for("simulate", tmp_path, params=small_params(),
                            datum={"kind": "band-random", "seed": 4},
                            seed=9)
        a = make_datum(config, grid)
        b = make_datum(config, grid)
        assert np.array_equal(a.data, b.data)

    def test_config_seed_fallback(self, tmp_path):
        grid = SpectralGrid(2, 32, TWO_PI)
        with_cfg = config_for("simulate", tmp_path, params=small_params(),
                              datum={"kind": "band-random"}, seed=9)
        explicit = config_for("simulate", tmp_path, params=small_params(),
                              datum={"kind": "band-random", "seed": 9})
        assert np.array_equal(make_datum(with_cfg, grid).data,
                              make_datum(explicit, grid).data)

    def test_seed_flag_wins_over_config_seed(self):
        # the shipped sweep config sets [datum] seed = 7
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "alpha_sweep_2d.ini")

        def datum(seed):
            config = load_experiment_config(
                "alpha-sweep", path=path, overrides=["grid.points=32"], seed=seed)
            return make_datum(config, SpectralGrid(*config.grid)).data

        assert not np.array_equal(datum(1), datum(2))
        assert np.array_equal(datum(7), datum(None))

    def test_foreign_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="band_lo"):
            config_for("simulate", tmp_path, params=small_params(),
                       datum={"kind": "stream-bump", "band_lo": 2.0})

    def test_scenario_default_kind(self, tmp_path):
        grid = SpectralGrid(2, 32, TWO_PI)
        config = config_for("alpha-sweep", tmp_path,
                            params=small_params(alpha=0.0),
                            alphas=(0.2, 0.1, 0.05), l_exponent=2.0, seed=1)
        v = make_datum(config, grid)  # band-random without an explicit kind
        assert v.data.shape == (2, 32, 32)


class TestSimulate:
    def test_smoke(self, tmp_path):
        config = config_for(
            "simulate", tmp_path, grid=(2, 32, TWO_PI),
            params=small_params(),
            datum={"kind": "band-random", "seed": 3}, sample_stride=10)
        report = run_simulate(config)
        assert report["passed"] is True
        assert (tmp_path / "energy.csv").exists()
        loaded, meta = load_checkpoint(str(tmp_path / "final.chk"))
        assert loaded.t == pytest.approx(0.25)
        assert meta["beta"] == 0.75
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["experiment"] == "simulate"
        assert on_disk["version"]
        assert on_disk["config"]["solver"]["nu"] == 0.05
        # which environment produced the timings; held memory is applied by
        # the run, and is False only where glibc's mallopt is missing
        assert on_disk["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_affinity": fields._cpu_count(),
            "holds_freed_memory": hold_freed_memory()}
        # the process's own high-water mark, read as the report is written
        if os.path.exists("/proc/self/status"):
            assert 0 < on_disk["peak_rss_mb"] <= experiments._peak_rss_mb()
        else:
            assert on_disk["peak_rss_mb"] is None

    @pytest.mark.parametrize("status", [None, "Name:\tpython\n"],
                             ids=["no-file", "no-line"])
    def test_peak_memory_is_null_where_it_cannot_be_read(self, monkeypatch,
                                                          status):
        def fake_open(path, *args):
            if status is None:
                raise FileNotFoundError(path)
            return io.StringIO(status)

        monkeypatch.setattr(experiments, "open", fake_open, raising=False)
        assert experiments._peak_rss_mb() is None

    def test_blow_up_reported(self, tmp_path):
        config = config_for(
            "simulate", tmp_path, grid=(2, 32, TWO_PI),
            params=small_params(nu=1e-6, beta=0.5, alpha=0.0, dt=0.5,
                                t_end=10.0),
            datum={"kind": "band-random", "seed": 1, "amplitude": 30.0})
        report = run_simulate(config)
        assert report["passed"] is False
        assert report["blow_up"]["t"] > 0
        assert "energy" in report["blow_up"]["reason"]
        assert (tmp_path / "energy.csv").exists()

    def test_missing_solver_section(self, tmp_path):
        for scenario in ("simulate", "decay"):
            with pytest.raises(ConfigError, match="solver"):
                config_for(scenario, tmp_path)


class TestDecay:
    def test_small_run_structure(self, tmp_path):
        config = config_for(
            "decay", tmp_path, grid=(2, 64, TWO_PI),
            params=small_params(alpha=0.3, dt=0.01, t_end=4.0),
            datum={"kind": "band-random", "seed": 2},
            fit_window=(0.5, 3.5), sample_stride=20)
        report = run_decay_experiment(config)
        assert set(report["fits"]) == {"E", "v_l2", "gradv_l2", "grad2v_l2"}
        assert report["theory_exponents"]["gradv_l2"] == pytest.approx(-8.0 / 3.0)
        assert BOX_TRUNCATION_CAVEAT in report["caveats"]
        assert "E" in report["quasi_linear_reference"]
        assert report["fourier_amplitude_bound"]["bounded"] in (True, False)
        names = [a["name"] for a in report["assertions"]]
        assert "E decay exponent near theory" in names
        assert (tmp_path / "energy.csv").exists()

    def test_fit_failure_flagged_output_kept(self, tmp_path):
        config = config_for(
            "decay", tmp_path, grid=(2, 32, TWO_PI),
            params=small_params(dt=0.01, t_end=1.0),
            datum={"kind": "band-random", "seed": 2},
            fit_window=(0.9, 1.0), sample_stride=10)
        report = run_decay_experiment(config)
        assert report["passed"] is False
        assert "error" in report["fits"]["E"]
        assert (tmp_path / "energy.csv").exists()

    def test_three_dimensional_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="two-dimensional"):
            config_for("decay", tmp_path, grid=(3, 16, TWO_PI),
                       params=small_params())

    def test_csv_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            config = config_for(
                "decay", tmp_path / name, grid=(2, 32, TWO_PI),
                params=small_params(dt=0.01, t_end=1.0),
                datum={"kind": "band-random", "seed": 2},
                fit_window=(0.1, 0.9), sample_stride=5)
            run_decay_experiment(config)
            outs.append((tmp_path / name / "energy.csv").read_bytes())
        assert outs[0] == outs[1]


class TestScaledFamily:
    def family_config(self, out, **kw):
        base = dict(
            grid=(2, 80, 50.0),
            params=SolverParams(nu=2.0, beta=1.0, alpha=1.0, dt=0.1,
                                t_end=6.0),
            datum={"kind": "scaled-bump", "width": 3.0, "peak_speed": 0.05},
            epsilons=(1.0, 0.5), sample_stride=2)
        base.update(kw)
        return config_for("scaled-family", out, **base)

    def test_full_pass_at_small_scale(self, tmp_path):
        report = run_scaled_family(self.family_config(tmp_path))
        assert report["passed"] is True
        lives = [m["half_life"] for m in report["members"]]
        assert lives[0] < lives[1]
        assert report["c_hat"] > 0
        for member in report["members"]:
            assert (tmp_path / member["csv"]).exists()

    def test_base_member_is_the_configured_datum(self, tmp_path):
        # one [datum] section, one field: the family builds its members with
        # make_datum, from the same defaults (here peak_speed = 1), and the
        # report's config block keeps only what was set
        config = self.family_config(
            tmp_path, datum={"width": 3.0},
            params=SolverParams(nu=2.0, beta=1.0, alpha=1.0, dt=0.1, t_end=0.2))
        report = run_scaled_family(config)
        base = make_datum(config, SpectralGrid(*config.grid), eps=1.0)
        assert report["u0_l2_sq"] == l2_norm_sq(base)
        assert report["config"]["datum"] == {"width": 3.0}

    def test_under_resolved_member_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="too close to the box"):
            self.family_config(tmp_path, epsilons=(1.0, 0.1))

    def test_narrow_member_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="under four"):
            self.family_config(
                tmp_path, datum={"kind": "scaled-bump", "width": 1.0})

    def test_wrong_datum_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="scaled-bump"):
            self.family_config(tmp_path, datum={"kind": "band-random"})


class TestAlphaSweep:
    def sweep_config(self, tmp_path, alphas=(0.2, 0.1, 0.05, 0.0), alpha=0.0):
        return config_for(
            "alpha-sweep", tmp_path, grid=(2, 64, TWO_PI),
            params=SolverParams(nu=0.02, beta=0.75, alpha=alpha, dt=5e-3,
                                t_end=0.25),
            datum={"kind": "band-random", "seed": 7},
            alphas=alphas, l_exponent=2.0, sample_stride=5)

    def test_full_pass_with_zero_member(self, tmp_path):
        report = run_alpha_sweep(self.sweep_config(tmp_path))
        assert report["passed"] is True
        assert report["exponents"]["s"] == pytest.approx(8.0)
        assert report["exponents"]["q"] == pytest.approx(8.0 / 3.0)
        zero = [a for a in report["assertions"]
                if a["name"] == "zero width member coincides with reference"]
        assert len(zero) == 1 and zero[0]["passed"]
        assert report["fitted_order"] >= 1.5
        dists = [m["max_distance"] for m in report["members"] if m["alpha"] > 0]
        assert dists == sorted(dists, reverse=True)
        assert (tmp_path / "distances.csv").exists()

    def test_solver_alpha_must_be_zero(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha = 0"):
            self.sweep_config(tmp_path, alpha=0.1)


class TestBatteries:
    def test_filter_check(self, tmp_path):
        config = config_for("filter-check", tmp_path, grid=(2, 32, TWO_PI))
        report = run_filter_check(config)
        assert report["passed"] is True
        assert report["filter_convergence"]["slope"] == pytest.approx(2.0,
                                                                      abs=0.2)

    def test_kernel_check(self, tmp_path):
        config = config_for("kernel-check", tmp_path, kernel_gamma0=1.5,
                            kernel_dim=2)
        report = run_kernel_check(config)
        assert report["passed"] is True

    def test_selftest(self, tmp_path):
        config = config_for("selftest", tmp_path)
        report = run_selftest(config)
        assert report["passed"] is True
        assert os.path.exists(tmp_path / "report.json")


# Members spread over two threads: a forced blow-up of one non-first member
# must leave the artifacts and exit code of the one-thread run, which stops at
# that member with the earlier members' files written.
MEMBER_BLOW_UP_INI = {
    "alpha-sweep": """
[experiment]
scenario = alpha-sweep
sample_stride = 2
[grid]
dim = 2
points = 32
box_length = 6.283185307179586
[solver]
nu = 0.02
beta = 0.75
alpha = 0
dt = 0.005
t_end = 0.05
[datum]
kind = band-random
seed = 7
[alpha-sweep]
alphas = 0.2 0.1 0.05 0.025
l_exponent = 2
""",
    "scaled-family": """
[experiment]
scenario = scaled-family
sample_stride = 2
[grid]
dim = 2
points = 64
box_length = 100
[solver]
nu = 2.0
beta = 1.0
alpha = 1.0
dt = 0.1
t_end = 0.6
[datum]
kind = scaled-bump
width = 8
peak_speed = 0.05
[scaled-family]
epsilons = 1 0.75 0.5
""",
}
# The member that blows up, and the files the one-thread run leaves.
FORCED_MEMBER = {"alpha-sweep": 0.1, "scaled-family": 0.75}
LEFT_FILES = {"alpha-sweep": ["energy.csv", "report.json"],
              "scaled-family": ["energy.csv", "family_eps_1.csv", "report.json"]}


def _force_member_blow_up(monkeypatch, scenario):
    """Blow up the chosen member at its last step; sweep members are told
    apart by their width, family members by the eps of their datum."""
    member = threading.local()
    make = experiments.make_datum
    run = experiments.run

    def make_datum(config, grid, eps=None):
        member.eps = eps
        return make(config, grid, eps)

    def forced_run(initial, params, **kw):
        summary = run(initial, params, **kw)
        key = params.alpha if scenario == "alpha-sweep" else member.eps
        if key == FORCED_MEMBER[scenario]:
            raise BlowUpError(summary.state.t, "forced", summary.records)
        return summary

    monkeypatch.setattr(experiments, "make_datum", make_datum)
    monkeypatch.setattr(experiments, "run", forced_run)


def _artifacts(out):
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    report = json.loads(files.pop("report.json"))
    report.pop("wall_time", None)
    report.pop("environment")
    report.pop("peak_rss_mb")
    report["config"].pop("output_dir")
    return report, files


@pytest.mark.parametrize("scenario", ["alpha-sweep", "scaled-family"])
def test_member_blow_up_leaves_the_one_thread_artifacts(tmp_path, monkeypatch,
                                                        scenario):
    ini = tmp_path / "run.ini"
    ini.write_text(MEMBER_BLOW_UP_INI[scenario])
    _force_member_blow_up(monkeypatch, scenario)
    results = {}
    for cpus in (2, 1):
        monkeypatch.setattr(fields, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        code = main([scenario, "--config", str(ini), "--out", str(out)])
        results[cpus] = (code, sorted(p.name for p in out.iterdir()),
                         _artifacts(out))
    assert results[2] == results[1]
    code, names, (report, _) = results[1]
    assert code == 3 and names == LEFT_FILES[scenario]
    assert report["blow_up"]["reason"] == "forced"


NO_DEADLOCK_SCRIPT = """
import json, sys, threading
from fchsim import experiments, fields
from fchsim.config import ExperimentConfig
from fchsim.integrate import SolverParams, band_random
from fchsim.spectral import SpectralGrid

fields._cpu_count = lambda: 2          # even on one CPU
calls = []
add_terms = fields._add_terms

def spy(job):
    calls.append((threading.current_thread().name, len(job[5])))
    add_terms(job)

fields._add_terms = spy
grid = SpectralGrid(2, 256, 100.0)
config = ExperimentConfig(
    scenario="scaled-family", output_dir=sys.argv[1], grid=(2, 256, 100.0),
    params=SolverParams(nu=2.0, beta=1.0, alpha=1.0, dt=0.04, t_end=0.08),
    datum={"kind": "scaled-bump", "width": 3.0, "peak_speed": 0.05},
    epsilons=(1.0, 0.5), sample_stride=2)
experiments.run_scaled_family(config)
during, calls[:] = list(calls), []
u = band_random(grid, seed=3)
fields.ch_nonlinear_term(u, u)
print(json.dumps({"during": during, "after": calls, "workers": sum(
    t.name.startswith("fchsim-lane") for t in threading.enumerate())}))
"""


def test_family_map_at_two_lane_size_does_not_deadlock(tmp_path):
    # 256^2 reaches fields.THREADED_MIN_POINTS: a member on the worker must
    # not hand its lane to itself, so every product of the pair runs all its
    # terms as one lane on its own thread, and the lanes use the worker
    # again after it
    src = Path(experiments.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_DEADLOCK_SCRIPT, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    during = seen["during"]
    all_terms = 2 * 2 * 2                   # 2 components x 2 axes x 2 terms
    assert during and {terms for _, terms in during} == {all_terms}
    threads = {name.startswith("fchsim-lane") for name, _ in during}
    assert threads == {False, True}         # the members used both threads
    assert sorted(name.startswith("fchsim-lane") for name, _ in seen["after"]) \
        == [False, True]
    assert seen["workers"] == 1


def test_family_odd_last_member_runs_its_lanes_on_both_threads(tmp_path,
                                                                monkeypatch):
    # the third member of a 256^2 family runs alone once the pair has ended,
    # so the worker is free for its lanes
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    calls = []
    add_terms, run = fields._add_terms, experiments.run

    def spy(job):
        calls.append((threading.current_thread().name.startswith("fchsim-lane"),
                      len(job[5])))
        add_terms(job)

    def marked_run(*args, **kwargs):
        calls.append("member")
        return run(*args, **kwargs)

    monkeypatch.setattr(fields, "_add_terms", spy)
    monkeypatch.setattr(experiments, "run", marked_run)
    config = ExperimentConfig(
        scenario="scaled-family", output_dir=str(tmp_path),
        grid=(2, 256, 100.0),
        params=SolverParams(nu=2.0, beta=1.0, alpha=1.0, dt=0.04, t_end=0.08),
        datum={"kind": "scaled-bump", "width": 3.0, "peak_speed": 0.05},
        epsilons=(1.0, 0.5, 0.25), sample_stride=2)
    run_scaled_family(config)
    starts = [i for i, call in enumerate(calls) if call == "member"]
    assert len(starts) == 3
    last = calls[starts[2] + 1:]
    assert last and set(last) == {(False, 4), (True, 4)}
    assert last.count((False, 4)) == last.count((True, 4))
