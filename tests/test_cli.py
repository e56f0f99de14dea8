import json
import os
import subprocess
import sys

import pytest

from fchsim.cli import build_parser, main
from fchsim.config import SCENARIOS

PI2 = "6.283185307179586"


def write_ini(path, text):
    path.write_text(text)
    return str(path)


BLOW_UP_INI = f"""
[experiment]
scenario = simulate

[grid]
dim = 2
points = 32
box_length = {PI2}

[solver]
nu = 1e-6
beta = 0.5
alpha = 0.0
dt = 0.5
t_end = 10.0

[datum]
kind = band-random
seed = 1
amplitude = 30.0
"""

BLOW_UP_SWEEP_INI = f"""
[experiment]
scenario = alpha-sweep

[grid]
dim = 2
points = 32
box_length = {PI2}

[solver]
nu = 1e-6
beta = 0.75
alpha = 0.0
dt = 0.5
t_end = 10.0

[datum]
kind = band-random
seed = 1
amplitude = 30.0

[alpha-sweep]
alphas = 0.2 0.1 0.05
l_exponent = 2
"""

# simulate overrides for a 16^2 run; each bad-datum probe adds its own
SMALL_RUN = ["grid.dim=2", "grid.points=16", "grid.box_length=6.28", "solver.nu=0.1",
             "solver.beta=0.75", "solver.alpha=0", "solver.dt=0.01",
             "solver.t_end=0.02"]

FAILING_DECAY_INI = f"""
[experiment]
scenario = decay

[grid]
dim = 2
points = 32
box_length = {PI2}

[solver]
nu = 0.05
beta = 0.75
alpha = 0.0
dt = 0.01
t_end = 2.0

[datum]
kind = band-random
seed = 2
"""


class TestParser:
    def test_every_scenario_has_a_subcommand(self):
        parser = build_parser()
        for name in SCENARIOS:
            args = parser.parse_args([name])
            assert args.scenario == name

    def test_overrides_accumulate(self):
        parser = build_parser()
        args = parser.parse_args(
            ["selftest", "--override", "a.b=1", "--override", "c.d=2"])
        assert args.override == ["a.b=1", "c.d=2"]

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "selftest" in capsys.readouterr().out


class TestExitCodes:
    def test_selftest_passes(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["selftest", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        assert text.strip().endswith(os.path.join(str(out), "report.json"))
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_override_only_run(self, tmp_path):
        # no --config at all: the grid arrives through repeated overrides
        code = main(["filter-check", "--out", str(tmp_path),
                     "--override", "grid.dim=2",
                     "--override", "grid.points=32",
                     "--override", f"grid.box_length={PI2}"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["grid"]["points"] == 32

    def test_failed_assertions_exit_one(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "decay.ini", FAILING_DECAY_INI)
        code = main(["decay", "--config", ini, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["passed"] is False

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["selftest", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_override_exits_two(self, capsys):
        assert main(["selftest", "--override", "bogus.key=1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_override_exits_two(self, capsys):
        assert main(["selftest", "--override", "gridpoints"]) == 2
        capsys.readouterr()

    def test_scenario_mismatch_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "sim.ini", BLOW_UP_INI)
        assert main(["decay", "--config", ini]) == 2
        assert "declares scenario" in capsys.readouterr().err

    def test_bad_value_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "bad.ini",
                        BLOW_UP_INI.replace("nu = 1e-6", "nu = sticky"))
        assert main(["simulate", "--config", ini]) == 2
        assert "bad value" in capsys.readouterr().err

    def test_overflowing_box_length_exits_two(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path),
                     "--override", "grid.dim=3",
                     "--override", "grid.points=8",
                     "--override", "grid.box_length=1e103"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "overflow" in err

    @pytest.mark.parametrize("probe", [
        ["grid.dim=3", "grid.points=8"],
        ["datum.kind=band-random", "datum.band_lo=4", "datum.band_hi=2"],
        ["datum.kind=band-random", "datum.band_lo=40", "datum.band_hi=50"],
        ["datum.width=-1"],
        ["datum.kind=scaled-bump", "datum.epsilon=0"],
    ], ids=["3d-stream-bump", "inverted-band", "empty-band", "negative-width",
            "zero-epsilon"])
    def test_bad_datum_exits_two(self, tmp_path, capsys, probe):
        args = ["simulate", "--out", str(tmp_path)]
        for entry in SMALL_RUN + probe:
            args += ["--override", entry]
        assert main(args) == 2
        assert "configuration error: bad [datum]" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, probe", [
        ("alpha-sweep", ["alpha-sweep.alphas=0.2 nan 0.1 0.05",
                         "alpha-sweep.l_exponent=2"]),
        ("alpha-sweep", ["alpha-sweep.alphas=inf 0.2 0.1 0.05",
                         "alpha-sweep.l_exponent=2"]),
        ("alpha-sweep", ["alpha-sweep.alphas=0.2 0.1 0.05 0.025",
                         "alpha-sweep.l_exponent=nan"]),
        ("scaled-family", ["grid.points=128", "grid.box_length=100",
                           "datum.width=4", "scaled-family.epsilons=1 nan 0.25"]),
        ("simulate", ["datum.width=nan"]),
        ("simulate", ["datum.kind=band-random", "datum.amplitude=inf"]),
        ("kernel-check", ["kernel-check.gamma0=3"]),
        ("kernel-check", ["kernel-check.dim=5"]),
        # inside (n/(3 beta - 1), n/beta) = (0.31, 0.8), but no L^l norm
        ("alpha-sweep", ["solver.beta=2.5", "alpha-sweep.alphas=0.2 0.1 0.05 0.025",
                         "alpha-sweep.l_exponent=0.7"]),
        # on the 16^2 grid max|k|^2 is about 128: alpha^2, then alpha^2 max|k|^2,
        # then t_end / dt overflow a float
        ("simulate", ["solver.alpha=1e200"]),
        ("simulate", ["solver.alpha=1e154"]),
        ("simulate", ["solver.t_end=1e300", "solver.dt=1e-10"]),
        ("alpha-sweep", ["alpha-sweep.alphas=1e200 1e199 1e198",
                         "alpha-sweep.l_exponent=2"]),
    ], ids=["nan-alpha", "inf-alpha", "nan-l-exponent", "nan-epsilon",
            "nan-width", "inf-amplitude", "kernel-order-3", "kernel-dim-5",
            "l-exponent-below-one", "overflowing-alpha", "overflowing-filter-symbol",
            "overflowing-step-count", "overflowing-sweep-widths"])
    def test_non_finite_or_out_of_range_value_exits_two(self, tmp_path, capsys,
                                                        scenario, probe):
        args = [scenario, "--out", str(tmp_path)]
        for entry in SMALL_RUN + probe:
            args += ["--override", entry]
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_blow_up_exits_three(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "sweep.ini", BLOW_UP_SWEEP_INI)
        code = main(["alpha-sweep", "--config", ini,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[FAIL] run reached t_end" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["blow_up"]["t"] == 0.5

    def test_blow_up_exits_three(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "sim.ini", BLOW_UP_INI)
        code = main(["simulate", "--config", ini,
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "[FAIL] run reached t_end" in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["blow_up"]["t"] == pytest.approx(0.5)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fchsim.cli", "selftest",
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "[PASS]" in proc.stdout
        assert (tmp_path / "report.json").exists()

    def test_3d_sweep_with_beta_above_one_writes_its_report(self, tmp_path):
        # the fold's half-order derivative has beta / 2 = 1.1
        ini = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "alpha_sweep_2d.ini")
        args = ["alpha-sweep", "--config", ini, "--out", str(tmp_path)]
        for entry in ("grid.dim=3", "grid.points=8", "solver.t_end=0.02",
                      "solver.beta=2.2", "alpha-sweep.l_exponent=1.2"):
            args += ["--override", entry]
        proc = subprocess.run([sys.executable, "-m", "fchsim.cli"] + args,
                              capture_output=True, text=True, timeout=300)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        notes = json.loads((tmp_path / "report.json").read_text())["notes"]
        assert any("three dimensions" in note and "generic 2" in note
                   for note in notes)
        assert not any("sits near 4" in note for note in notes)

    def test_solver_import_leaves_scipy_oracles_unloaded(self):
        # nor the thread pool of the nonlinear product, which starts on the
        # first product large enough to use it
        code = ("import sys, threading, fchsim.cli, fchsim.experiments; "
                "print(sorted(m for m in ('scipy.special', 'scipy.integrate', "
                "'scipy.interpolate', 'scipy.fft', 'concurrent.futures') "
                "if m in sys.modules), threading.active_count())")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] 1"
