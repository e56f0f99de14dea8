import ast
from pathlib import Path

import pytest

import fchsim
from fchsim.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_config,
    load_experiment_config,
    read_config_file,
)
from fchsim.integrate import SolverParams


GOOD = """
[experiment]
scenario = decay
output_dir = runs/decay
sample_stride = 4

[grid]
dim = 2
points = 128
box_length = 50

[solver]
nu = 0.1
beta = 0.5
alpha = 2
dt = 0.05
t_end = 30
dealias = true

[datum]
kind = stream-bump
width = 1.5
peak_speed = 0.05

[decay]
fit_t_lo = 5
fit_t_hi = 25
"""


def write(tmp_path, text, name="c.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestReadConfigFile:
    def test_round_trip(self, tmp_path):
        raw = read_config_file(write(tmp_path, GOOD))
        assert raw["grid"]["points"] == "128"
        assert raw["experiment"]["scenario"] == "decay"

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            read_config_file(write(tmp_path, GOOD + "\n[mystery]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(write(tmp_path, GOOD + "\nviscosity = 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file(str(tmp_path / "absent.ini"))

    def test_malformed_file(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed"):
            read_config_file(write(tmp_path, "no section header here\n"))


class TestOverrides:
    def test_applies_on_top(self, tmp_path):
        raw = read_config_file(write(tmp_path, GOOD))
        updated = apply_overrides(raw, ["solver.nu=0.25", "grid.points=64"])
        assert updated["solver"]["nu"] == "0.25"
        assert updated["grid"]["points"] == "64"
        # the original dict is untouched
        assert raw["solver"]["nu"] == "0.1"

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides({}, ["nu=0.25"])

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["solver.viscosity=0.25"])


class TestBuildConfig:
    def test_full_assembly(self, tmp_path):
        config = load_experiment_config("decay", write(tmp_path, GOOD))
        assert config.scenario == "decay"
        assert config.grid == (2, 128, 50.0)
        assert config.params == SolverParams(nu=0.1, beta=0.5, alpha=2.0,
                                             dt=0.05, t_end=30.0)
        assert config.fit_window == (5.0, 25.0)
        assert config.datum["kind"] == "stream-bump"

    def test_scenario_cross_check(self, tmp_path):
        with pytest.raises(ConfigError, match="declares scenario"):
            load_experiment_config("simulate", write(tmp_path, GOOD))

    def test_out_and_seed_flags_win(self, tmp_path):
        config = load_experiment_config("decay", write(tmp_path, GOOD),
                                        out="elsewhere", seed=11)
        assert config.output_dir == "elsewhere"
        assert config.seed == 11

    def test_bad_value_typed_error(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_experiment_config("decay", write(tmp_path, GOOD),
                                   overrides=["solver.dt=abc"])

    def test_incomplete_solver_section(self, tmp_path):
        text = GOOD.replace("nu = 0.1\n", "")
        with pytest.raises(ConfigError, match="missing keys"):
            load_experiment_config("decay", write(tmp_path, text))

    def test_bad_solver_parameters(self, tmp_path):
        with pytest.raises(ConfigError, match="bad solver parameters"):
            load_experiment_config("decay", write(tmp_path, GOOD),
                                   overrides=["solver.dt=-1"])

    def test_bad_fit_window(self, tmp_path):
        with pytest.raises(ConfigError, match="fit window"):
            load_experiment_config("decay", write(tmp_path, GOOD),
                                   overrides=["decay.fit_t_hi=2"])


class TestExperimentConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentConfig(scenario="sweep")

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="dim"):
            ExperimentConfig(scenario="simulate", grid=(4, 64, 1.0))
        with pytest.raises(ConfigError, match="even"):
            ExperimentConfig(scenario="simulate", grid=(2, 63, 1.0))
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(scenario="simulate", grid=(2, 64, float("inf")))
        with pytest.raises(ConfigError, match="overflow"):
            ExperimentConfig(scenario="simulate", grid=(3, 64, 1e103))

    def test_datum_kind_checked(self):
        with pytest.raises(ConfigError, match="datum kind"):
            ExperimentConfig(scenario="simulate", datum={"kind": "vortex"})

    def test_epsilons_must_decrease(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            ExperimentConfig(scenario="scaled-family", epsilons=(0.5, 1.0))

    def test_epsilons_required(self):
        with pytest.raises(ConfigError, match="epsilons"):
            ExperimentConfig(scenario="scaled-family")

    def test_alpha_sweep_exponent_window(self):
        params = SolverParams(nu=0.01, beta=0.75, alpha=0.0, dt=1e-3, t_end=1.0)
        config = ExperimentConfig(scenario="alpha-sweep",
                                  params=params,
                                  alphas=(0.2, 0.1, 0.05),
                                  l_exponent=2.0)
        # s = l n / (n - l beta) = 8, q = 2s/(s-2) = 8/3
        assert config.q_exponent == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert config.convergence_gamma == pytest.approx(0.125, rel=1e-12)

    def test_sweep_exponents_are_derived_for_the_sweep_only(self):
        params = SolverParams(nu=0.01, beta=0.75, alpha=0.0, dt=1e-3, t_end=1.0)
        sweep = ExperimentConfig(scenario="alpha-sweep", params=params,
                                 alphas=(0.2, 0.1, 0.05), l_exponent=2.0)
        assert sweep.s_exponent == 2.0 * 2 / (2 - 2.0 * 0.75)
        plain = ExperimentConfig(scenario="simulate", params=params,
                                 l_exponent=2.0)
        assert (plain.s_exponent, plain.q_exponent,
                plain.convergence_gamma) == (None, None, None)

    def test_alpha_sweep_l_too_small(self):
        params = SolverParams(nu=0.01, beta=0.75, alpha=0.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError, match="l_exponent must exceed"):
            ExperimentConfig(scenario="alpha-sweep", params=params,
                             alphas=(0.2, 0.1, 0.05), l_exponent=1.5)

    def test_alpha_sweep_l_too_large(self):
        params = SolverParams(nu=0.01, beta=0.75, alpha=0.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError, match="stay below"):
            ExperimentConfig(scenario="alpha-sweep", params=params,
                             alphas=(0.2, 0.1, 0.05), l_exponent=3.0)

    def test_alpha_sweep_beta_floor(self):
        params = SolverParams(nu=0.01, beta=0.3, alpha=0.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError, match="beta > 1/3"):
            ExperimentConfig(scenario="alpha-sweep", params=params,
                             alphas=(0.2, 0.1, 0.05), l_exponent=2.0)

    def test_alpha_sweep_needs_three_positive(self):
        params = SolverParams(nu=0.01, beta=0.75, alpha=0.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ConfigError, match="3 positive"):
            ExperimentConfig(scenario="alpha-sweep", params=params,
                             alphas=(0.2, 0.1), l_exponent=2.0)

    def test_empty_config_defaults(self):
        config = build_config("selftest", {})
        assert config.scenario == "selftest"
        assert config.params is None
        assert config.grid[0] == 2


ROOT = Path(__file__).resolve().parents[1]
CH2D = str(ROOT / "bench" / "configs" / "ch2d_512.ini")
SWEEP = str(ROOT / "configs" / "alpha_sweep_2d.ini")


class TestOverflowingRuns:
    # on a 16^2 grid of side 2 pi, max|k|^2 = 2 * 8^2 = 128: alpha^2 overflows
    # for alpha = 1e200, alpha^2 max|k|^2 for alpha = 1e154, and t_end / dt for
    # 1e300 / 1e-10
    @pytest.mark.parametrize("scenario, path, probe", [
        ("simulate", CH2D, ["solver.alpha=1e200"]),
        ("simulate", CH2D, ["solver.alpha=1e154"]),
        ("simulate", CH2D, ["solver.t_end=1e300", "solver.dt=1e-10"]),
        ("alpha-sweep", SWEEP, ["alpha-sweep.alphas=1e200 1e199 1e198"]),
        ("alpha-sweep", SWEEP, ["alpha-sweep.alphas=1e154 0.1 0.05"]),
    ], ids=["alpha-squared", "alpha-squared-k-squared", "step-count",
            "sweep-widths", "one-sweep-width"])
    def test_rejected_at_load(self, scenario, path, probe):
        with pytest.raises(ConfigError, match="overflows"):
            load_experiment_config(scenario, path, ["grid.points=16"] + probe)

    @pytest.mark.parametrize("scenario, path, probe", [
        ("simulate", CH2D, ["solver.alpha=1e153"]),
        ("simulate", CH2D, ["solver.t_end=1e10", "solver.dt=1e-10"]),
        ("alpha-sweep", SWEEP, ["alpha-sweep.alphas=1e153 1e152 1e151"]),
    ], ids=["alpha", "step-count", "sweep-widths"])
    def test_largest_finite_values_load(self, scenario, path, probe):
        # 1e306 * 128 and 1e20 steps are finite floats: they load
        load_experiment_config(scenario, path, ["grid.points=16"] + probe)


def _config_error_raises(path):
    """(enclosing function, line) of each `raise ConfigError` in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                found.append((function, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_config_errors_raised_in_config_only():
    # Every scenario requirement is checked once, at config load; the one
    # exception turns the datum constructors' ValueErrors into ConfigErrors.
    package = Path(fchsim.__file__).parent
    raises = {path.name: _config_error_raises(path)
              for path in sorted(package.glob("*.py"))}
    assert len(raises.pop("config.py")) >= 10       # the scan sees raises
    assert [fn for fn, _ in raises.pop("experiments.py")] == ["make_datum"]
    assert {name: hits for name, hits in raises.items() if hits} == {}
