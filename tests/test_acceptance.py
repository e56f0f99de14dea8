"""Full-scale acceptance battery.

Each numbered test checks one promised gate at its stated tolerance and
wall-clock budget, so `pytest -v` prints one pass or fail line per gate.
The three long scenario runs (the 512^2 decay run, the scaled family, the
filter-width sweep) use the shipped configs and execute once each through
module-scoped fixtures; everything else is self-contained and fast.
"""

import dataclasses
import pathlib
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fchsim.checkpoint import load_checkpoint, save_checkpoint
from fchsim.config import ExperimentConfig, load_experiment_config
from fchsim.diagnostics import gradient_norm_sq, l2_inner, l2_norm_sq
from fchsim.experiments import (
    BOX_TRUNCATION_CAVEAT,
    run_alpha_sweep,
    run_decay_experiment,
    run_scaled_family,
    run_simulate,
)
from fchsim.fields import ch_nonlinear_term
from fchsim.helmholtz import filter_identity_residual
from fchsim.integrate import SolverParams, band_random, run
from fchsim.kernels import (
    HeatKernelSpec,
    heat_kernel_values,
    integral_fractional_laplacian,
    kernel_lp_norm_slope,
    mild_solution_picard,
    predicted_lp_slope,
)
from fchsim.spectral import (
    PHYSICAL,
    SPECTRAL,
    SpectralGrid,
    VectorField,
    fractional_laplacian,
    to_spectral,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
TWO_PI = 2.0 * np.pi


def timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("decay_full")
    config = load_experiment_config(
        "decay", path=str(CONFIGS / "decay_2d.ini"), out=str(out))
    return timed(lambda: run_decay_experiment(config))


@pytest.fixture(scope="module")
def family_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("family_full")
    config = load_experiment_config(
        "scaled-family", path=str(CONFIGS / "scaled_family_2d.ini"),
        out=str(out))
    return timed(lambda: run_scaled_family(config))


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep_full")
    config = load_experiment_config(
        "alpha-sweep", path=str(CONFIGS / "alpha_sweep_2d.ini"),
        out=str(out))
    return timed(lambda: run_alpha_sweep(config))


def assertion_map(report):
    return {entry["name"]: entry for entry in report["assertions"]}


def test_01_fractional_symbol_exact_on_single_modes():
    def worst_residual(grid, index):
        out = 0.0
        for beta in (0.25, 0.5, 0.75, 1.0):
            data = VectorField.zeros(grid, SPECTRAL).data
            data[(0,) + index] = 1.0 + 0.5j
            applied = fractional_laplacian(
                VectorField(grid, data, SPECTRAL), beta)
            expected = grid.k_squared[index] ** beta * data[(0,) + index]
            assert np.count_nonzero(applied.data) <= 1
            out = max(out, abs(applied.data[(0,) + index] - expected)
                      / abs(expected))
        return out

    (worst2, worst3), elapsed = timed(lambda: (
        max(worst_residual(SpectralGrid(2, 64, TWO_PI), idx)
            for idx in ((1, 0), (3, 5), (54, 7), (0, 12))),
        worst_residual(SpectralGrid(3, 16, TWO_PI), (2, 3, 4))))
    assert max(worst2, worst3) <= 1e-12
    assert elapsed < 1.0


def test_02_filter_identity_on_random_fields():
    grid = SpectralGrid(2, 64, TWO_PI)
    rng = np.random.default_rng(12)

    def worst():
        out = 0.0
        for _ in range(100):
            noise = VectorField(grid, rng.standard_normal((2,) + grid.shape),
                                PHYSICAL)
            vh = to_spectral(noise)
            for alpha in (0.1, 1.0):
                for m in (0, 1, 2):
                    out = max(out, filter_identity_residual(vh, alpha, m))
        return out

    residual, elapsed = timed(worst)
    assert residual <= 1e-12
    assert elapsed < 10.0


def test_03_advection_pairing_orthogonal_to_advecting_field():
    grid = SpectralGrid(2, 64, TWO_PI)

    def worst():
        out = 0.0
        for j in range(100):
            u = band_random(grid, seed=3000 + 2 * j, band=(1.0, 16.0))
            v = band_random(grid, seed=3001 + 2 * j, band=(1.0, 16.0))
            pairing = l2_inner(ch_nonlinear_term(u, v), to_spectral(u))
            h1 = np.sqrt(l2_norm_sq(v) + gradient_norm_sq(v))
            out = max(out, abs(pairing) / (l2_norm_sq(u) * h1))
        return out

    ratio, elapsed = timed(worst)
    assert ratio <= 1e-9
    assert elapsed < 30.0


def test_04_discrete_energy_law_order_and_drift():
    grid = SpectralGrid(2, 64, TWO_PI)
    v0 = band_random(grid, 8, band=(1.0, 5.0), amplitude=1.0)

    def residuals(dt):
        params = SolverParams(nu=0.05, beta=0.75, alpha=0.5, dt=dt, t_end=1.0)
        rec = run(v0, params, stride=1).records
        t = np.array([r.t for r in rec])
        E = np.array([r.E for r in rec])
        D = np.array([r.D for r in rec])
        step = max(abs(b - a + 2.0 * params.nu * dt * 0.5 * (da + db))
                   for a, b, da, db in zip(E, E[1:], D, D[1:]))
        diss = np.concatenate(
            [[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
        drift = float(np.max(np.abs(E - (E[0] - 2.0 * params.nu * diss))))
        return step, drift, E[0]

    dts = (1e-2, 5e-3, 2.5e-3)
    rows, elapsed = timed(lambda: [residuals(dt) for dt in dts])
    steps = [row[0] for row in rows]
    order = np.polyfit(np.log(dts), np.log(steps), 1)[0]
    assert order >= 2.0, f"per-step residual order {order:.3f}"
    drift, E0 = rows[-1][1], rows[-1][2]
    assert drift <= 1e-6 * E0, f"drift {drift:.3e} vs E(0) = {E0:.4f}"
    assert elapsed < 120.0


def test_05_stepper_matches_picard_fixed_point():
    grid = SpectralGrid(2, 32, TWO_PI)
    v0 = band_random(grid, seed=5, band=(2.0, 6.0), amplitude=0.8)
    params = SolverParams(nu=0.05, beta=0.75, alpha=1.0, dt=1e-3, t_end=0.01)

    def difference():
        stepped = run(v0, params, stride=10).state.v.field
        mild = mild_solution_picard(v0, params, params.t_end)
        return np.sqrt(l2_norm_sq(stepped - mild) / l2_norm_sq(stepped))

    rel, elapsed = timed(difference)
    assert rel <= 1e-6
    assert elapsed < 60.0


def test_06_energy_decay_rate_on_the_large_box(decay_run):
    report, elapsed = decay_run
    assert elapsed <= 900.0, f"decay run took {elapsed:.0f} s"
    fit = report["fits"]["E"]
    assert -2.5 <= fit["exponent"] <= -1.5, f"E exponent {fit['exponent']:.4f}"
    assert fit["r_squared"] >= 0.98, f"r^2 = {fit['r_squared']:.4f}"
    assert BOX_TRUNCATION_CAVEAT in report["caveats"]
    assert report["passed"] is True


def test_07_gradient_decay_rate_on_the_large_box(decay_run):
    report, _ = decay_run
    fit = report["fits"]["gradv_l2"]
    assert -5.0 <= fit["exponent"] <= -3.0, \
        f"gradient exponent {fit['exponent']:.4f}"
    assert fit["r_squared"] >= 0.95, f"r^2 = {fit['r_squared']:.4f}"


def test_08_scaled_family_identities_and_energy_bound(family_run):
    report, elapsed = family_run
    assert elapsed <= 600.0, f"family run took {elapsed:.0f} s"
    entries = assertion_map(report)
    for name in ("family L2 norm invariant",
                 "family gradient scales by eps",
                 "energy lower bound with one fitted rate constant",
                 "half-life grows as eps shrinks"):
        assert entries[name]["passed"], entries[name]["detail"]
    assert report["passed"] is True
    assert [m["eps"] for m in report["members"]] == [1.0, 0.5, 0.25]
    assert report["config"]["solver"]["t_end"] == 20


def test_09_vanishing_filter_width_convergence(sweep_run):
    report, elapsed = sweep_run
    assert elapsed <= 600.0, f"sweep took {elapsed:.0f} s"
    dists = [m["max_distance"] for m in report["members"]]
    assert all(b <= a for a, b in zip(dists, dists[1:])), dists
    floor = report["exponents"]["order_floor"]
    assert report["fitted_order"] >= 1.5
    assert report["fitted_order"] >= floor
    assert report["passed"] is True


def test_10_heat_kernel_scaling_law():
    def worst():
        out = 0.0
        radii = np.linspace(0.0, 5.0, 51)
        for gamma0 in (1.0, 1.5, 2.0):
            spec = HeatKernelSpec(gamma0, 2)
            scaled = 2.0 ** (-2.0 / gamma0) * heat_kernel_values(
                spec, 1.0, 2.0 ** (-1.0 / gamma0) * radii)
            out = max(out, float(np.max(np.abs(
                heat_kernel_values(spec, 2.0, radii) - scaled))))
        return out

    deviation, elapsed = timed(worst)
    assert deviation <= 1e-10
    assert elapsed < 60.0


def test_11_kernel_lp_norm_decay_slopes():
    spec = HeatKernelSpec(1.5, 2)  # gamma0 = 2 beta with beta = 0.75
    times = [0.25, 0.7, 2.5]

    def all_slopes():
        out = []
        for k, a in ((0, 0.0), (1, 0.0), (0, 0.75)):
            for p in (1, 2, np.inf):
                out.append((k, a, p, predicted_lp_slope(spec, k, a, p),
                            kernel_lp_norm_slope(spec, k, a, p, times)))
        return out

    rows, elapsed = timed(all_slopes)
    for k, a, p, predicted, fitted in rows:
        if predicted == 0.0:
            # mass is conserved, so the predicted slope is exactly zero and
            # the gate is a roundoff allowance rather than a relative band
            assert abs(fitted) <= 1e-8, f"(k={k}, a={a}, p={p}): {fitted:.2e}"
        else:
            assert abs(fitted - predicted) <= 0.02 * abs(predicted), \
                f"(k={k}, a={a}, p={p}): {fitted:.4f} vs {predicted:.4f}"
    assert elapsed < 120.0


def test_12_integral_and_multiplier_routes_agree():
    step = 0.01
    xs = np.arange(-14.0, 14.0 + step / 2.0, step)
    ys = np.exp(-xs ** 2 / 2.0)

    def multiplier_route(x):
        value, _ = quad(
            lambda xi: xi * np.exp(-xi ** 2 / 2.0) * np.cos(x * xi),
            0.0, 40.0, epsabs=1e-12, epsrel=1e-10, limit=200)
        return np.sqrt(2.0 / np.pi) * value

    def worst():
        out = 0.0
        for x in (0.0, 0.4, 0.7, 1.5, 1.9, 2.6):
            mine = integral_fractional_laplacian(xs, ys, 0.5, x)
            ref = multiplier_route(x)
            out = max(out, abs(mine - ref) / abs(ref))
        return out

    rel, elapsed = timed(worst)
    assert rel <= 1e-3
    assert elapsed < 60.0


def test_13_determinism_and_restart(tmp_path):
    start = time.perf_counter()
    streams = []
    for name in ("a", "b"):
        config = ExperimentConfig(
            scenario="simulate", output_dir=str(tmp_path / name),
            grid=(2, 64, TWO_PI),
            params=SolverParams(nu=0.05, beta=0.75, alpha=0.6, dt=2e-3,
                                t_end=0.5),
            datum={"kind": "band-random", "seed": 11}, sample_stride=5)
        run_simulate(config)
        streams.append((tmp_path / name / "energy.csv").read_bytes())
    assert streams[0] == streams[1]

    grid = SpectralGrid(2, 64, TWO_PI)
    params = SolverParams(nu=0.05, beta=0.75, alpha=0.6, dt=2e-3, t_end=0.4)
    v0 = band_random(grid, seed=9, band=(2.0, 8.0), amplitude=0.9)
    first = run(v0, params)
    path = str(tmp_path / "mid.chk")
    save_checkpoint(first.state, params, path)
    loaded, _ = load_checkpoint(path)
    resumed = run(loaded.v, dataclasses.replace(params, t_end=0.2))
    whole = run(v0, dataclasses.replace(params, t_end=0.6))
    diff = np.max(np.abs(resumed.state.v.field.data
                         - whole.state.v.field.data))
    assert diff <= 1e-13
    assert time.perf_counter() - start < 120.0
