"""Oracle-module tests: kernels, constants, singular integrals, mild form."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import j0, j1

from fchsim import integrate
from fchsim.integrate import SolverParams, band_random, run
from fchsim.kernels import (
    AccuracyError,
    HeatKernelSpec,
    gagliardo_seminorm_direct,
    gagliardo_seminorm_fourier,
    heat_kernel_values,
    integral_fractional_laplacian,
    kernel_lp_norm,
    kernel_lp_norm_slope,
    mild_solution_picard,
    normalization_constant,
    predicted_lp_slope,
)
from fchsim.spectral import SpectralGrid, VectorField, to_physical


class TestHeatKernel:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HeatKernelSpec(0.0, 2)
        with pytest.raises(ValueError):
            HeatKernelSpec(2.5, 2)
        with pytest.raises(ValueError):
            HeatKernelSpec(1.5, 4)
        with pytest.raises(ValueError):
            heat_kernel_values(HeatKernelSpec(1.5, 2), -1.0, [0.0])
        with pytest.raises(ValueError):
            heat_kernel_values(HeatKernelSpec(1.5, 2), 0.0, [0.0])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_closed_form(self, dim):
        spec = HeatKernelSpec(2.0, dim)
        t = 0.7
        radii = np.array([0.0, 0.3, 1.0, 2.5, 4.0])
        values = heat_kernel_values(spec, t, radii)
        exact = (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-(radii**2) / (4.0 * t))
        assert np.max(np.abs(values - exact) / exact) <= 1e-8

    def test_poisson_closed_form(self):
        # gamma0 = 1, n = 2: the Poisson kernel t / (2 pi (t^2 + r^2)^(3/2)).
        spec = HeatKernelSpec(1.0, 2)
        t = 1.3
        radii = np.array([0.0, 0.5, 1.0, 3.0, 8.0])
        values = heat_kernel_values(spec, t, radii)
        exact = t / (2.0 * np.pi * (t**2 + radii**2) ** 1.5)
        assert np.max(np.abs(values - exact) / exact) <= 1e-8

    @pytest.mark.parametrize("gamma0", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_scaling_law(self, gamma0, t):
        spec = HeatKernelSpec(gamma0, 2)
        radii = np.array([0.0, 0.2, 0.7, 1.5, 3.0, 6.0])
        direct = heat_kernel_values(spec, t, radii)
        factor = t ** (-2.0 / gamma0)
        rescaled = factor * heat_kernel_values(
            spec, 1.0, t ** (-1.0 / gamma0) * radii
        )
        assert np.max(np.abs(direct - rescaled)) <= 1e-10

    def test_origin_specialization(self):
        spec = HeatKernelSpec(1.5, 3)
        t = 2.0
        at_t = heat_kernel_values(spec, t, [0.0])[0]
        at_one = heat_kernel_values(spec, 1.0, [0.0])[0]
        assert abs(at_t - t ** (-3.0 / 1.5) * at_one) <= 1e-12 * at_one

    @pytest.mark.parametrize("gamma0", [0.3, 0.005])
    def test_small_order_refused_before_allocating(self, gamma0):
        # 9.4e8 nodes at gamma0 = 0.3; at 0.005 the cutoff overflows a float
        with pytest.raises(AccuracyError, match="over the cap"):
            heat_kernel_values(HeatKernelSpec(gamma0, 2), 0.5, [0.0, 6.0])

    def test_semigroup_fourier_side(self):
        # The semigroup identity lives on the symbol; no quadrature involved.
        xi = np.linspace(0.0, 6.0, 301)
        for gamma0 in (1.0, 1.5, 2.0):
            sym = lambda t: np.exp(-t * xi**gamma0)
            product = sym(0.4) * sym(1.1)
            combined = sym(1.5)
            assert np.max(np.abs(product - combined)) <= 1e-13


class TestKernelLpNorms:
    def test_gaussian_norms(self):
        spec = HeatKernelSpec(2.0, 2)
        t = 0.8
        assert abs(kernel_lp_norm(spec, t, 1) - 1.0) <= 1e-8
        assert abs(kernel_lp_norm(spec, t, 2) - (8.0 * np.pi * t) ** -0.5) <= 1e-8
        assert abs(kernel_lp_norm(spec, t, np.inf) - 1.0 / (4.0 * np.pi * t)) <= 1e-12

    def test_mass_is_conserved_for_fractional_order(self):
        # The symbol equals 1 at xi = 0, so the kernel integrates to 1 for
        # every gamma0, not just the Gaussian case.  The r^(-n-gamma0) far
        # tail is extrapolated from a fit, which caps absolute accuracy here;
        # the slope tests below are immune since the tail scales with t.
        spec = HeatKernelSpec(1.5, 2)
        for t in (0.3, 2.0):
            assert abs(kernel_lp_norm(spec, t, 1) - 1.0) <= 1e-3

    def test_validation(self):
        spec = HeatKernelSpec(1.5, 2)
        with pytest.raises(ValueError):
            kernel_lp_norm(spec, -1.0, 2)
        with pytest.raises(ValueError):
            kernel_lp_norm(spec, 1.0, 0.5)
        with pytest.raises(ValueError):
            kernel_lp_norm(spec, 1.0, 2, k=2)
        with pytest.raises(ValueError):
            kernel_lp_norm(spec, 1.0, 2, a=-0.5)

    def test_slope_mass_conservation(self):
        spec = HeatKernelSpec(1.5, 2)
        slope = kernel_lp_norm_slope(spec, 0, 0.0, 1, [0.25, 0.7, 2.5])
        assert abs(slope) <= 1e-8

    def test_slope_gaussian_sup(self):
        spec = HeatKernelSpec(2.0, 2)
        slope = kernel_lp_norm_slope(spec, 0, 0.0, np.inf, [0.25, 0.7, 2.5])
        assert abs(slope - (-1.0)) <= 0.02

    def test_slope_gradient_case(self):
        spec = HeatKernelSpec(1.5, 2)
        slope = kernel_lp_norm_slope(spec, 1, 0.0, 2, [0.25, 0.7, 2.5])
        predicted = predicted_lp_slope(spec, 1, 0.0, 2)
        assert predicted == pytest.approx(-4.0 / 3.0)
        assert abs(slope - predicted) <= 0.02 * abs(predicted)

    def test_slope_validation(self):
        spec = HeatKernelSpec(1.5, 2)
        with pytest.raises(ValueError):
            kernel_lp_norm_slope(spec, 0, 0.0, 1, [0.5, 5.0])
        with pytest.raises(ValueError):
            kernel_lp_norm_slope(spec, 0, 0.0, 1, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            kernel_lp_norm_slope(spec, 0, 0.0, 1, [-1.0, 1.0, 10.0])


class TestNormalizationConstant:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_gamma_closed_form(self, n, beta):
        # Independent route to the package's Gamma closed form: after angular
        # reduction C(n, beta) = 1 / (|S^(n-1)| * integral of
        # (1 - w(r)) / r^(1 + 2 beta) over r > 0), w = cos, J0 or sinc.  A
        # trapezoid on a geometric mesh that resolves w, the Taylor series
        # of 1 - w below the mesh, and beyond it the constant's tail minus
        # the leading term of w's oscillatory tail.
        series, weight, osc_tail, surface = {
            1: ((1 / 2, -1 / 24, 1 / 720), np.cos,
                lambda r, mu: -np.sin(r) * r**-mu, 2.0),
            2: ((1 / 4, -1 / 64, 1 / 2304), j0,
                lambda r, mu: -j1(r) * r**-mu, 2.0 * np.pi),
            3: ((1 / 6, -1 / 120, 1 / 5040), lambda r: np.sinc(r / np.pi),
                lambda r, mu: np.cos(r) * r ** (-mu - 1.0), 4.0 * np.pi),
        }[n]
        mu = 1.0 + 2.0 * beta
        r = np.geomspace(1e-2, 1e4, 1_000_001)
        head = sum(c * r[0] ** (2 * m - 2.0 * beta) / (2 * m - 2.0 * beta)
                   for m, c in enumerate(series, start=1))
        body = np.trapezoid((1.0 - weight(r)) / r**mu, r)
        tail = r[-1] ** (-2.0 * beta) / (2.0 * beta) - osc_tail(r[-1], mu)
        brute = 1.0 / (surface * (head + body + tail))
        mine = normalization_constant(n, beta)
        assert mine > 0.0
        assert abs(mine - brute) / brute <= 1e-8

    def test_one_dimensional_half_order_is_one_over_pi(self):
        assert abs(normalization_constant(1, 0.5) - 1.0 / np.pi) <= 1e-12

    def test_brute_force_refinement_oracle(self):
        # Independent route: plain trapezoid of 2 sin^2(r/2) / r^2 on a dense
        # geometric mesh, with analytic head and tail bounds.
        r = np.geomspace(1e-10, 1e7, 2_000_001)
        integrand = 2.0 * np.sin(0.5 * r) ** 2 / r**2
        brute = 2.0 * np.trapezoid(integrand, r)
        brute += 2.0 * (r[0] / 2.0)       # head: integrand ~ 1/2
        brute += 2.0 * 2.0 / r[-1]        # tail bound scale: |1 - cos| <= 2
        coarse = 1.0 / brute
        assert abs(coarse - normalization_constant(1, 0.5)) <= 1e-4

    def test_endpoint_divergence(self):
        for beta in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                normalization_constant(2, beta)
        with pytest.raises(ValueError):
            normalization_constant(4, 0.5)


class TestIntegralFractionalLaplacian:
    def _gaussian_mesh(self, step=0.01, half_width=14.0):
        xs = np.arange(-half_width, half_width + step / 2.0, step)
        return xs, np.exp(-(xs**2) / 2.0)

    def test_constant_gives_zero(self):
        xs = np.linspace(-10.0, 10.0, 2001)
        ys = np.full_like(xs, 3.7)
        assert integral_fractional_laplacian(xs, ys, 0.5, 0.3) == 0.0

    @pytest.mark.parametrize("point", [0.0, 0.7, 1.5, -2.2])
    def test_gaussian_matches_fourier_route(self, point):
        xs, ys = self._gaussian_mesh()
        mine = integral_fractional_laplacian(xs, ys, 0.5, point)

        def fourier_side(x):
            val = quad(
                lambda xi: xi * np.exp(-(xi**2) / 2.0) * np.cos(x * xi),
                0.0,
                np.inf,
                epsabs=1e-13,
                limit=200,
            )[0]
            return np.sqrt(2.0 * np.pi) / np.pi * val

        ref = fourier_side(point)
        assert abs(mine - ref) / abs(ref) <= 1e-3

    def test_linearity_over_shifted_gaussians(self):
        xs = np.linspace(-16.0, 16.0, 3201)
        f = np.exp(-(xs**2) / 2.0)
        g = np.exp(-((xs - 1.2) ** 2) / 1.5)
        combo = 0.7 * f - 1.9 * g
        at = 0.4
        separate = 0.7 * integral_fractional_laplacian(
            xs, f, 0.6, at
        ) - 1.9 * integral_fractional_laplacian(xs, g, 0.6, at)
        together = integral_fractional_laplacian(xs, combo, 0.6, at)
        scale = max(abs(separate), abs(together))
        assert abs(separate - together) <= 1e-3 * scale

    def test_coarse_mesh_raises(self):
        xs = np.linspace(-14.0, 14.0, 71)
        ys = np.exp(-(xs**2) / 2.0)
        with pytest.raises(AccuracyError):
            integral_fractional_laplacian(xs, ys, 0.5, 0.0)

    def test_validation(self):
        xs, ys = self._gaussian_mesh(step=0.05)
        with pytest.raises(ValueError):
            integral_fractional_laplacian(xs, ys, 1.5, 0.0)
        with pytest.raises(ValueError):
            integral_fractional_laplacian(xs, ys, 0.5, 13.0)  # edge-adjacent
        warped = xs + 0.01 * np.sin(xs)
        with pytest.raises(ValueError):
            integral_fractional_laplacian(warped, ys, 0.5, 0.0)
        with pytest.raises(ValueError):
            integral_fractional_laplacian(xs[:40], ys[:40], 0.5, 0.0)


class TestGagliardoSeminorm:
    def test_constant_is_zero(self):
        f = np.full(256, 2.5)
        assert gagliardo_seminorm_fourier(f, 0.5, box_length=10.0) == 0.0

    def test_single_mode_closed_form(self):
        # a cos(2 x1) on the periodic box: the seminorm squared is
        # 2/C * L^n * a^2/2 * |k|^(2 beta).
        grid = SpectralGrid(2, 32, 2.0 * np.pi)
        a, beta = 0.8, 0.5
        x = grid.coordinate_mesh()
        mine = gagliardo_seminorm_fourier(a * np.cos(2.0 * x[0]), beta,
                                          grid.box_length)
        constant = normalization_constant(2, beta)
        expected = np.sqrt(
            2.0 / constant * grid.box_length**2 * a**2 / 2.0 * 2.0 ** (2.0 * beta)
        )
        assert abs(mine - expected) / expected <= 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_fourier_vs_direct_gaussian(self, beta):
        box, count = 60.0, 2048
        xg = np.arange(count) * box / count - box / 2.0
        fourier = gagliardo_seminorm_fourier(
            np.exp(-(xg**2) / 2.0), beta, box_length=box
        )
        xs = np.linspace(-30.0, 30.0, 6001)
        direct = gagliardo_seminorm_direct(xs, np.exp(-(xs**2) / 2.0), beta)
        assert abs(fourier - direct) / fourier <= 1e-2

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_direct_matches_continuum_closed_form(self, beta):
        # For exp(-x^2/2) the seminorm squared is 2 Gamma(beta + 1/2) / C.
        xs = np.linspace(-30.0, 30.0, 6001)
        direct = gagliardo_seminorm_direct(xs, np.exp(-(xs**2) / 2.0), beta)
        exact = np.sqrt(
            2.0 * gamma_fn(beta + 0.5) / normalization_constant(1, beta)
        )
        assert abs(direct - exact) / exact <= 1e-2

    def test_validation(self):
        f = np.zeros(128)
        with pytest.raises(TypeError):
            gagliardo_seminorm_fourier(f, 0.5)  # missing box_length
        with pytest.raises(ValueError):
            gagliardo_seminorm_fourier(f, 1.0, box_length=10.0)
        with pytest.raises(ValueError):
            gagliardo_seminorm_direct(np.linspace(0, 1, 20), np.zeros(20), 0.5)


_MESH = np.linspace(-12.0, 12.0, 481)
_SAMPLES = np.exp(-(_MESH**2) / 2.0)


@pytest.mark.parametrize("oracle", [
    lambda xs, ys, beta: integral_fractional_laplacian(xs, ys, beta, 0.0),
    gagliardo_seminorm_direct,
], ids=["integral_fractional_laplacian", "gagliardo_seminorm_direct"])
@pytest.mark.parametrize("xs, ys, beta, message", [
    (_MESH[:64], _SAMPLES[:64], 0.5, "at least 65 points"),
    (_MESH, _SAMPLES[:-1], 0.5, "matching 1D sample arrays"),
    (_MESH + 0.01 * np.sin(_MESH), _SAMPLES, 0.5, "uniform mesh"),
    (_MESH[::-1], _SAMPLES, 0.5, "uniform mesh"),
    (_MESH, _SAMPLES, 0.0, r"must lie in \(0, 1\)"),
    (_MESH, _SAMPLES, 1.0, r"must lie in \(0, 1\)"),
    (_MESH, _SAMPLES, -0.5, r"must lie in \(0, 1\)"),
], ids=["short", "unequal", "non-uniform", "decreasing", "beta-0", "beta-1",
        "beta-negative"])
def test_sampled_oracles_reject_bad_input(oracle, xs, ys, beta, message):
    with pytest.raises(ValueError, match=message):
        oracle(xs, ys, beta)


class TestMildSolutionPicard:
    @pytest.mark.parametrize("alpha, seed, nodes", [(1.0, 11, 25), (0.0, 12, 33)],
                             ids=("alpha=1", "alpha=0"))
    def test_matches_stepper(self, alpha, seed, nodes):
        grid = SpectralGrid(2, 32, 2.0 * np.pi)
        v0 = band_random(grid, seed=seed, band=(2.0, 5.0), amplitude=0.8)
        params = SolverParams(nu=0.05, beta=0.75, alpha=alpha, dt=1e-4, t_end=0.01)
        summary = run(v0, params)
        picard = mild_solution_picard(v0, params, 0.01, nodes=nodes)
        a = summary.state.v.field.data
        rel = np.sqrt(
            np.sum(np.abs(a - picard.data) ** 2) / np.sum(np.abs(a) ** 2)
        )
        assert rel <= 1e-6

    def test_iterates_go_to_the_right_hand_side_as_halves(self, monkeypatch):
        # the right-hand side is handed each iterate in rfftn layout and
        # pads it itself, as the stepper's stage arguments are
        widths = []
        rhs_filtered = integrate._rhs_filtered

        def spied(*args):
            rhs = rhs_filtered(*args)

            def traced(handed):
                widths.append(handed[0].shape[-1])
                return rhs(handed)
            return traced

        monkeypatch.setattr(integrate, "_rhs_filtered", spied)
        grid = SpectralGrid(2, 16, 2.0 * np.pi)
        v0 = band_random(grid, seed=4, band=(2.0, 5.0), amplitude=0.5)
        params = SolverParams(nu=0.1, beta=0.75, alpha=0.5, dt=1e-3, t_end=0.01)
        mild_solution_picard(v0, params, 0.01, nodes=5)
        assert widths and set(widths) == {16 // 2 + 1}

    def test_zero_datum_stays_zero(self):
        grid = SpectralGrid(2, 16, 2.0 * np.pi)
        v0 = VectorField.zeros(grid)
        params = SolverParams(nu=0.1, beta=0.75, alpha=0.5, dt=1e-3, t_end=0.01)
        picard = mild_solution_picard(v0, params, 0.01)
        assert np.all(picard.data == 0.0)

    def test_validation(self):
        grid = SpectralGrid(2, 16, 2.0 * np.pi)
        v0 = VectorField.zeros(grid)
        params = SolverParams(nu=0.1, beta=0.75, alpha=0.5, dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            mild_solution_picard(v0, params, -0.01)
        with pytest.raises(ValueError):
            mild_solution_picard(v0, params, 0.01, nodes=2)


def test_kernel_check_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the kernel quadrature and every fitted slope use numpy reductions, not
    # BLAS or LAPACK, whose summation order follows the thread count
    root = Path(__file__).parents[1]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fchsim.cli", "kernel-check", "--config",
             str(root / "configs" / "kernel_check.ini"), "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        report.pop("environment")
        report.pop("peak_rss_mb")
        reports.append(report)
    assert reports[0] == reports[1]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize("gamma0", ["0.3", "0.6"])
def test_small_kernel_order_fails_its_report_within_two_gib(tmp_path, gamma0):
    # gamma0 = 0.6 asked numpy for a 9.3 GiB block and 0.3 for a 7 GiB node
    # array; under a 2 GiB address-space limit both now end in a report whose
    # failed check names the kernel order.  Never run these without the limit.
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fchsim.cli", "kernel-check", "--config",
         str(root / "configs" / "kernel_check.ini"), "--out", str(tmp_path),
         "--override", f"kernel-check.gamma0={gamma0}"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert (f"[FAIL] kernel quadrature completed  (gamma0 = {gamma0}: "
            "kernel quadrature needs") in proc.stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
