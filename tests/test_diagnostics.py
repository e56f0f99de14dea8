"""The energy ledger against dense full-spectrum sums, the line fit, and the
decay report's Fourier-amplitude bound and Cesaro-mean checks, on
closed-form record series."""

import ast
from pathlib import Path

import numpy as np
import pytest

import fchsim
from fchsim.diagnostics import (
    EnergyRecord, fit_decay, fit_line, fourier_amplitude_bound_check,
    gradient_norm_sq, l2_inner, l2_norm_sq, linear_decay_curve, record_energy,
    time_average_decay_check,
)
from fchsim.fields import ProjectedField
from fchsim.integrate import SimState, SolverParams, band_random, prepare_initial_state
from fchsim.spectral import (
    SPECTRAL, SpectralGrid, VectorField, to_physical, to_spectral)

from conftest import dense_lattice, random_field
from oracles import hermitian_spectrum

T = np.linspace(0.0, 10.0, 401)
H = T[1] - T[0]


def records(v_l2, gradv_l2=None, fhat_max=None):
    """EnergyRecords on T from functions of t; E and D are not read."""
    def column(fn):
        return [0.0] * len(T) if fn is None else [float(fn(t)) for t in T]

    return [EnergyRecord(t=float(t), E=0.0, D=0.0, v_l2=v, gradv_l2=g, fhat_max=f)
            for t, v, g, f in zip(T, column(v_l2), column(gradv_l2),
                                  column(fhat_max))]


def test_cesaro_mean_of_an_algebraic_decay():
    # |v| = (1+t)^-1, so (1/t) int_0^t |v| = log(1+t) / t, which decreases;
    # the trapezoid error of int_0^t f is at most t h^2/12 max|f''| = t h^2/6
    check = time_average_decay_check(records(lambda t: (1.0 + t) ** -2))
    mean = np.array(check["cesaro_mean"])
    exact = np.concatenate(([1.0], np.log1p(T[1:]) / T[1:]))
    assert np.max(np.abs(mean - exact)) <= H ** 2 / 6
    assert check["t"] == T.tolist()
    assert check["decreasing_final_half"] is True
    assert check["final_mean"] == mean[-1]
    assert check["final_mean"] == pytest.approx(np.log(11.0) / 10.0, abs=H ** 2 / 6)


def test_cesaro_mean_of_a_growing_series_is_not_decreasing():
    # |v| = 1 + t is integrated exactly: the mean is 1 + t/2
    check = time_average_decay_check(records(lambda t: (1.0 + t) ** 2))
    assert np.allclose(check["cesaro_mean"], 1.0 + T / 2, rtol=1e-13, atol=0)
    assert check["decreasing_final_half"] is False


def amplitude_records(ratio):
    # |v|^2 = |grad v|^2 = 1 integrate exactly to t, so the bound's
    # denominator is 1 + sqrt(t) sqrt(t) = 1 + t and fhat = ratio (1 + t)
    return records(lambda t: 1.0, lambda t: 1.0,
                   lambda t: ratio(t) * (1.0 + t))


def test_amplitude_ratio_of_a_bounded_series():
    check = fourier_amplitude_bound_check(amplitude_records(lambda t: 0.5))
    assert np.allclose(check["ratio"], 0.5, rtol=1e-13, atol=0)
    assert check["max_ratio"] == pytest.approx(0.5, rel=1e-13)
    assert check["t"] == T.tolist()
    assert check["bounded"] is True


@pytest.mark.parametrize("tail, bounded", [(1.01, True), (1.03, False)])
def test_amplitude_ratio_growing_past_its_head_maximum(tail, bounded):
    # the final quarter may exceed the head's maximum by 2% at most
    start = T[(3 * len(T)) // 4]
    check = fourier_amplitude_bound_check(
        amplitude_records(lambda t: tail if t >= start else 1.0))
    assert check["max_ratio"] == pytest.approx(tail, rel=1e-13)
    assert check["bounded"] is bounded


def test_amplitude_ratio_of_a_blowing_up_series_is_unbounded():
    check = fourier_amplitude_bound_check(amplitude_records(lambda t: 1.0 + t))
    assert check["bounded"] is False


def _spectrum(dim, n, data):
    """A Hermitian spectrum: the dealiased, projected band-random datum, or
    the spectrum of a random real field, which fills every mode."""
    grid = SpectralGrid(dim, n, 2 * np.pi)
    if data == "dealiased":
        params = SolverParams(nu=0.1, beta=0.75, alpha=0.5, dt=0.01, t_end=0.1)
        v0 = band_random(grid, seed=31, band=(1.0, 6.0))
        spectrum = prepare_initial_state(v0, params).v.field.data
    else:
        spectrum = to_spectral(random_field(grid, seed=32)).data
    assert np.any(spectrum[..., n // 2]) == (data == "every-mode")
    return grid, spectrum


def _relative(got, expected):
    return abs(got - expected) / abs(expected)


GRIDS = pytest.mark.parametrize("dim, n", [(2, 32), (2, 48), (3, 16), (3, 24)])
DATA = pytest.mark.parametrize("data", ["dealiased", "every-mode"])


@GRIDS
@DATA
def test_ledger_is_the_full_parseval_sum(dim, n, data):
    # record_energy, linear_decay_curve, gradient_norm_sq and l2_inner sum
    # the rfftn layout, interior columns counted twice; the oracle sums
    # every mode of the mirrored full spectrum
    grid, spectrum = _spectrum(dim, n, data)
    k_squared = np.sum(dense_lattice(grid)[1] ** 2, axis=0)
    full = hermitian_spectrum(spectrum, tuple(range(1, dim + 1)))
    power = np.sum(np.abs(full) ** 2, axis=0)
    field = VectorField(grid, spectrum, SPECTRAL)
    for alpha in (0.0, 0.3):
        params = SolverParams(nu=0.1, beta=0.75, alpha=alpha, dt=0.01, t_end=1.0)
        symbol = np.where(k_squared > 0, k_squared, 1.0) ** params.beta
        symbol[k_squared == 0] = 0.0
        helmholtz = 1.0 + alpha ** 2 * k_squared
        times = (0.0, 0.5)
        curves = linear_decay_curve(field, params, times)
        for j, t in enumerate(times):
            p = power * np.exp(-2.0 * params.nu * symbol * t)
            expected = {name: np.sum(w * p) * grid.mode_weight for name, w in (
                ("E", 1.0 / helmholtz), ("D", symbol / helmholtz),
                ("v_l2", 1.0), ("gradv_l2", k_squared))}
            if t == 0.0:
                record = record_energy(SimState(0.0, ProjectedField(field)), params)
                for name, value in expected.items():
                    assert _relative(getattr(record, name), value) <= 1e-14, name
                assert record.fhat_max == np.max(np.sqrt(power)) * grid.cell_volume
            for name in ("E", "v_l2", "gradv_l2"):
                assert _relative(curves[name][j], expected[name]) <= 1e-14, (name, t)
    for order in (0, 1, 2):
        expected = np.sum(k_squared ** order * power) * grid.mode_weight
        assert _relative(gradient_norm_sq(field, order), expected) <= 1e-14, order
    assert _relative(l2_norm_sq(field), np.sum(power) * grid.mode_weight) <= 1e-14
    other = to_spectral(random_field(grid, seed=33))
    expected = np.sum(full * np.conj(hermitian_spectrum(other.data, range(1, dim + 1)))).real
    assert _relative(l2_inner(field, other), expected * grid.mode_weight) <= 1e-13
    assert _relative(l2_inner(field, other),
                     l2_inner(to_physical(field), to_physical(other))) <= 1e-13


def test_fit_line_recovers_a_line_and_matches_least_squares():
    x = np.log1p(np.linspace(5.0, 90.0, 40))
    assert fit_line(x, -2.25 * x + 0.75) == pytest.approx((-2.25, 0.75), rel=1e-13)
    y = np.sin(3.0 * x) + 0.4 * x
    design = np.stack([x, np.ones_like(x)], axis=1)
    expected = np.linalg.lstsq(design, y, rcond=None)[0]
    assert fit_line(x, y) == pytest.approx(tuple(expected), rel=1e-12)
    for bad in (([1.0], [2.0]), ([1.0, 2.0], [1.0]), (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError):
            fit_line(*bad)


def test_fit_decay_of_an_empty_series_counts_zero_samples():
    # a run that ends at t = 0 leaves nothing with t > 0 to fit
    with pytest.raises(ValueError, match="got 0"):
        fit_decay([], (0.5, 2.0))


_LINEAR_ALGEBRA = {"dot", "matmul", "inner", "tensordot", "vdot", "einsum",
                   "linalg", "polyfit", "lstsq"}


def _blas_references(source):
    """Line numbers at which `source` may reach BLAS or LAPACK: the @
    operator, and any name, attribute, imported module or name, or string
    constant (as in getattr(np, "dot")) spelled like one of their numpy
    entry points."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _LINEAR_ALGEBRA:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _LINEAR_ALGEBRA:
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in _LINEAR_ALGEBRA:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            names = {alias.name for alias in node.names}
            parts = {part for m in modules for part in m.split(".")}
            if (parts | names) & _LINEAR_ALGEBRA:
                lines.append(node.lineno)
    return lines


def test_no_blas_or_lapack_in_the_package():
    # BLAS and LAPACK sum in an order that follows their thread count, so a
    # report that went through them would change with the host's CPUs
    for leak in ("y = a @ b", "acc @= m", "s = np.dot(a, b)", "m = numpy.matmul(a, b)",
                 "q = x.dot(y)", "np.inner(a, b)", "np.tensordot(a, b, 1)",
                 "np.vdot(a, b)", "np.einsum('i,i', a, b)", "np.linalg.norm(a)",
                 "np.polyfit(x, y, 1)", "np.linalg.lstsq(a, b)",
                 "import numpy.linalg", "from numpy import linalg",
                 "from scipy.linalg import lstsq", "from numpy import dot as d",
                 "f = getattr(np, 'einsum')"):
        assert _blas_references(leak), leak
    assert _blas_references("l2_inner(a, b)\nnp.outer(a, b)\ndot_product = 1") == []
    package = Path(fchsim.__file__).parent
    found = {path.name: _blas_references(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(found) >= 10                       # the scan sees the package
    assert {name: lines for name, lines in found.items() if lines} == {}
