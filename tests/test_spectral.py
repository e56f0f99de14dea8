import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fchsim
from fchsim.spectral import (
    SpectralGrid, VectorField, Multiplier,
    transform, to_spectral, to_physical, hermitian_defect,
    apply_multiplier, fractional_laplacian,
    gradient, divergence, laplacian, dealias, zero_mean,
    real_forward, real_inverse, validate_grid,
)
from conftest import random_field


def l2sq_physical(grid, data):
    return np.sum(np.asarray(data) ** 2) * grid.cell_volume


def l2sq_spectral(grid, data):
    return np.sum(np.abs(np.asarray(data)) ** 2) * grid.mode_weight


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(1, 16, 1.0)
    with pytest.raises(ValueError):
        SpectralGrid(2, 15, 1.0)
    with pytest.raises(ValueError):
        SpectralGrid(2, 6, 1.0)
    with pytest.raises(ValueError):
        SpectralGrid(2, 16, 0.0)
    g = SpectralGrid(3, 8, 2.0)
    assert g.shape == (8, 8, 8)


def test_grid_validation_rejects_overflowing_weights():
    # (L/N)^3 and L^3/N^6 overflow a float for L = 1e103
    with pytest.raises(ValueError, match="overflow"):
        validate_grid(3, 16, 1e103)
    with pytest.raises(ValueError, match="overflow"):
        SpectralGrid(3, 16, 1e103)
    validate_grid(2, 16, 1e103)


def test_wavenumber_lattice_symmetry():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    m = np.sort(g.mode_numbers[0][:, 0])
    # symmetric about zero except the single Nyquist index
    assert m[0] == -8
    assert np.all(m == np.arange(-8, 8))
    for mm in m:
        if mm != -8:
            assert -mm in m


def test_transform_zero_field(grid32):
    z = VectorField.zeros(grid32)
    zh = transform(z, "forward")
    assert np.all(zh.data == 0)


def test_transform_single_mode():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    x = g.coordinate_mesh()
    f = VectorField.from_components(g, [np.cos(x[0]), np.zeros(g.shape)])
    fh = transform(f, "forward")
    c = fh.data[0]
    # exactly two nonzero coefficients, at m = (+-1, 0), each N^2/2
    assert abs(c[1, 0] - 16 ** 2 / 2) < 1e-9
    assert abs(c[-1, 0] - 16 ** 2 / 2) < 1e-9
    c = c.copy()
    c[1, 0] = c[-1, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-9
    assert np.max(np.abs(fh.data[1])) < 1e-9


def test_transform_roundtrip_random(grid32):
    f = random_field(grid32, seed=7)
    back = to_physical(to_spectral(f))
    assert np.max(np.abs(back.data - f.data)) <= 1e-12


def test_parseval(grid64):
    f = random_field(grid64, seed=3)
    fh = to_spectral(f)
    a = l2sq_physical(grid64, f.data)
    b = l2sq_spectral(grid64, fh.data)
    assert abs(a - b) <= 1e-12 * a


def test_transform_direction_contract(grid32):
    f = random_field(grid32, seed=1)
    fh = to_spectral(f)
    with pytest.raises(ValueError):
        transform(fh, "forward")
    with pytest.raises(ValueError):
        transform(f, "inverse")
    with pytest.raises(ValueError):
        transform(f, "sideways")


def test_multiplier_identity(grid32):
    f = to_spectral(random_field(grid32, seed=2))
    ident = Multiplier(lambda k: np.ones(k.shape[1:]), "one")
    g = apply_multiplier(f, ident)
    assert np.array_equal(g.data, f.data)


def test_multiplier_minus_laplace_eigenvalue():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = VectorField.zeros(g, "spectral")
    f.data[0][3, 0] = 1.0
    mult = Multiplier(lambda k: np.sum(k * k, axis=0), "ksq")
    out = apply_multiplier(f, mult)
    assert abs(out.data[0][3, 0] - 9.0) < 1e-14


def test_multiplier_fractional_symbol():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = VectorField.zeros(g, "spectral")
    f.data[0][0, 4] = 1.0
    out = fractional_laplacian(f, 0.5)
    # |k|^{2*0.5} = 4 at mode (0, 4)
    assert abs(out.data[0][0, 4] - 4.0) < 1e-14


def test_multiplier_rejects_odd_symbol():
    with pytest.raises(ValueError):
        Multiplier(lambda k: k[0], "odd")


def test_multiplier_rejects_singular_symbol():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            Multiplier(lambda k: 1.0 / np.sum(k * k, axis=0), "inv ksq")


def test_fractional_laplacian_constant_annihilated(grid32):
    f = VectorField(grid32, np.ones((2,) + grid32.shape), "physical")
    out = fractional_laplacian(f, 0.75)
    assert np.max(np.abs(out.data)) < 1e-12


def test_fractional_laplacian_single_mode_physical():
    g = SpectralGrid(2, 32, 2.0 * np.pi)
    x = g.coordinate_mesh()
    f = VectorField.from_components(g, [np.sin(3 * x[0]), np.zeros(g.shape)])
    out = fractional_laplacian(f, 0.5)
    # |k|^{2 beta} = 3 for |k| = 3, beta = 1/2
    assert np.max(np.abs(out.data[0] - 3 * np.sin(3 * x[0]))) < 1e-10
    assert not out.is_spectral


def test_fractional_laplacian_beta_domain(grid32):
    f = random_field(grid32, seed=5)
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            fractional_laplacian(f, bad)


@settings(max_examples=20, deadline=None)
@given(beta1=st.floats(0.05, 0.6), frac=st.floats(0.1, 0.9), seed=st.integers(0, 10 ** 6))
def test_fractional_laplacian_composition(beta1, frac, seed):
    # (.,b1) then (.,b2) equals (.,b1+b2) when b1+b2 <= 1
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    beta2 = frac * (1.0 - beta1)
    if beta2 <= 0:
        return
    f = to_spectral(random_field(g, seed))
    two = fractional_laplacian(fractional_laplacian(f, beta1), beta2)
    one = fractional_laplacian(f, beta1 + beta2)
    scale = np.max(np.abs(one.data)) + 1e-300
    assert np.max(np.abs(two.data - one.data)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 10 ** 6))
def test_operator_linearity(a, b, seed):
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = random_field(g, seed)
    h = random_field(g, seed + 1)
    combo = a * f + b * h
    lhs = fractional_laplacian(combo, 0.6)
    rhs = a * fractional_laplacian(f, 0.6) + b * fractional_laplacian(h, 0.6)
    scale = np.max(np.abs(rhs.data)) + 1e-30
    assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-12 * scale


def test_div_grad_equals_laplacian(grid32):
    # band-limited so the Nyquist derivative convention plays no role
    f = random_field(grid32, seed=11, band=(0, 10))
    phi = f.data[0]
    gr = gradient(phi, grid32)
    lap1 = divergence(gr)
    lap2 = laplacian(phi, grid32)
    scale = np.max(np.abs(lap2)) + 1e-30
    assert np.max(np.abs(lap1 - lap2)) <= 1e-12 * scale


def test_divergence_of_stream_curl(grid64):
    psi = random_field(grid64, seed=13).data[0]
    gp = gradient(psi, grid64)
    v = VectorField.from_components(grid64, [-gp.data[1], gp.data[0]])
    d = divergence(v)
    scale = np.max(np.abs(v.data)) + 1e-30
    assert np.max(np.abs(d)) <= 1e-12 * scale


def test_gradient_of_cosine():
    g = SpectralGrid(2, 32, 2.0 * np.pi)
    x = g.coordinate_mesh()
    gr = gradient(np.cos(2 * x[0]), g)
    assert np.max(np.abs(gr.data[0] + 2 * np.sin(2 * x[0]))) < 1e-10
    assert np.max(np.abs(gr.data[1])) < 1e-12


def test_dealias_keeps_resolved_modes(grid32):
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((2,) + grid32.shape) \
        + 1j * rng.standard_normal((2,) + grid32.shape)
    f = VectorField(grid32, raw * grid32.dealias_mask, "spectral")
    g = dealias(f)
    assert np.array_equal(g.data, f.data)


def test_dealias_kills_nyquist():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = VectorField.zeros(g, "spectral")
    f.data[:, 8, 0] = 1.0  # Nyquist index on axis 0
    assert np.max(np.abs(dealias(f).data)) == 0.0
    with pytest.raises(ValueError):
        dealias(to_physical(f))


def test_dealiased_product_matches_convolution():
    # product of two resolved modes, physical multiply then dealias,
    # against the exact (non-circular) convolution on an 8^2 grid
    g = SpectralGrid(2, 8, 2.0 * np.pi)
    rng = np.random.default_rng(23)
    fh = np.zeros(g.shape, dtype=complex)
    gh = np.zeros(g.shape, dtype=complex)

    def put(arr, m, val):
        arr[m[0] % 8, m[1] % 8] = val
        arr[-m[0] % 8, -m[1] % 8] = np.conj(val)

    mf, mg = (1, 0), (2, 1)
    put(fh, mf, rng.standard_normal() + 1j * rng.standard_normal())
    put(gh, mg, rng.standard_normal() + 1j * rng.standard_normal())
    f = np.fft.ifftn(fh).real
    h = np.fft.ifftn(gh).real
    prod_h = np.fft.fftn(f * h)
    kept = prod_h * g.dealias_mask
    # direct convolution of the sparse spectra (DFT convention: 1/N^2)
    direct = np.zeros(g.shape, dtype=complex)
    for ma in [mf, (-mf[0], -mf[1])]:
        for mb in [mg, (-mg[0], -mg[1])]:
            m = (ma[0] + mb[0], ma[1] + mb[1])
            direct[m[0] % 8, m[1] % 8] += (fh[ma[0] % 8, ma[1] % 8]
                                           * gh[mb[0] % 8, mb[1] % 8]) / 8 ** 2
    direct *= g.dealias_mask
    assert np.max(np.abs(kept - direct)) < 1e-12


def test_realness_preserved(grid32):
    f = random_field(grid32, seed=29)
    fh = to_spectral(f)
    out = fractional_laplacian(fh, 0.8)
    assert hermitian_defect(out) <= 1e-12 * np.max(np.abs(f.data))


def test_zero_mean(grid32):
    f = random_field(grid32, seed=31) + VectorField(
        grid32, np.full((2,) + grid32.shape, 0.7), "physical")
    zm = zero_mean(f)
    assert abs(np.mean(zm.data[0])) < 1e-13
    assert abs(np.mean(zm.data[1])) < 1e-13


# The two real-data DFT helpers against numpy's complex-to-complex transforms,
# on scalar (axes 0..d-1) and vector (axes 1..d) layouts.
DFT_CASES = [(2, 8), (2, 32), (3, 8), (3, 16)]


def _dft_layout(dim, n, vector):
    shape = ((dim,) if vector else ()) + (n,) * dim
    first = 1 if vector else 0
    return shape, tuple(range(first, first + dim))


def _mirror(spectrum, axes):
    """F(-k) on the DFT lattice: index m -> -m mod N on every axis."""
    out = spectrum
    for axis in axes:
        out = np.roll(np.flip(out, axis), 1, axis)
    return out


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_forward_matches_fftn(dim, n, vector):
    shape, axes = _dft_layout(dim, n, vector)
    f = np.random.default_rng(n + dim).standard_normal(shape)
    expected = np.fft.fftn(f, axes=axes)
    got = real_forward(f, axes)
    assert got.shape == expected.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_forward_is_exactly_hermitian(dim, n, vector):
    shape, axes = _dft_layout(dim, n, vector)
    f = np.random.default_rng(7 * n + dim).standard_normal(shape)
    spectrum = real_forward(f, axes)
    assert np.array_equal(_mirror(spectrum, axes), np.conj(spectrum))


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_forward_half_is_the_full_outputs_half(dim, n, vector):
    # the half spectrum skips the mirror fill but not the exact Hermitian
    # pairing inside the self-paired planes m = 0 and m = N/2
    shape, axes = _dft_layout(dim, n, vector)
    f = np.random.default_rng(5 * n + dim).standard_normal(shape)
    got = real_forward(f, axes, half=True)
    assert got.shape == shape[:-1] + (n // 2 + 1,)
    assert np.array_equal(got, real_forward(f, axes)[..., :n // 2 + 1])


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_inverse_matches_ifftn(dim, n, vector):
    shape, axes = _dft_layout(dim, n, vector)
    spectrum = np.fft.fftn(np.random.default_rng(3 * n + dim).standard_normal(shape),
                           axes=axes)
    expected = np.fft.ifftn(spectrum, axes=axes).real
    got = real_inverse(spectrum, axes)
    assert got.shape == expected.shape and got.dtype == np.float64
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    out = np.empty(shape)
    assert real_inverse(spectrum, axes, out=out) is out
    assert np.array_equal(out, got)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_hermitian_defect_sees_what_the_real_inverse_drops(dim, n):
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    f = to_spectral(random_field(grid, seed=41))
    assert hermitian_defect(f) <= 1e-15 * np.max(np.abs(f.data))
    # a mode past N/2 on the last axis, without its conjugate at -k: the
    # real inverse never reads it, the complex one does
    broken = f.copy()
    broken.data[(0,) + (1,) * (dim - 1) + (n - 1,)] += 1.0
    assert np.array_equal(to_physical(broken).data, to_physical(f).data)
    assert hermitian_defect(broken) >= 0.5 / n ** dim


_TRANSFORM_CALL = re.compile(
    r"\bfft\.(?:fft|ifft|fft2|ifft2|fftn|ifftn|rfft|irfft|rfft2|irfft2|rfftn|"
    r"irfftn|hfft|ihfft)\s*\(")
_FFT_IMPORT = re.compile(r"^\s*(?:from|import)\s+(?:numpy|scipy)[\w.]*fft|"
                         r"^\s*from\s+(?:numpy|scipy)\s+import\s+.*\bfft\b",
                         re.MULTILINE)


def test_transforms_live_in_spectral_only():
    # One FFT layer: solver modules transform through spectral.py; kernels.py
    # keeps its own complex-to-complex calls as an independent oracle.
    package = Path(fchsim.__file__).parent
    allowed = {"spectral.py", "kernels.py"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        hits = _TRANSFORM_CALL.findall(text) + _FFT_IMPORT.findall(text)
        if path.name == "spectral.py":
            assert len(_TRANSFORM_CALL.findall(text)) >= 2   # the scan sees calls
        elif hits and path.name not in allowed:
            offenders.append(path.name)
    assert offenders == []
