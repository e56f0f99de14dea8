import ast
import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fchsim
from fchsim.checkpoint import load_checkpoint, save_checkpoint
from fchsim.fields import (
    advection_term, ch_nonlinear_term, divergence_defect, leray_project, _jacobian_physical,
)
from fchsim.integrate import SolverParams, band_random, prepare_initial_state, run
from fchsim.helmholtz import filter_identity_residual
from fchsim.spectral import (
    SpectralGrid, VectorField,
    transform, to_spectral, to_physical,
    fractional_laplacian, fractional_laplacian_symbol, helmholtz_symbol,
    divergence, curl, dealias,
    real_forward, real_inverse, validate_grid,
    half_buffer, inverse_buffer, apply_multiplier,
    full_size, half_of,
)
from conftest import dealias_mask, dense_lattice, random_field, rfft_half
from oracles import gradient, hermitian_defect, hermitian_spectrum


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
    f = VectorField(g, np.stack([np.cos(x[0]), np.zeros(g.shape)]), "physical")
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
    b = l2sq_spectral(grid64, hermitian_spectrum(fh.data, (1, 2)))
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


def test_multiplier_fractional_symbol():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = VectorField.zeros(g, "spectral")
    f.data[0][0, 4] = 1.0
    out = fractional_laplacian(f, 0.5)
    # |k|^{2*0.5} = 4 at mode (0, 4)
    assert abs(out.data[0][0, 4] - 4.0) < 1e-14


def test_fractional_laplacian_constant_annihilated(grid32):
    f = VectorField(grid32, np.ones((2,) + grid32.shape), "physical")
    out = fractional_laplacian(f, 0.75)
    assert np.max(np.abs(out.data)) < 1e-12


def test_fractional_laplacian_single_mode_physical():
    g = SpectralGrid(2, 32, 2.0 * np.pi)
    x = g.coordinate_mesh()
    f = VectorField(g, np.stack([np.sin(3 * x[0]), np.zeros(g.shape)]), "physical")
    out = fractional_laplacian(f, 0.5)
    # |k|^{2 beta} = 3 for |k| = 3, beta = 1/2
    assert np.max(np.abs(out.data[0] - 3 * np.sin(3 * x[0]))) < 1e-10
    assert not out.is_spectral


def test_fractional_laplacian_beta_domain(grid32):
    # the rule of SolverParams and of the stepper's symbol: positive, finite
    f = random_field(grid32, seed=5)
    for bad in (0.0, -0.3, np.nan, np.inf):
        with pytest.raises(ValueError):
            fractional_laplacian(f, bad)


def test_fractional_laplacian_beyond_one_applies_the_symbol():
    g = SpectralGrid(2, 16, 2.0 * np.pi)
    f = VectorField.zeros(g, "spectral")
    f.data[1][3, 4] = 1.0 - 0.5j
    out = fractional_laplacian(f, 1.2)
    # |k|^{2*1.2} = 5^2.4 at mode (3, 4)
    expected = 5.0 ** 2.4 * (1.0 - 0.5j)
    assert abs(out.data[1][3, 4] - expected) <= 1e-15 * abs(expected)
    assert np.count_nonzero(out.data) == 1
    x = g.coordinate_mesh()
    wave = VectorField(g, np.stack([np.sin(3 * x[0]), np.zeros(g.shape)]), "physical")
    assert np.max(np.abs(fractional_laplacian(wave, 1.2).data[0]
                         - 3.0 ** 2.4 * np.sin(3 * x[0]))) < 1e-12


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
    # divergence of the Jacobian's gradient row against the multiplier -|k|^2;
    # band-limited so the Nyquist derivative convention plays no role
    f = random_field(grid32, seed=11, band=(0, 10))
    lap1 = divergence(gradient(f.data[0], grid32))
    lap2 = apply_multiplier(f, np.negative).data[0]
    scale = np.max(np.abs(lap2)) + 1e-30
    assert np.max(np.abs(lap1 - lap2)) <= 1e-12 * scale


def test_divergence_of_stream_curl(grid64):
    psi = random_field(grid64, seed=13).data[0]
    gp = gradient(psi, grid64)
    v = VectorField(grid64, np.stack([-gp.data[1], gp.data[0]]), "physical")
    d = divergence(v)
    scale = np.max(np.abs(v.data)) + 1e-30
    assert np.max(np.abs(d)) <= 1e-12 * scale


def test_gradient_of_cosine():
    # the Jacobian d_j f_i of f = (cos 2x, sin 3y): grad cos 2x = (-2 sin 2x, 0)
    # and grad sin 3y = (0, 3 cos 3y)
    g = SpectralGrid(2, 32, 2.0 * np.pi)
    x = g.coordinate_mesh()
    f = VectorField(g, np.stack([np.cos(2 * x[0]), np.sin(3 * x[1])]), "physical")
    jacobian = _jacobian_physical(g, to_spectral(f).data)
    assert np.max(np.abs(jacobian[0, 0] + 2 * np.sin(2 * x[0]))) < 1e-10
    assert np.max(np.abs(jacobian[1, 1] - 3 * np.cos(3 * x[1]))) < 1e-10
    assert np.max(np.abs(jacobian[0, 1])) < 1e-12
    assert np.max(np.abs(jacobian[1, 0])) < 1e-12


def test_dealias_keeps_resolved_modes(grid32):
    rng = np.random.default_rng(17)
    shape = (2,) + grid32.spectral_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = VectorField(grid32, raw * rfft_half(dealias_mask(grid32)), "spectral")
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
    kept = prod_h * dealias_mask(g)
    # direct convolution of the sparse spectra (DFT convention: 1/N^2)
    direct = np.zeros(g.shape, dtype=complex)
    for ma in [mf, (-mf[0], -mf[1])]:
        for mb in [mg, (-mg[0], -mg[1])]:
            m = (ma[0] + mb[0], ma[1] + mb[1])
            direct[m[0] % 8, m[1] % 8] += (fh[ma[0] % 8, ma[1] % 8]
                                           * gh[mb[0] % 8, mb[1] % 8]) / 8 ** 2
    direct *= dealias_mask(g)
    assert np.max(np.abs(kept - direct)) < 1e-12


def test_realness_preserved(grid32):
    f = random_field(grid32, seed=29)
    fh = to_spectral(f)
    out = fractional_laplacian(fh, 0.8)
    assert hermitian_defect(out) <= 1e-12 * np.max(np.abs(f.data))


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
    expected = rfft_half(np.fft.fftn(f, axes=axes))
    got = real_forward(f, axes)
    assert got.shape == expected.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_forward_is_exactly_hermitian(dim, n, vector):
    # the self-paired planes m = 0 and m = N/2 are exactly Hermitian, so
    # the mirrored full spectrum is
    shape, axes = _dft_layout(dim, n, vector)
    f = np.random.default_rng(7 * n + dim).standard_normal(shape)
    spectrum = hermitian_spectrum(real_forward(f, axes), axes)
    assert np.array_equal(_mirror(spectrum, axes), np.conj(spectrum))


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_forward_half_is_the_full_outputs_half(dim, n, vector):
    # the rfftn layout, into a transform-order half_buffer and into the half
    # of a full-size inverse_buffer, bit for bit the C-ordered output
    shape, axes = _dft_layout(dim, n, vector)
    f = np.random.default_rng(5 * n + dim).standard_normal(shape)
    expected = real_forward(f, axes)
    assert expected.shape == shape[:-1] + (n // 2 + 1,)
    assert expected.flags.c_contiguous
    got = real_forward(f, axes, out=half_buffer(shape, axes))
    assert got.strides[axes[0]] == got.itemsize     # held in transform order
    assert _bytes(got) == _bytes(expected)
    full = inverse_buffer(shape, axes)
    real_forward(f, axes, out=half_of(full, axes))
    assert _bytes(half_of(full, axes)) == _bytes(expected)
    assert not np.any(full[..., n // 2 + 1:])


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


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_real_inverse_does_not_depend_on_the_layout(dim, n, vector):
    shape, axes = _dft_layout(dim, n, vector)
    half = real_forward(np.random.default_rng(11 * n + dim).standard_normal(shape), axes)
    spectrum = hermitian_spectrum(half, axes)
    held = inverse_buffer(shape, axes)
    held[...] = spectrum
    # the buffer really holds the spatial axes reversed, first one contiguous
    assert held.strides[axes[0]] == held.itemsize
    assert [held.strides[a] for a in axes] == sorted(held.strides[a] for a in axes)
    expected = real_inverse(spectrum, axes)
    got = real_inverse(held, axes)
    assert np.array_equal(got, expected)
    assert got.flags.c_contiguous and expected.flags.c_contiguous
    # the zero-padded half (full_size) reads as the mirrored spectrum, and
    # so does the bare half, C-ordered or held in transform order
    assert np.array_equal(real_inverse(full_size(half, axes), axes), expected)
    assert np.array_equal(real_inverse(half, axes), expected)
    compact = half_buffer(shape, axes)
    compact[...] = half
    got = real_inverse(compact, axes)
    assert got.shape == shape and got.flags.c_contiguous
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_inverses_outside_the_right_hand_side_read_the_half(monkeypatch, dim, n):
    # to_physical, and divergence and curl of a physical field, hand irfftn
    # the rfftn half itself, never a zero-padded full-size copy
    widths = []
    irfftn = np.fft.irfftn

    def spy(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return irfftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfftn", spy)
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    f = random_field(grid, seed=n + dim)
    spectral = to_spectral(f)
    to_physical(spectral)
    divergence(f)
    curl(f)
    assert widths == [n // 2 + 1] * 3


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
def test_to_physical_holds_one_half_size_scratch(dim, n):
    # the peak beside the input half H: the real output (about H) and one
    # half-size complex scratch array of irfftn (H); a zero-padded full-size
    # copy and irfftn's full-size scratch read 4.9 H in 2D and 6.2 H in 3D
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    spectral = to_spectral(random_field(grid, seed=2 * n + dim))
    to_physical(spectral)                               # warm the FFT caches
    tracemalloc.start()
    try:
        to_physical(spectral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * spectral.data.nbytes


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_held_spectrum_round_trips_bit_for_bit(dim, n, vector):
    # the stepper's state: the spectrum copied into a compact transform-order
    # half_buffer, written into a zeroed full-size buffer (full_size) as the
    # right-hand side pads each stage argument, inverted as the mirrored
    # spectrum is, and copied back out C-ordered as a sample is
    shape, axes = _dft_layout(dim, n, vector)
    spectrum = real_forward(
        np.random.default_rng(13 * n + dim).standard_normal(shape), axes)
    held = half_buffer(shape, axes)
    held[...] = spectrum
    assert held.shape == shape[:-1] + (n // 2 + 1,)
    memory_order = tuple(range(axes[0])) + axes[::-1]
    assert held.transpose(memory_order).flags.c_contiguous
    staged = full_size(held, axes)
    assert staged.shape == shape and staged.strides[axes[0]] == staged.itemsize
    assert not np.any(staged[..., n // 2 + 1:])
    assert np.array_equal(real_inverse(staged, axes),
                          real_inverse(hermitian_spectrum(spectrum, axes), axes))
    back = np.ascontiguousarray(held)
    assert back.tobytes() == spectrum.tobytes()


@pytest.mark.parametrize("dim, n", [(2, 16), (2, 48), (3, 8), (3, 12)])
def test_dealiased_forward_is_dealias_of_the_forward(dim, n):
    # dealias zeroes exactly the modes that a dense 2/3-rule mask, built
    # from np.fft.fftfreq (conftest.dealias_mask), drops, bit for bit; the
    # same slabs zeroed inside the forward transform, into a transform-order
    # buffer, keep dealias's bytes
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    f = random_field(grid, seed=3 * n + dim)
    axes = tuple(range(1, dim + 1))
    spectrum = to_spectral(f).data
    expected = dealias(to_spectral(f)).data
    assert expected.tobytes() == np.where(
        rfft_half(dealias_mask(grid)), spectrum, 0.0).tobytes()
    got = real_forward(f.data, axes, out=half_buffer(f.data.shape, axes),
                       dealias=True)
    assert got.strides[1] == got.itemsize
    assert _bytes(got) == expected.tobytes()


def _bytes(array):
    return np.ascontiguousarray(array).tobytes()


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 16)])
def test_grid_holds_lines_and_two_dense_arrays(dim, n):
    # one line per axis, no (dim, N^n) stack: |k|^2 and 1/|k|^2 on the
    # rfftn layout, read-only, plus the lines
    grid = SpectralGrid(dim, n, 2.5)
    arrays = [a for value in vars(grid).values()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    half = n ** (dim - 1) * (n // 2 + 1)
    assert max(a.size for a in arrays) == half
    lines = 2 * dim * n
    assert sum(a.nbytes for a in arrays) <= 8 * (2 * half + lines)
    for dense in (grid.k_squared, grid.inverse_k_squared):
        assert dense.shape == grid.spectral_shape
        assert not dense.flags.writeable


@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_half_leray_lattice_is_the_grids(dim, n):
    # |k|^2 and the Leray weight on the rfftn layout (transform order), and
    # the mode number and derivative lines, bit for bit the dense oracle's
    grid = SpectralGrid(dim, n, 2.5)
    m, k, derivative = dense_lattice(grid)
    half = n // 2 + 1
    k_squared = np.sum(k ** 2, axis=0)
    derivative_squared = np.sum(derivative ** 2, axis=0)
    inverse_k_squared = 1.0 / np.where(derivative_squared == 0, 1.0, derivative_squared)
    for dense, oracle in ((grid.k_squared, k_squared),
                          (grid.inverse_k_squared, inverse_k_squared)):
        assert dense.strides[0] == dense.itemsize
        assert _bytes(dense) == _bytes(rfft_half(oracle))
    shape = grid.spectral_shape
    for lines, oracle in ((grid.mode_numbers, m), (grid.derivative_wavenumbers, derivative)):
        for i, line in enumerate(lines):
            assert line.size == (half if i == dim - 1 else n)
            assert _bytes(np.broadcast_to(line, shape)) == _bytes(rfft_half(oracle[i]))


@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_half_derivative_multipliers_are_the_grids(dim, n):
    # the product's 1j * line multipliers against the dense 1j * k stack,
    # on a half spectrum held in transform order
    grid = SpectralGrid(dim, n, 2.5)
    _, _, derivative = dense_lattice(grid)
    axes = tuple(range(1, dim + 1))
    fh = real_forward(random_field(grid, seed=n + dim).data, axes,
                      out=half_buffer((dim,) + grid.shape, axes))
    dense = 1j * rfft_half(derivative)
    for i, line in enumerate(grid.derivative_wavenumbers):
        ik = 1j * line
        assert ik.size == line.size
        for a in range(dim):
            assert _bytes(ik * fh[a]) == _bytes(dense[i] * fh[a])


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_differential_operators_match_the_dense_lattice(dim, n):
    # the Jacobian, divergence, curl and divergence_defect on the grid's
    # lines, bit for bit the same formulas on the dense (dim, N^n) stack
    grid = SpectralGrid(dim, n, 2.5)
    k = rfft_half(dense_lattice(grid)[2])
    f = random_field(grid, seed=3 * n + dim)
    fh = to_spectral(f)
    v = fh.data
    jacobian = _jacobian_physical(grid, v)
    assert [[_bytes(jacobian[i, j]) for j in range(dim)] for i in range(dim)] == \
        [[_bytes(real_inverse(1j * k[j] * v[i], range(dim))) for j in range(dim)]
         for i in range(dim)]
    dh = np.sum(1j * k * v, axis=0)
    assert _bytes(divergence(fh)) == _bytes(dh)
    assert _bytes(divergence(f)) == _bytes(
        real_inverse(hermitian_spectrum(dh, range(dim)), range(dim)))
    if dim == 2:
        ch = 1j * (k[0] * v[1] - k[1] * v[0])
        assert _bytes(curl(fh)) == _bytes(ch)
    else:
        ch = np.stack([1j * (k[1] * v[2] - k[2] * v[1]),
                       1j * (k[2] * v[0] - k[0] * v[2]),
                       1j * (k[0] * v[1] - k[1] * v[0])])
        assert _bytes(curl(fh).data) == _bytes(ch)
    defect = (np.max(np.abs(dh))
              / np.max(np.abs(v) * np.sqrt(np.sum(k * k, axis=0))))
    assert divergence_defect(fh) == divergence_defect(f) == float(defect)


@pytest.mark.parametrize("dim, n", DFT_CASES)
def test_apply_multiplier_is_the_spectral_product(dim, n):
    grid = SpectralGrid(dim, n, 3.0)
    f = random_field(grid, seed=n + dim)

    def symbol(k_squared):
        return 1.0 / (1.0 + 0.3 * k_squared)

    product = to_spectral(f).data * symbol(grid.k_squared)
    spectral = apply_multiplier(to_spectral(f), symbol)
    assert spectral.is_spectral and np.array_equal(spectral.data, product)
    got = apply_multiplier(f, symbol)
    assert got.representation == "physical" and got.data.flags.c_contiguous
    assert np.array_equal(got.data, to_physical(VectorField(grid, product, "spectral")).data)


@pytest.mark.parametrize("dim, n", DFT_CASES)
@pytest.mark.parametrize("operator", [
    lambda f: fractional_laplacian(f, 0.75), lambda f: fractional_laplacian(f, 1.2),
    lambda f: apply_multiplier(f, np.negative),
], ids=["beta-0.75", "beta-1.2", "laplacian"])
def test_physical_operator_is_the_inverse_of_its_spectral_route(operator, dim, n):
    grid = SpectralGrid(dim, n, 3.0)
    f = random_field(grid, seed=7 * n + dim)
    got = operator(f)
    assert not got.is_spectral
    assert np.array_equal(got.data, to_physical(operator(to_spectral(f))).data)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_hermitian_defect_sees_what_the_real_inverse_drops(dim, n):
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    f = to_spectral(random_field(grid, seed=41))
    assert hermitian_defect(f) <= 1e-15 * np.max(np.abs(f.data))
    # an anti-Hermitian pair in the self-paired plane m = N/2, +1 at the
    # leading index 1 and -1 at its mirror -1: the real inverse drops it,
    # the complex one of the mirrored spectrum sees it
    broken = f.copy()
    broken.data[(0,) + (1,) * (dim - 1) + (n // 2,)] += 1.0
    broken.data[(0,) + (n - 1,) * (dim - 1) + (n // 2,)] -= 1.0
    scale = np.max(np.abs(to_physical(f).data))
    assert np.max(np.abs(to_physical(broken).data - to_physical(f).data)) <= 1e-15 * scale
    assert hermitian_defect(broken) >= 0.5 / n ** dim


def _spectral_outputs(name, grid, tmp_path):
    """What the producer `name` returns for a random divergence-free field
    on `grid`, as a list of spectral arrays."""
    v = band_random(grid, seed=3, band=(1.0, 3.0))
    params = SolverParams(nu=0.1, beta=0.75, alpha=0.5, dt=0.01, t_end=0.02)
    if name == "to_spectral":
        return [to_spectral(v).data]
    if name == "dealias":
        return [dealias(to_spectral(v)).data]
    if name == "leray_project":
        return [leray_project(v).field.data, leray_project(to_spectral(v)).field.data]
    if name == "apply_multiplier":
        return [apply_multiplier(to_spectral(v), np.negative).data]
    if name == "ch_nonlinear_term":
        return [ch_nonlinear_term(v, v).data, ch_nonlinear_term(v, v, dealias=False).data]
    if name == "advection_term":
        return [advection_term(v).data]
    if name == "divergence":
        return [divergence(to_spectral(v))]
    if name == "curl":
        ch = curl(to_spectral(v))
        return [ch if grid.dim == 2 else ch.data]
    if name == "load_checkpoint":
        path = str(tmp_path / "state.chk")
        save_checkpoint(prepare_initial_state(v, params), params, path)
        return [load_checkpoint(path)[0].v.field.data]
    observed = []
    run(v, params, observers=[lambda state: observed.append(state.v.field.data)])
    return observed


@pytest.mark.parametrize("name", [
    "to_spectral", "dealias", "leray_project", "apply_multiplier",
    "ch_nonlinear_term", "advection_term", "divergence", "curl",
    "load_checkpoint", "run"])
@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_every_spectral_field_is_in_the_rfftn_layout(name, dim, n, tmp_path):
    # one spectrum layout: every producer of a spectral field returns the
    # modes 0 <= m <= N/2 of the last axis, shape (dim, N, ..., N/2+1), or
    # (N, ..., N/2+1) for a scalar
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    outputs = _spectral_outputs(name, grid, tmp_path)
    assert outputs
    component = (n,) * (dim - 1) + (n // 2 + 1,)
    for data in outputs:
        assert data.dtype == np.complex128
        scalar = name == "divergence" or (name == "curl" and dim == 2)
        assert data.shape == (component if scalar else (dim,) + component)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_a_full_spectrum_is_not_a_spectral_field(dim, n):
    grid = SpectralGrid(dim, n, 2.0 * np.pi)
    full = np.fft.fftn(random_field(grid, seed=4).data, axes=range(1, dim + 1))
    with pytest.raises(ValueError, match="spectral data shape"):
        VectorField(grid, full, "spectral")
    with pytest.raises(ValueError, match="physical data shape"):
        VectorField(grid, np.zeros((dim,) + grid.spectral_shape), "physical")
    assert VectorField.zeros(grid, "spectral").data.shape == (dim,) + grid.spectral_shape


def _fft_references(source):
    """Line numbers at which `source` reaches numpy.fft or scipy.fft: any
    attribute named fft (np.fft, numpy.fft, scipy.fft), called or not, and
    any import of either module or of a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            names = [alias.name for alias in node.names]
            if any(m.split(".")[0] in ("numpy", "scipy")
                   and ("fft" in m.split(".") or "fft" in names) for m in modules):
                lines.append(node.lineno)
    return lines


def test_transforms_live_in_spectral_only():
    # One FFT layer: numpy.fft is named only in spectral.py and in the
    # kernels.py oracle, which keeps its own complex-to-complex calls, so a
    # transform-order forward (or a bare reference such as
    # `forward = np.fft.rfftn`) cannot leak into fields or integrate.
    for leak in ("forward = np.fft.rfftn", "getattr(numpy.fft, 'irfftn')(x)",
                 "import numpy.fft as nf", "from numpy import fft",
                 "from scipy.fft import rfftn", "import scipy.fft"):
        assert _fft_references(leak), leak
    assert _fft_references("from numpy import pi\nm = grid.fftfreq(8)") == []
    package = Path(fchsim.__file__).parent
    found = {path.name: _fft_references(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert found.pop("spectral.py")               # the scan sees the layer
    assert found.pop("kernels.py")                # and the oracle
    assert {name: lines for name, lines in found.items() if lines} == {}


_LATTICE = re.compile(r"\br?fftfreq\b")


def test_lattice_lives_in_spectral_only():
    # One lattice: the mode numbers are formed once, by SpectralGrid, and
    # the kernels.py oracle keeps its own, so no solver module can build a
    # wavenumber lattice of its own again.
    for leak in ("m = np.fft.fftfreq(n, d=1.0 / n)", "from numpy.fft import rfftfreq",
                 "k = 2 * np.pi * numpy.fft.fftfreq(n, d=dx)"):
        assert _LATTICE.search(leak), leak
    package = Path(fchsim.__file__).parent
    found = {path.name: _LATTICE.findall(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(_LATTICE.findall(inspect.getsource(SpectralGrid))) == 1
    assert len(found.pop("spectral.py")) == 1     # that one use, and no other
    assert found.pop("kernels.py")                # the scan sees the oracle's
    assert {name: hits for name, hits in found.items() if hits} == {}


# k_squared (or a local name for it) raised to a dissipation exponent, as
# "ksq[nz] ** beta", "grid.k_squared**params.beta" or np.power(k_sq, beta)
_BETA_POWER = re.compile(
    r"\b(?:k_squared|ksq|k_sq)\b(?:\[[^\]]*\])?\s*\*\*\s*\(?\s*[\w.]*beta\b|"
    r"\bpower\(\s*[\w.]*\b(?:k_squared|ksq|k_sq)\b[^,]*,\s*[\w.]*beta\b")


def test_dissipation_symbol_lives_in_spectral_only():
    # One symbol |k|^(2 beta): every solver module takes it from
    # fractional_laplacian_symbol; kernels.py keeps its own copies as an
    # independent oracle.
    package = Path(fchsim.__file__).parent
    found = {path.name: _BETA_POWER.findall(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(_BETA_POWER.findall(inspect.getsource(fractional_laplacian_symbol))) == 1
    assert len(found.pop("spectral.py")) == 1     # that one use, and no other
    assert found.pop("kernels.py")                # the scan sees the oracle's
    assert {name: hits for name, hits in found.items() if hits} == {}


# alpha^2 |k|^2, the weight of the Helmholtz symbol 1 + alpha^2 |k|^2, with
# alpha^2 spelled "alpha**2", "alpha2", "alpha_sq" or "np.square(alpha)" and
# |k|^2 a k_squared, ksq, k_sq or k2, in either order
_ALPHA_SQUARED = (r"(?:\b[\w.]*alpha\s*\*\*\s*2(?![\d.])|\b\w*alpha(?:2|_sq\w*)\b|"
                  r"np\.square\(\s*[\w.]*alpha\s*\))")
_K_SQUARED = r"\b[\w.]*(?:k_squared|ksq|k_sq|k2)\b(?:\[[^\]]*\])?"
_HELMHOLTZ_WEIGHT = re.compile(
    rf"{_ALPHA_SQUARED}\s*\*\s*{_K_SQUARED}|{_K_SQUARED}\s*\*\s*{_ALPHA_SQUARED}")


def test_helmholtz_symbol_lives_in_spectral_only():
    # One filter symbol: apply_filter, filter_identity_residual, the energy
    # ledger and the scaled family's u0 -> v0 all take helmholtz_symbol.
    for spelling in ("1.0 / (1.0 + alpha**2 * k_squared)", "1.0 + alpha2 * grid.k_squared",
                     "alpha ** 2 * grid.k_squared", "k2 * np.square(params.alpha) + 1"):
        assert _HELMHOLTZ_WEIGHT.search(spelling)
    package = Path(fchsim.__file__).parent
    found = {path.name: _HELMHOLTZ_WEIGHT.findall(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(_HELMHOLTZ_WEIGHT.findall(inspect.getsource(helmholtz_symbol))) == 1
    assert len(found.pop("spectral.py")) == 1     # that one use, and no other
    assert {name: hits for name, hits in found.items() if hits} == {}
    # the 2 alpha^2 and alpha^4 weights of the three-term identity are what
    # the residual checks: they stay, and the scan passes over them
    residual = inspect.getsource(filter_identity_residual)
    assert "2.0 * alpha**2 * km * k2" in residual and "alpha**4 * km * k2**2" in residual
