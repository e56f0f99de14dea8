import numpy as np
import pytest

from fchsim.spectral import SpectralGrid, VectorField, to_spectral


def random_field(grid, seed, amplitude=1.0, band=None):
    """Seeded random real field, optionally band-limited to |m| in band."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((grid.dim,) + grid.shape)
    f = VectorField(grid, data, "physical")
    if band is not None:
        fh = to_spectral(f)
        mag = np.sqrt(sum(m ** 2 for m in grid.mode_numbers))
        mask = (mag >= band[0]) & (mag <= band[1])
        f = VectorField(grid, fh.data * mask, "spectral")
        from fchsim.spectral import to_physical
        f = to_physical(f)
    scale = np.max(np.abs(f.data))
    if scale > 0:
        f = f * (amplitude / scale)
    return f


def dense_lattice(grid):
    """The (dim, N, ..., N) stacks of mode numbers, wavenumbers and
    derivative wavenumbers (Nyquist zeroed), built here from np.fft.fftfreq:
    an oracle independent of the grid's lines."""
    n = grid.points_per_axis
    m1d = np.fft.fftfreq(n, d=1.0 / n)
    m = np.stack(np.meshgrid(*([m1d] * grid.dim), indexing="ij"))
    k = (2.0 * np.pi / grid.box_length) * m
    return m, k, np.where(np.abs(m) == n // 2, 0.0, k)


def rfft_half(array):
    """The modes 0 <= m <= N/2 of the last axis of a dense full-lattice
    array: its part in the rfftn layout of every spectrum."""
    return array[..., :array.shape[-1] // 2 + 1]


def dealias_mask(grid):
    """The modes the 2/3 rule keeps, 3|m| < N on every axis, as a dense
    mask built from dense_lattice."""
    return np.all(3 * np.abs(dense_lattice(grid)[0]) < grid.points_per_axis, axis=0)


def random_divfree(grid, seed, amplitude=1.0, band=None, dealiased=True):
    """Seeded random divergence-free field, dealiased by default."""
    from fchsim.fields import leray_project
    from fchsim.spectral import dealias, to_physical
    f = random_field(grid, seed, amplitude, band)
    fh = to_spectral(f)
    if dealiased:
        fh = dealias(fh)
    return to_physical(leray_project(fh).field)


@pytest.fixture
def grid64():
    return SpectralGrid(2, 64, 2.0 * np.pi)


@pytest.fixture
def grid32():
    return SpectralGrid(2, 32, 2.0 * np.pi)
