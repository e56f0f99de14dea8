"""Discrete Fourier infrastructure on periodic boxes.

Grids, forward/inverse transforms, Fourier multipliers (including the
fractional Laplacian), spectral differentiation and 2/3-rule dealiasing.

Conventions fixed here and relied on everywhere else:
  - forward transform is the unnormalized DFT, the inverse carries the
    1/N^n factor
  - every transform of the solver goes through real_forward/real_inverse:
    physical data is real, so the spectrum is Hermitian, F(-k) = conj F(k)
  - physical quadrature weight is (L/N)^n, so the Parseval pairing is
    sum|f|^2 (L/N)^n = sum|F|^2 L^n/N^(2n)
  - wavenumbers are k = (2*pi/L)*m with integer m in [-N/2, N/2)
"""

import itertools

import numpy as np

FORWARD = "forward"
INVERSE = "inverse"
PHYSICAL = "physical"
SPECTRAL = "spectral"


def validate_grid(dim, points_per_axis, box_length):
    """Raise ValueError unless the triple describes a usable periodic grid.

    Besides the dimension, an even point count >= 8 and a positive finite
    box, the quadrature weights (L/N)^n and L^n/N^(2n) must be positive
    floats: a box so large (or small) that they overflow (or underflow)
    would run to NaN energies.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3, got %r" % (dim,))
    n = int(points_per_axis)
    if n != points_per_axis or n < 8 or n % 2 != 0:
        raise ValueError("points_per_axis must be an even integer >= 8")
    if not (0 < box_length < np.inf):
        raise ValueError("box_length must be positive and finite")
    length = float(box_length)
    try:
        weights = ((length / n) ** dim, length ** dim / float(n) ** (2 * dim))
    except OverflowError:
        weights = (np.inf,)
    if not all(0 < w < np.inf for w in weights):
        raise ValueError("box_length %g is out of range for a %d-D grid: its "
                         "quadrature weights overflow or underflow"
                         % (length, dim))


class SpectralGrid(object):
    """Periodic box discretization with its wavenumber lattice."""

    def __init__(self, dim, points_per_axis, box_length):
        validate_grid(dim, points_per_axis, box_length)
        n = int(points_per_axis)
        self.dim = dim
        self.points_per_axis = n
        self.box_length = float(box_length)
        self.shape = (n,) * dim
        self.spacing = self.box_length / n
        # integer mode numbers m per axis, fft ordering 0,1,..,-N/2,..,-1
        m1d = np.fft.fftfreq(n, d=1.0 / n)
        mesh = np.meshgrid(*([m1d] * dim), indexing="ij")
        self.mode_numbers = np.stack(mesh)
        self.wavenumbers = (2.0 * np.pi / self.box_length) * self.mode_numbers
        self.k_squared = np.sum(self.wavenumbers ** 2, axis=0)
        # odd-order derivatives of real fields need the unpaired Nyquist
        # mode zeroed, else the result picks up a spurious imaginary part
        self.derivative_wavenumbers = np.where(
            np.abs(self.mode_numbers) == n // 2, 0.0, self.wavenumbers)
        # 1/|k|^2 of the Leray projector, with 1 where |k| = 0
        ksq = np.sum(self.derivative_wavenumbers ** 2, axis=0)
        ksq[ksq == 0] = 1.0
        self.inverse_k_squared = 1.0 / ksq
        # |m| > N/3 on any axis is zeroed by the 2/3 rule
        cutoff = n / 3.0
        self.dealias_mask = np.all(np.abs(self.mode_numbers) <= cutoff, axis=0)
        # quadrature weights: physical cell volume and spectral mode weight
        self.cell_volume = self.spacing ** dim
        self.mode_weight = self.box_length ** dim / float(n) ** (2 * dim)

    def axis_coordinates(self):
        """Physical sample points along one axis."""
        return np.arange(self.points_per_axis) * self.spacing

    def coordinate_mesh(self):
        """Dense (dim, N, ..., N) array of physical coordinates."""
        x = self.axis_coordinates()
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def __eq__(self, other):
        return (isinstance(other, SpectralGrid)
                and self.dim == other.dim
                and self.points_per_axis == other.points_per_axis
                and self.box_length == other.box_length)

    def __repr__(self):
        return "SpectralGrid(dim=%d, points_per_axis=%d, box_length=%g)" % (
            self.dim, self.points_per_axis, self.box_length)


class VectorField(object):
    """dim-component field with a physical or spectral representation.

    Physical data is real float64 of shape (dim, N, ..., N); spectral data
    is complex128 in unnormalized-DFT layout.  Fields are value-like: the
    operations in this package return new fields and never mutate inputs.
    """

    def __init__(self, grid, data, representation):
        if representation not in (PHYSICAL, SPECTRAL):
            raise ValueError("unknown representation %r" % (representation,))
        data = np.asarray(data)
        if data.shape != (grid.dim,) + grid.shape:
            raise ValueError("data shape %s does not match grid %s"
                             % (data.shape, grid))
        if representation == PHYSICAL:
            if np.iscomplexobj(data):
                raise ValueError("physical representation requires real data")
            data = data.astype(np.float64, copy=False)
        else:
            data = data.astype(np.complex128, copy=False)
        self.grid = grid
        self.data = data
        self.representation = representation

    @classmethod
    def zeros(cls, grid, representation=PHYSICAL):
        dtype = np.float64 if representation == PHYSICAL else np.complex128
        return cls(grid, np.zeros((grid.dim,) + grid.shape, dtype), representation)

    @classmethod
    def from_components(cls, grid, components, representation=PHYSICAL):
        return cls(grid, np.stack([np.asarray(c) for c in components]),
                   representation)

    @property
    def is_spectral(self):
        return self.representation == SPECTRAL

    def copy(self):
        return VectorField(self.grid, self.data.copy(), self.representation)

    def _check_same(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        if self.representation != other.representation:
            raise ValueError("representation mismatch")

    def __add__(self, other):
        self._check_same(other)
        return VectorField(self.grid, self.data + other.data, self.representation)

    def __sub__(self, other):
        self._check_same(other)
        return VectorField(self.grid, self.data - other.data, self.representation)

    def __mul__(self, scalar):
        return VectorField(self.grid, self.data * scalar, self.representation)

    __rmul__ = __mul__

    def __repr__(self):
        return "VectorField(%s, %s)" % (self.grid, self.representation)


def _spatial_axes(grid):
    return tuple(range(1, grid.dim + 1))


def _mirror_half(full, axes):
    """Overwrite the modes past N/2 on the last of `axes` with conj F(-k).

    The source is the half 1 <= m < N/2 on that axis, read through reversed
    slices (m -> N - m on every axis, index 0 being its own mirror).  The two
    planes m = 0 and m = N/2 pair with themselves (_pair_planes).
    """
    *lead, last = axes
    half = full.shape[last] // 2
    for flips in itertools.product((False, True), repeat=len(lead)):
        dst = [slice(None)] * full.ndim
        src = [slice(None)] * full.ndim
        for axis, flip in zip(lead, flips):
            dst[axis] = slice(1, None) if flip else slice(0, 1)
            src[axis] = slice(None, 0, -1) if flip else slice(0, 1)
        dst[last] = slice(half + 1, None)
        src[last] = slice(half - 1, 0, -1)
        np.conjugate(full[tuple(src)], out=full[tuple(dst)])
    _pair_planes(full, axes, half)


def _pair_planes(spectrum, axes, half):
    """Make the planes m = 0 and m = `half` = N/2 of the last of `axes`
    exactly Hermitian: each is mirrored in turn over the remaining axes, and
    a point equal to its own mirror is made real.  They lie in the half
    0 <= m <= N/2, so this works on a half spectrum too."""
    *lead, last = axes
    for m in (0, half):
        index = [slice(None)] * spectrum.ndim
        index[last] = slice(m, m + 1)
        plane = spectrum[tuple(index)]
        if lead:
            _mirror_half(plane, lead)
        else:
            plane.imag = 0.0


def real_forward(data, axes, half=False):
    """Unnormalized DFT of real `data` over `axes`, full-size complex output.

    rfftn writes the modes 0 <= m <= N/2 of the last axis straight into the
    output; the rest is filled by Hermitian symmetry, so the result is
    exactly Hermitian.  With `half`, only the modes 0 <= m <= N/2 are
    returned, bit for bit those of the full output, for a spectrum that is
    only ever read there.
    """
    axes = tuple(axes)
    n_last = data.shape[axes[-1]]
    if half:
        out = np.fft.rfftn(data, axes=axes)
        _pair_planes(out, axes, n_last // 2)
        return out
    full = np.empty(data.shape, np.complex128)
    index = [slice(None)] * data.ndim
    index[axes[-1]] = slice(0, n_last // 2 + 1)
    np.fft.rfftn(data, axes=axes, out=full[tuple(index)])
    _mirror_half(full, axes)
    return full


def real_inverse(spectrum, axes, out=None):
    """Inverse DFT over `axes` of a Hermitian full-size spectrum, real output.

    irfftn reads only the modes 0 <= m <= N/2 of the last axis and takes
    the rest to be their mirror, so any anti-Hermitian part is dropped.
    """
    axes = tuple(axes)
    return np.fft.irfftn(spectrum, s=[spectrum.shape[a] for a in axes],
                         axes=axes, out=out)


def transform(field, direction):
    """Forward (physical -> spectral) or inverse DFT of a field."""
    if direction == FORWARD:
        if field.is_spectral:
            raise ValueError("forward transform needs a physical field")
        data = real_forward(field.data, _spatial_axes(field.grid))
        return VectorField(field.grid, data, SPECTRAL)
    if direction == INVERSE:
        if not field.is_spectral:
            raise ValueError("inverse transform needs a spectral field")
        data = real_inverse(field.data, _spatial_axes(field.grid))
        return VectorField(field.grid, data, PHYSICAL)
    raise ValueError("direction must be %r or %r" % (FORWARD, INVERSE))


def to_spectral(field):
    return field if field.is_spectral else transform(field, FORWARD)


def to_physical(field):
    """Physical form of a field.

    A spectral field must be Hermitian, F(-k) = conj F(k), as every spectrum
    of a real field is: only the modes 0 <= m <= N/2 of the last axis are
    read, so an anti-Hermitian part is silently dropped (hermitian_defect
    measures it).
    """
    return transform(field, INVERSE) if field.is_spectral else field


def hermitian_defect(field):
    """Max imaginary part of the complex-to-complex inverse transform.

    Zero (to roundoff) exactly when the spectral data is Hermitian
    symmetric, i.e. represents a real field.  It stays a full complex
    inverse because real_inverse cannot see what it would measure.
    """
    if not field.is_spectral:
        return 0.0
    back = np.fft.ifftn(field.data, axes=_spatial_axes(field.grid))
    return float(np.max(np.abs(back.imag)))


class Multiplier(object):
    """Even real Fourier symbol applied coefficient-wise.

    The symbol must be a vectorized function of the (dim, ...) wavenumber
    array.  Evenness (symbol(-k) == symbol(k)) is what keeps real fields
    real, so it is checked at construction on probe vectors.
    """

    def __init__(self, symbol, name=None):
        self.symbol = symbol
        self.name = name or getattr(symbol, "__name__", "multiplier")
        probes = np.array([[0.0, 0.7, -1.3, 2.0, 3.9],
                           [0.0, -2.1, 0.4, 2.0, -1.7],
                           [0.0, 1.1, -0.6, 2.0, 0.3]])
        vals = np.asarray(symbol(probes))  # dim-agnostic: 3 rows, extras ignored
        if np.iscomplexobj(vals) and np.max(np.abs(vals.imag)) > 0:
            raise ValueError("symbol must be real-valued")
        if not np.all(np.isfinite(vals)):
            raise ValueError("symbol not finite on probe wavenumbers")
        neg = np.asarray(symbol(-probes))
        if not np.allclose(vals, neg, rtol=1e-12, atol=0.0):
            raise ValueError("symbol must be even in k to preserve realness")

    def values_on(self, grid):
        vals = np.asarray(self.symbol(grid.wavenumbers), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("symbol not finite on the %r lattice" % (grid,))
        return vals

    def __repr__(self):
        return "Multiplier(%s)" % self.name


def apply_multiplier(field, mult):
    """Scale each spectral coefficient by the symbol at its wavenumber."""
    if not field.is_spectral:
        raise ValueError("apply_multiplier needs a spectral field")
    vals = mult.values_on(field.grid)
    return VectorField(field.grid, field.data * vals, SPECTRAL)


def fractional_laplacian_symbol(grid, beta):
    """|k|^(2*beta) on the lattice, with the zero mode explicitly 0."""
    ksq = grid.k_squared
    out = np.zeros_like(ksq)
    nz = ksq > 0
    out[nz] = ksq[nz] ** beta
    return out


def fractional_laplacian(field, beta):
    """(-Laplace)^beta via the multiplier |k|^(2*beta).

    Accepts either representation and returns the same one.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1], got %r" % (beta,))
    fh = to_spectral(field)
    vals = fractional_laplacian_symbol(field.grid, beta)
    out = VectorField(field.grid, fh.data * vals, SPECTRAL)
    return out if field.is_spectral else to_physical(out)


def _scalar_forward(grid, f):
    return real_forward(f, range(grid.dim))


def _scalar_inverse(grid, fh, out=None):
    return real_inverse(fh, range(grid.dim), out=out)


def scalar_gradient(grid, f, spectral_in=False, spectral_out=False):
    """Gradient of a scalar array, returned as a VectorField."""
    fh = f if spectral_in else _scalar_forward(grid, f)
    gh = 1j * grid.derivative_wavenumbers * fh[np.newaxis]
    out = VectorField(grid, gh, SPECTRAL)
    return out if spectral_out else to_physical(out)


def gradient(field, grid=None):
    """Spectral gradient.

    For a scalar array (with grid supplied) returns the gradient as a
    VectorField.  For a VectorField returns a list whose entry i is the
    gradient of component i, each itself a VectorField, in the input's
    representation.
    """
    if isinstance(field, VectorField):
        fh = to_spectral(field)
        out = []
        for i in range(field.grid.dim):
            gi = scalar_gradient(field.grid, fh.data[i], spectral_in=True,
                                 spectral_out=True)
            out.append(gi if field.is_spectral else to_physical(gi))
        return out
    if grid is None:
        raise ValueError("scalar gradient needs the grid")
    return scalar_gradient(grid, field)


def divergence(field):
    """Spectral divergence of a VectorField, as a scalar array."""
    fh = to_spectral(field)
    dh = np.sum(1j * field.grid.derivative_wavenumbers * fh.data, axis=0)
    return dh if field.is_spectral else _scalar_inverse(field.grid, dh)


def laplacian(field, grid=None):
    """Laplacian of a VectorField or of a scalar array (grid required)."""
    if isinstance(field, VectorField):
        fh = to_spectral(field)
        out = VectorField(field.grid, -field.grid.k_squared * fh.data, SPECTRAL)
        return out if field.is_spectral else to_physical(out)
    if grid is None:
        raise ValueError("scalar laplacian needs the grid")
    return _scalar_inverse(grid, -grid.k_squared * _scalar_forward(grid, field))


def curl(field):
    """Curl of a VectorField: a VectorField in 3D, a scalar array in 2D."""
    fh = to_spectral(field)
    k = field.grid.derivative_wavenumbers
    if field.grid.dim == 2:
        ch = 1j * (k[0] * fh.data[1] - k[1] * fh.data[0])
        return ch if field.is_spectral else _scalar_inverse(field.grid, ch)
    ch = np.stack([
        1j * (k[1] * fh.data[2] - k[2] * fh.data[1]),
        1j * (k[2] * fh.data[0] - k[0] * fh.data[2]),
        1j * (k[0] * fh.data[1] - k[1] * fh.data[0]),
    ])
    out = VectorField(field.grid, ch, SPECTRAL)
    return out if field.is_spectral else to_physical(out)


def dealias(field):
    """Zero every coefficient with |m| > N/3 on any axis (2/3 rule)."""
    if not field.is_spectral:
        raise ValueError("dealias acts on spectral fields")
    return VectorField(field.grid, np.where(field.grid.dealias_mask,
                                            field.data, 0.0), SPECTRAL)


def zero_mean(field):
    """Force the k=0 mode to zero (finite-energy velocity convention)."""
    fh = to_spectral(field)
    data = fh.data.copy()
    data[(slice(None),) + (0,) * field.grid.dim] = 0.0
    out = VectorField(field.grid, data, SPECTRAL)
    return out if field.is_spectral else to_physical(out)
