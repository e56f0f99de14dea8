"""Discrete Fourier infrastructure on periodic boxes.

Grids, transforms, spectral differentiation, 2/3-rule dealiasing, every Fourier
symbol of the solver, and apply_multiplier, the one route of a symbol to a field.

Conventions fixed here and relied on everywhere else:
  - forward transform is the unnormalized DFT, the inverse carries the
    1/N^n factor
  - every transform of the solver goes through real_forward/real_inverse:
    physical data is real, so the spectrum is Hermitian, F(-k) = conj F(k)
  - one spectrum layout, numpy's rfftn layout: every spectral field and
    state holds the modes 0 <= m <= N/2 of the last axis alone, shape
    (dim, N, ..., N/2+1), its self-paired planes m = 0 and m = N/2 exactly
    Hermitian (_pair_planes), and every interface hands the half around.
    real_inverse also reads a zeroed full-size inverse_buffer around the
    half (full_size); only the right-hand side's three inverses build one
  - memory layout: a spectrum only inverted (the nonlinear term's
    derivative spectra, a multiplier's spectrum of a physical field, each
    stage argument), the time stepper's state and the nonlinear term's
    output are held in transform order, the spatial axes reversed in memory,
    so that the leading complex passes of irfftn run along contiguous
    memory.  Every state handed out of the stepper, every other spectrum and
    every physical array are C-ordered.  The layout changes no transform
    call, no element count and no result bit
  - physical quadrature weight is (L/N)^n, so the Parseval pairing is
    sum|f|^2 (L/N)^n = sum|F|^2 L^n/N^(2n) (diagnostics._parseval_sum)
  - wavenumbers are k = (2*pi/L)*m with integer m in [-N/2, N/2)
  - the lattice has one owner and one format, SpectralGrid: one
    broadcastable line per axis for the mode numbers and the derivative
    wavenumbers (Nyquist zeroed), and, formed once per grid in transform
    order, the dense |k|^2 and Leray weight 1/|k|^2.  Every derivative is a
    1j * line broadcast, every multiplier reads one of the dense arrays, and
    every sum over the axes runs in axis order
  - the 2/3 rule keeps 3|m| < N on every axis; dealias,
    real_forward(..., dealias=True) and every other user zero the other
    modes as one slab per axis (_drop_aliased); no mask is kept
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


def _first_aliased_mode(n):
    """The least |m| the 2/3 rule drops on an axis of n points.

    The rule keeps 3|m| < N on every axis (Orszag's condition): two kept
    modes then sum to |m| < 2N/3, which aliases onto |m| > N/3, never onto
    a kept mode.  Keeping |m| = N/3, when 3 divides N, would alias onto
    -N/3, a kept mode.
    """
    return (n + 2) // 3


def _leray_weight(ksq):
    """1/|k|^2 of the Leray projector, in place, with 1 where |k| = 0."""
    ksq[ksq == 0] = 1.0
    return np.divide(1.0, ksq, out=ksq)


def _lines(values, dim):
    """`values` along each axis in turn: dim lines, line i of shape
    (1, .., N, .., 1) with N on axis i, and the last line cut at N/2+1,
    broadcastable over a spectrum."""
    cut = len(values) // 2 + 1
    return tuple((values[:cut] if i == dim - 1 else values).reshape(
        [-1 if a == i else 1 for a in range(dim)]) for i in range(dim))


def _sum_of_squares(lines, shape):
    """sum_i line_i^2 over the spectrum's `shape`, added to 0 in axis order
    as np.sum over a stack adds, in transform order."""
    out = inverse_buffer(shape, range(len(shape)), np.float64)
    for line in lines:
        out += line ** 2
    return out


class SpectralGrid(object):
    """Periodic box discretization with its wavenumber lattice: lines per
    axis, and the read-only |k|^2 and Leray weight 1/|k|^2 (over the
    derivative wavenumbers, 1 at k = 0), formed once on the spectrum's
    modes 0 <= m <= N/2 of the last axis (see the module docstring)."""

    def __init__(self, dim, points_per_axis, box_length):
        validate_grid(dim, points_per_axis, box_length)
        n = int(points_per_axis)
        self.dim = dim
        self.points_per_axis = n
        self.box_length = float(box_length)
        self.shape = (n,) * dim
        # the rfftn layout of one spectral component
        self.spectral_shape = (n,) * (dim - 1) + (n // 2 + 1,)
        self.spacing = self.box_length / n
        # integer mode numbers m per axis, fft ordering 0,1,..,-N/2,..,-1
        m1d = np.fft.fftfreq(n, d=1.0 / n)
        k1d = (2.0 * np.pi / self.box_length) * m1d
        self.mode_numbers = _lines(m1d, dim)
        # odd-order derivatives of real fields need the unpaired Nyquist
        # mode zeroed, else the result picks up a spurious imaginary part
        self.derivative_wavenumbers = _lines(
            np.where(np.abs(m1d) == n // 2, 0.0, k1d), dim)
        self.k_squared = _sum_of_squares(_lines(k1d, dim), self.spectral_shape)
        self.inverse_k_squared = _leray_weight(
            _sum_of_squares(self.derivative_wavenumbers, self.spectral_shape))
        for shared in (self.k_squared, self.inverse_k_squared):
            shared.flags.writeable = False
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


def _shape(grid, representation):
    return grid.spectral_shape if representation == SPECTRAL else grid.shape


class VectorField(object):
    """dim-component field with a physical or spectral representation.

    Physical data is real float64 of shape (dim, N, ..., N); spectral data
    is complex128, the unnormalized DFT in rfftn layout, shape
    (dim, N, ..., N/2+1).  Fields are value-like: the operations in this
    package return new fields and never mutate inputs.
    """

    def __init__(self, grid, data, representation):
        if representation not in (PHYSICAL, SPECTRAL):
            raise ValueError("unknown representation %r" % (representation,))
        data = np.asarray(data)
        if data.shape != (grid.dim,) + _shape(grid, representation):
            raise ValueError("%s data shape %s does not match grid %s"
                             % (representation, data.shape, grid))
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
        return cls(grid, np.zeros((grid.dim,) + _shape(grid, representation), dtype),
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


def _mirror_columns(full, axes):
    """Overwrite the modes past N/2 on the last of `axes` with conj F(-k).

    The source is the half 1 <= m < N/2 on that axis, read through reversed
    slices (m -> N - m on every axis, index 0 being its own mirror).
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


def _pair_planes(spectrum, axes, half):
    """Make the planes m = 0 and m = `half` = N/2 of the last of `axes`
    exactly Hermitian: each is mirrored in turn over the remaining axes, and
    a point equal to its own mirror is made real."""
    *lead, last = axes
    for m in (0, half):
        index = [slice(None)] * spectrum.ndim
        index[last] = slice(m, m + 1)
        plane = spectrum[tuple(index)]
        if lead:
            _mirror_columns(plane, lead)
            _pair_planes(plane, lead, plane.shape[lead[-1]] // 2)
        else:
            plane.imag = 0.0


def half_of(spectrum, axes):
    """The modes 0 <= m <= N/2 of the last of `axes` of a full-size
    spectrum, the only ones real_inverse reads, as a view."""
    index = [slice(None)] * spectrum.ndim
    index[axes[-1]] = slice(0, spectrum.shape[axes[-1]] // 2 + 1)
    return spectrum[tuple(index)]


def _drop_aliased(spectrum, axes, n):
    """Zero, in place, the modes 3|m| >= n of the 2/3 rule on `axes` of n
    points: one slab per axis, m = first ... N - first in index order, which
    covers both signs on the leading axes and is cut off at N/2 on the
    last."""
    first = _first_aliased_mode(n)
    for axis in axes:
        index = [slice(None)] * spectrum.ndim
        index[axis] = slice(first, n - first + 1)
        spectrum[tuple(index)] = 0.0
    return spectrum


def _in_transform_order(allocate, shape, axes, dtype=np.complex128):
    """allocate(shape, dtype) held in transform order: `axes` reversed in
    memory, the first of them contiguous, after the other axes."""
    axes = tuple(axes)
    order = tuple(a for a in range(len(shape)) if a not in axes) + axes[::-1]
    return allocate([shape[a] for a in order], dtype).transpose(np.argsort(order))


def inverse_buffer(shape, axes, dtype=np.complex128):
    """A zeroed array of `shape` held in transform order.  For a spectrum
    that is only inverted, the modes real_inverse reads then form one
    contiguous block per index of the other axes, and the rest, which
    irfftn transforms and discards, holds no stale bytes."""
    return _in_transform_order(np.zeros, shape, axes, dtype)


def full_size(half, axes):
    """A fresh full-size inverse_buffer whose modes 0 <= m <= N/2 of the
    last of `axes` hold `half`, which real_inverse reads as the half."""
    shape = list(half.shape)
    shape[axes[-1]] = 2 * shape[axes[-1]] - 2
    full = inverse_buffer(shape, axes)
    half_of(full, axes)[...] = half
    return full


def half_buffer(shape, axes):
    """An unfilled complex buffer, in transform order, for the spectrum of a
    real array of `shape` over `axes`: what real_forward fills, every
    element, and what the time stepper holds."""
    axes = tuple(axes)
    shape = list(shape)
    shape[axes[-1]] = shape[axes[-1]] // 2 + 1
    return _in_transform_order(np.empty, shape, axes)


def real_forward(data, axes, out=None, dealias=False):
    """Unnormalized DFT of real `data` over `axes`, in rfftn layout.

    rfftn writes the modes 0 <= m <= N/2 of the last axis into `out` (in
    any layout, bit for bit the same; a C-ordered array when not given),
    and the self-paired planes m = 0 and m = N/2 are then made exactly
    Hermitian.  With `dealias` the 2/3 rule zeroes its slabs, which leaves
    dealias(real_forward(...)) bit for bit.
    """
    axes = tuple(axes)
    out = np.fft.rfftn(data, axes=axes, out=out)
    _pair_planes(out, axes, data.shape[axes[-1]] // 2)
    if dealias:
        _drop_aliased(out, axes, data.shape[axes[0]])
    return out


def real_inverse(spectrum, axes, out=None):
    """Inverse DFT over the trailing `axes` of a Hermitian spectrum, the
    rfftn half or a full-size one (full_size), real output.

    N is read from the first of `axes`, as every grid is a cube.  irfftn
    reads only the modes 0 <= m <= N/2 of the last axis and takes the rest
    to be their mirror, so any anti-Hermitian part is dropped.  The spectrum
    may be held in any layout, transform order being the fastest; the result
    is C-ordered whatever the layout, bit for bit the same.
    """
    axes = tuple(axes)
    s = (spectrum.shape[axes[0]],) * len(axes)
    if out is None and not spectrum.flags.c_contiguous:
        # irfftn would return its result in the spectrum's memory order
        out = np.empty(spectrum.shape[:axes[0]] + s, np.float64)
    return np.fft.irfftn(spectrum, s=s, axes=axes, out=out)


def apply_multiplier(field, symbol):
    """A field under the real Fourier multiplier symbol(|k|^2), in its own
    representation: data * symbol(k_squared) for a spectral field.  A physical
    field comes back bit for bit as to_physical of that product, its
    spectrum formed straight into the half of a full-size inverse_buffer."""
    grid = field.grid
    if field.is_spectral:
        return VectorField(grid, field.data * symbol(grid.k_squared), SPECTRAL)
    axes = _spatial_axes(grid)
    # full-size: the benchmark pins the FFT elements of the filter's inverse
    full = inverse_buffer(field.data.shape, axes)
    half = real_forward(field.data, axes, out=half_of(full, axes))
    half *= symbol(grid.k_squared)
    return VectorField(grid, real_inverse(full, axes), PHYSICAL)


def transform(field, direction):
    """Forward (physical -> spectral) or inverse DFT of a field."""
    axes = _spatial_axes(field.grid)
    if direction == FORWARD:
        if field.is_spectral:
            raise ValueError("forward transform needs a physical field")
        return VectorField(field.grid, real_forward(field.data, axes), SPECTRAL)
    if direction == INVERSE:
        if not field.is_spectral:
            raise ValueError("inverse transform needs a spectral field")
        return VectorField(field.grid, real_inverse(field.data, axes), PHYSICAL)
    raise ValueError("direction must be %r or %r" % (FORWARD, INVERSE))


def to_spectral(field):
    return field if field.is_spectral else transform(field, FORWARD)


def to_physical(field):
    """Physical form of a field.

    A spectral field is inverted from its half as it is held.  Its
    self-paired planes m = 0 and m = N/2 must be Hermitian, as every
    spectrum of a real field is: an anti-Hermitian part there is dropped.
    """
    return transform(field, INVERSE) if field.is_spectral else field


def fractional_laplacian_symbol(k_squared, beta):
    """|k|^(2*beta) on an array of |k|^2, with the zero mode explicitly 0."""
    out = np.zeros_like(k_squared)
    nz = k_squared > 0
    out[nz] = k_squared[nz] ** beta
    return out


def helmholtz_symbol(alpha, k_squared):
    """1 + alpha^2 |k|^2 on an array of |k|^2, alpha^2 |k|^2 formed first."""
    symbol = alpha ** 2 * k_squared
    return np.add(symbol, 1.0, out=symbol)


def fractional_laplacian(field, beta):
    """(-Laplace)^beta via the multiplier |k|^(2*beta), in the field's own
    representation; beta must be positive and finite, as in SolverParams."""
    if not (0.0 < beta < np.inf):
        raise ValueError("beta must be positive and finite, got %r" % (beta,))
    return apply_multiplier(field, lambda ksq: fractional_laplacian_symbol(ksq, beta))


def divergence(field):
    """Spectral divergence of a VectorField, as a scalar array; the terms
    1j k_i fh_i are added to 0 in component order, as np.sum adds them."""
    fh = to_spectral(field)
    dh = sum(1j * k * f for k, f in zip(field.grid.derivative_wavenumbers, fh.data))
    return dh if field.is_spectral else real_inverse(dh, range(field.grid.dim))


def curl(field):
    """Curl of a VectorField: a VectorField in 3D, a scalar array in 2D."""
    fh = to_spectral(field)
    k = field.grid.derivative_wavenumbers
    if field.grid.dim == 2:
        ch = 1j * (k[0] * fh.data[1] - k[1] * fh.data[0])
        return ch if field.is_spectral else real_inverse(ch, (0, 1))
    ch = np.stack([
        1j * (k[1] * fh.data[2] - k[2] * fh.data[1]),
        1j * (k[2] * fh.data[0] - k[0] * fh.data[2]),
        1j * (k[0] * fh.data[1] - k[1] * fh.data[0]),
    ])
    out = VectorField(field.grid, ch, SPECTRAL)
    return out if field.is_spectral else to_physical(out)


def dealias(field):
    """Zero every coefficient with 3|m| >= N on any axis (2/3 rule)."""
    if not field.is_spectral:
        raise ValueError("dealias acts on spectral fields")
    grid = field.grid
    return VectorField(grid, _drop_aliased(field.data.copy(), _spatial_axes(grid),
                                           grid.points_per_axis), SPECTRAL)
