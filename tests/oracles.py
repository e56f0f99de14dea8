"""Reference operators that only the tests need, each in its smallest form on
the package's own building blocks: the scalar gradient, the mirrored full
spectrum and the realness defect it exposes, and the symmetrization identity
behind pressure elimination."""

import numpy as np

from fchsim.fields import _jacobian_physical
from fchsim.spectral import (
    VectorField, _mirror_columns, dealias, full_size, real_forward, to_physical,
    to_spectral,
)


def gradient(phi, grid):
    """grad phi of a real scalar array, as a physical VectorField: row 0 of
    the Jacobian of the field (phi, 0, ...)."""
    field = np.zeros((grid.dim,) + grid.shape)
    field[0] = phi
    spectrum = real_forward(field, range(1, grid.dim + 1))
    return VectorField(grid, _jacobian_physical(grid, spectrum)[0], "physical")


def hermitian_spectrum(half, axes):
    """The full-size spectrum (full_size) whose modes past N/2 of the last of
    `axes` are the mirror images conj F(-k) of the modes 1 <= m < N/2; both
    self-paired planes are copied as they are."""
    full = full_size(half, axes)
    _mirror_columns(full, axes)
    return full


def hermitian_defect(field):
    """Max imaginary part of the complex inverse DFT of a spectral field's
    mirrored spectrum.  The mirror copies the self-paired planes m = 0 and
    m = N/2 as they are and irfftn drops their anti-Hermitian part, so this
    is zero (to roundoff) exactly when the half represents a real field."""
    axes = tuple(range(1, field.grid.dim + 1))
    back = np.fft.ifftn(hermitian_spectrum(field.data, axes), axes=axes)
    return float(np.max(np.abs(back.imag)))


def symmetrized_identity_check(u, v):
    """Relative max-norm residual of grad(u.v) = u.grad(v)^T + v.grad(u)^T
    for physical u and v, both sides compared on the modes the 2/3 rule
    keeps, where the quadratic products are alias-free; 0 for zero inputs."""
    grid = u.grid
    axes = range(1, grid.dim + 1)
    du = _jacobian_physical(grid, real_forward(u.data, axes))
    dv = _jacobian_physical(grid, real_forward(v.data, axes))
    rhs = (np.einsum("j...,ji...->i...", u.data, dv)
           + np.einsum("j...,ji...->i...", v.data, du))
    lhs = gradient(np.sum(u.data * v.data, axis=0), grid).data
    lhs, rhs = (to_physical(dealias(to_spectral(VectorField(grid, side, "physical")))).data
                for side in (lhs, rhs))
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale) if scale > 0 else 0.0
