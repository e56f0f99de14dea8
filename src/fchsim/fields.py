"""Incompressible vector calculus on spectral grids.

Leray projection onto divergence-free fields, the filtered-advection
nonlinear term u.grad(v) + v.grad(u)^T, the symmetrization identity
behind pressure elimination, and diagnostic pressure recovery.

Index convention used throughout: (v.grad(u)^T)_i = sum_j v_j d_i u_j,
while (u.grad(v))_i = sum_j u_j d_j v_i.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    SPECTRAL, VectorField, dealias as dealias_modes, real_forward, to_physical,
    to_spectral, _scalar_forward, _scalar_inverse,
)


@dataclass
class ProjectedField:
    """A spectral VectorField carrying a divergence-free certificate."""
    field: VectorField
    divergence_free: bool = True


def divergence_defect(field):
    """Normalized spectral divergence residual max|k.vhat| / max(|vhat||k|)."""
    fh = to_spectral(field)
    k = field.grid.derivative_wavenumbers
    num = np.max(np.abs(np.sum(1j * k * fh.data, axis=0)))
    den = np.max(np.abs(fh.data) * np.sqrt(np.sum(k * k, axis=0)))
    return float(num / den) if den > 0 else 0.0


def leray_project(v):
    """Per-mode projection vhat -> (I - k k^T/|k|^2) vhat.

    The zero mode is forced to zero (mean-free velocity convention), which
    also removes the 0/0 in the projector there.
    """
    vh = to_spectral(v).data
    grid = v.grid
    k = grid.derivative_wavenumbers
    # one component at a time: no (dim, N^n) temporaries
    kdotv = k[0] * vh[0]
    for i in range(1, grid.dim):
        kdotv += k[i] * vh[i]
    kdotv *= grid.inverse_k_squared
    data = np.empty_like(vh)
    for i in range(grid.dim):
        np.multiply(k[i], kdotv, out=data[i])
        np.subtract(vh[i], data[i], out=data[i])
    data[(slice(None),) + (0,) * grid.dim] = 0.0
    out = VectorField(grid, data, SPECTRAL)
    return ProjectedField(out, divergence_free=True)


def _jacobian_physical(grid, fh_data):
    """All partial derivatives d_j f_i in physical space, shape (dim, dim, ...)."""
    dim = grid.dim
    k = grid.derivative_wavenumbers
    out = np.empty((dim, dim) + grid.shape)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = _scalar_inverse(grid, 1j * k[j] * fh_data[i])
    return out


def ch_nonlinear_term(u, v, dealias=True):
    """N(u, v) = u.grad(v) + v.grad(u)^T, un-projected, spectral output.

    Products are formed pointwise in physical space, derivatives taken
    spectrally, and the result dealiased (2/3 rule) unless disabled.  The
    Jacobians are streamed: each derivative d_b v_a and d_b u_a goes through
    one reused spectral and one reused physical buffer and is folded into
    the product at once, as u_b d_b v_a into component a and v_a d_b u_a
    into component b.
    """
    if u.grid != v.grid:
        raise ValueError("u and v live on different grids")
    if u.is_spectral or v.is_spectral:
        raise ValueError("ch_nonlinear_term expects physical inputs")
    grid = u.grid
    dim = grid.dim
    axes = tuple(range(1, dim + 1))
    uh = real_forward(u.data, axes)
    vh = real_forward(v.data, axes)
    # The inverse reads only the modes 0 <= m <= N/2 of the last axis, so
    # i k_b fhat_a is formed there alone; the rest of the buffer stays 0.
    half = (Ellipsis, slice(0, grid.points_per_axis // 2 + 1))
    ik = 1j * grid.derivative_wavenumbers[half]
    spectrum = np.zeros(grid.shape, np.complex128)
    derivative = np.empty(grid.shape)
    out = np.zeros((dim,) + grid.shape)
    for a in range(dim):
        for b in range(dim):
            for fh, factor, target in ((vh, u.data[b], a), (uh, v.data[a], b)):
                np.multiply(ik[b], fh[a][half], out=spectrum[half])
                _scalar_inverse(grid, spectrum, out=derivative)
                derivative *= factor
                out[target] += derivative
    nh = VectorField(grid, real_forward(out, axes), SPECTRAL)
    return dealias_modes(nh) if dealias else nh


def advection_term(v, dealias=True):
    """Plain self-advection v.grad(v), un-projected, spectral output."""
    if v.is_spectral:
        raise ValueError("advection_term expects a physical input")
    grid = v.grid
    dim = grid.dim
    axes = tuple(range(1, dim + 1))
    dv = _jacobian_physical(grid, real_forward(v.data, axes))
    out = np.zeros((dim,) + grid.shape)
    for i in range(dim):
        for j in range(dim):
            out[i] += v.data[j] * dv[i, j]
    nh = VectorField(grid, real_forward(out, axes), SPECTRAL)
    return dealias_modes(nh) if dealias else nh


def symmetrized_identity_check(u, v):
    """Relative max-norm residual of grad(sum_i u_i v_i) = u.grad(v)^T + v.grad(u)^T.

    Both sides are compared on the dealiased (2/3-rule) modes, where the
    quadratic products are alias-free; that is the subspace the dynamics
    lives on.  Returns 0 for identically zero inputs.
    """
    if u.is_spectral or v.is_spectral:
        raise ValueError("physical representation expected")
    grid = u.grid
    dim = grid.dim
    mask = grid.dealias_mask
    s = np.sum(u.data * v.data, axis=0)
    sh = _scalar_forward(grid, s)
    k = grid.derivative_wavenumbers
    du = _jacobian_physical(grid, to_spectral(u).data)
    dv = _jacobian_physical(grid, to_spectral(v).data)
    worst_num = 0.0
    worst_den = 0.0
    for i in range(dim):
        lhs = _scalar_inverse(grid, 1j * k[i] * sh * mask)
        rhs = np.zeros(grid.shape)
        for j in range(dim):
            rhs += u.data[j] * dv[j, i] + v.data[j] * du[j, i]
        rhs = _scalar_inverse(grid, _scalar_forward(grid, rhs) * mask)
        worst_num = max(worst_num, float(np.max(np.abs(lhs - rhs))))
        worst_den = max(worst_den, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    return worst_num / worst_den if worst_den > 0 else 0.0


def recover_pressure(u, v):
    """Diagnostic pressure from -Laplace(p + sum u_i v_i) = div(u.grad(v) - u.grad(v)^T).

    Inputs must be divergence-free.  Returns p as a zero-mean physical
    scalar array.  A non-decaying source (nonzero mean right side) is a
    contract violation and raises.
    """
    grid = u.grid
    dim = grid.dim
    k = grid.derivative_wavenumbers
    for name, f in (("u", u), ("v", v)):
        if divergence_defect(f) > 1e-6:
            raise ValueError("%s is not divergence-free; project it first" % name)
    up = to_physical(u)
    vp = to_physical(v)
    dv = _jacobian_physical(grid, to_spectral(vp).data)
    adv = np.zeros((dim,) + grid.shape)      # u.grad(v)
    advT = np.zeros((dim,) + grid.shape)     # (u.grad(v)^T)_i = sum_j u_j d_i v_j
    for i in range(dim):
        for j in range(dim):
            adv[i] += up.data[j] * dv[i, j]
            advT[i] += up.data[j] * dv[j, i]
    wh = real_forward(adv - advT, range(1, dim + 1))
    div_h = np.sum(1j * k * wh, axis=0)
    zero = (0,) * dim
    scale = np.max(np.abs(div_h)) + np.max(np.abs(wh))
    if abs(div_h[zero]) > 1e-10 * (scale + 1e-300) * grid.points_per_axis ** dim:
        raise ValueError("source term has a nonzero mean; pressure undefined")
    qh = div_h * grid.inverse_k_squared   # q = p + sum u_i v_i solves -Lap q = div w
    qh[zero] = 0.0
    s = np.sum(up.data * vp.data, axis=0)
    p = _scalar_inverse(grid, qh) - s
    return p - np.mean(p)
