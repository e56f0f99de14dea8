import numpy as np
import pytest

from fchsim.spectral import (
    SpectralGrid, VectorField, curl, dealias, gradient, to_physical,
    to_spectral,
)
from fchsim.fields import (
    ch_nonlinear_term, divergence_defect, leray_project, recover_pressure,
    symmetrized_identity_check, _jacobian_physical,
)
from fchsim.integrate import band_random
from fchsim.diagnostics import l2_inner, l2_norm_sq, gradient_norm_sq
from conftest import random_field, random_divfree


def test_leray_divfree_fixed_point(grid64):
    v = random_divfree(grid64, seed=1)
    again = leray_project(v)
    diff = np.max(np.abs(to_physical(again.field).data - v.data))
    assert diff <= 1e-12 * np.max(np.abs(v.data))


def test_leray_kills_gradients(grid64):
    phi = random_field(grid64, seed=2, band=(1, 20)).data[0]
    g = gradient(phi, grid64)
    out = leray_project(g)
    assert np.max(np.abs(out.field.data)) <= 1e-12 * np.max(np.abs(g.data))


def test_leray_output_divergence(grid32):
    v = random_field(grid32, seed=3)
    out = leray_project(v)
    from fchsim.spectral import divergence
    d = divergence(out.field)
    assert np.max(np.abs(d)) <= 1e-12 * np.max(np.abs(out.field.data)) \
        * np.max(np.abs(grid32.wavenumbers))
    assert divergence_defect(out.field) <= 1e-10
    assert out.divergence_free


def test_leray_idempotent(grid32):
    v = random_field(grid32, seed=4)
    once = leray_project(v).field
    twice = leray_project(once).field
    assert np.max(np.abs(once.data - twice.data)) <= 1e-12 * np.max(np.abs(once.data))


def test_leray_self_adjoint(grid32):
    f = random_field(grid32, seed=5)
    g = random_field(grid32, seed=6)
    pf = to_physical(leray_project(f).field)
    pg = to_physical(leray_project(g).field)
    a = l2_inner(pf, g)
    b = l2_inner(f, pg)
    assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1e-30)


def test_nonlinear_term_zero(grid32):
    z = VectorField.zeros(grid32)
    out = ch_nonlinear_term(z, z)
    assert np.max(np.abs(out.data)) == 0.0


def test_nonlinear_term_contracts(grid32):
    u = random_field(grid32, seed=7)
    g2 = SpectralGrid(2, 16, 2 * np.pi)
    with pytest.raises(ValueError):
        ch_nonlinear_term(u, random_field(g2, seed=8))
    with pytest.raises(ValueError):
        ch_nonlinear_term(to_spectral(u), u)


def _jacobian_product(u, v, use_dealias):
    """u.grad(v) + v.grad(u)^T from both full Jacobians, summed per point."""
    grid = u.grid
    dv = _jacobian_physical(grid, to_spectral(v).data)   # dv[i, j] = d_j v_i
    du = _jacobian_physical(grid, to_spectral(u).data)
    out = np.zeros((grid.dim,) + grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            out[i] += u.data[j] * dv[i, j] + v.data[j] * du[j, i]
    nh = to_spectral(VectorField(grid, out, "physical"))
    return dealias(nh) if use_dealias else nh


@pytest.mark.parametrize("use_dealias", [True, False], ids=["dealiased", "aliased"])
@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_streamed_product_matches_jacobian_formula(dim, n, use_dealias):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    u = band_random(grid, seed=31, band=(1.0, 6.0))
    v = band_random(grid, seed=32, band=(2.0, 7.0), amplitude=0.7)
    expected = _jacobian_product(u, v, use_dealias).data
    got = ch_nonlinear_term(u, v, dealias=use_dealias).data
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("seed", range(10))
def test_nonlinear_orthogonality(grid64, seed):
    # <u.grad v + v.grad u^T, u> = 0 for divergence-free pairs
    u = random_divfree(grid64, seed=100 + seed)
    v = random_divfree(grid64, seed=200 + seed)
    n = ch_nonlinear_term(u, v)
    ip = l2_inner(n, to_spectral(u))
    h1 = np.sqrt(l2_norm_sq(v) + gradient_norm_sq(v))
    denom = np.sqrt(l2_norm_sq(u)) * h1 * np.sqrt(l2_norm_sq(u))
    assert abs(ip) / denom <= 1e-9


def test_projected_nonlinearity_energy_neutral(grid64):
    u = random_divfree(grid64, seed=11)
    v = random_divfree(grid64, seed=12)
    pn = leray_project(ch_nonlinear_term(u, v)).field
    ip = l2_inner(pn, to_spectral(u))
    scale = np.sqrt(l2_norm_sq(pn) * l2_norm_sq(u)) + 1e-300
    assert abs(ip) / scale <= 1e-10


def test_vorticity_identity_3d():
    # u.grad v + sum_j v_j grad u_j = -u x curl v + grad(v.u), pointwise;
    # band-limited inputs keep every product fully resolved
    g = SpectralGrid(3, 16, 2 * np.pi)
    u = random_divfree(g, seed=21, band=(1, 3))
    v = random_divfree(g, seed=22, band=(1, 3))
    lhs = to_physical(ch_nonlinear_term(u, v, dealias=False)).data
    w = curl(v)
    uxw = np.stack([
        u.data[1] * w.data[2] - u.data[2] * w.data[1],
        u.data[2] * w.data[0] - u.data[0] * w.data[2],
        u.data[0] * w.data[1] - u.data[1] * w.data[0],
    ])
    s = np.sum(u.data * v.data, axis=0)
    rhs = -uxw + gradient(s, g).data
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


def test_symmetrized_identity_single_mode():
    g = SpectralGrid(2, 32, 2 * np.pi)
    x = g.coordinate_mesh()
    u = VectorField.from_components(g, [np.cos(x[1]), np.zeros(g.shape)])
    assert symmetrized_identity_check(u, u) <= 1e-11


def test_symmetrized_identity_random(grid64):
    u = random_divfree(grid64, seed=31)
    v = random_divfree(grid64, seed=32)
    assert symmetrized_identity_check(u, v) <= 1e-9


def test_symmetrized_identity_zero(grid32):
    z = VectorField.zeros(grid32)
    assert symmetrized_identity_check(z, z) == 0.0


def test_pressure_zero(grid32):
    z = VectorField.zeros(grid32)
    p = recover_pressure(z, z)
    assert np.max(np.abs(p)) == 0.0


def test_pressure_single_mode_oracle():
    # u = a cos(2 x2) e1, v = b cos(3 x1) e2: the source reduces to two
    # oblique modes and p has the closed form below
    g = SpectralGrid(2, 64, 2 * np.pi)
    x = g.coordinate_mesh()
    a, b = 1.3, 0.7
    u = VectorField.from_components(g, [a * np.cos(2 * x[1]), np.zeros(g.shape)])
    v = VectorField.from_components(g, [np.zeros(g.shape), b * np.cos(3 * x[0])])
    p = recover_pressure(u, v)
    expected = -(3 * a * b / 13.0) * (np.cos(3 * x[0] + 2 * x[1])
                                      - np.cos(3 * x[0] - 2 * x[1]))
    expected -= np.mean(expected)
    assert np.max(np.abs(p - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_pressure_gradient_part(grid64):
    # (I - P)[u.grad v - u.grad v^T] = -grad(p + sum u_i v_i)
    u = random_divfree(grid64, seed=41)
    v = random_divfree(grid64, seed=42)
    p = recover_pressure(u, v)
    from fchsim.fields import _jacobian_physical
    vh = np.fft.fftn(v.data, axes=(1, 2))
    dv = _jacobian_physical(grid64, vh)
    w = np.zeros((2,) + grid64.shape)
    for i in range(2):
        for j in range(2):
            w[i] += u.data[j] * (dv[i, j] - dv[j, i])
    # compare mean-free parts: the projector convention zeroes the k=0 mode
    w -= np.mean(w, axis=(1, 2), keepdims=True)
    wf = VectorField(grid64, w, "physical")
    grad_part = wf.data - to_physical(leray_project(wf).field).data
    s = np.sum(u.data * v.data, axis=0)
    q = p + s
    expected = -gradient(q - np.mean(q), grid64).data
    scale = np.max(np.abs(expected)) + np.max(np.abs(wf.data))
    assert np.max(np.abs(grad_part - expected)) / scale <= 1e-9


def test_pressure_requires_divfree(grid32):
    bad = random_field(grid32, seed=51)
    good = random_divfree(grid32, seed=52)
    with pytest.raises(ValueError):
        recover_pressure(bad, good)
