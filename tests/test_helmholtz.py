import numpy as np
import pytest

from fchsim.diagnostics import l2_norm_sq
from fchsim.helmholtz import apply_filter, filter_convergence_curve, filter_identity_residual
from fchsim.spectral import (
    SpectralGrid, VectorField, apply_multiplier, to_physical, to_spectral,
)

from conftest import random_field


def test_params_reject_negative_width(grid32):
    v = random_field(grid32, seed=1)
    with pytest.raises(ValueError):
        apply_filter(v, -0.1)
    with pytest.raises(ValueError):
        apply_filter(v, float("nan"))
    with pytest.raises(ValueError):
        filter_identity_residual(v, -0.1)


def test_zero_width_is_identity(grid32):
    v = random_field(grid32, seed=1)
    u = apply_filter(v, 0.0)
    assert np.array_equal(u.data, v.data)


def test_single_mode_coefficient(grid32):
    # |k| = 2, alpha = 1: the mode shrinks by exactly 1/5
    x = grid32.coordinate_mesh()
    v = VectorField(grid32, np.stack([np.cos(2 * x[0]), np.zeros(grid32.shape)]), "physical")
    u = apply_filter(v, 1.0)
    assert np.max(np.abs(u.data - v.data / 5.0)) <= 1e-13


def test_substitute_back(grid64):
    v = to_spectral(random_field(grid64, seed=7))
    u = apply_filter(v, 0.35)
    resid = u.data - 0.35**2 * apply_multiplier(u, np.negative).data - v.data
    assert np.max(np.abs(resid)) / np.max(np.abs(v.data)) <= 1e-12


def test_identity_residual_small(grid64):
    v = random_field(grid64, seed=3)
    for m in (0, 1, 2):
        assert filter_identity_residual(v, 0.3, m=m) <= 1e-12


def test_identity_residual_zero_width(grid32):
    v = random_field(grid32, seed=4)
    assert filter_identity_residual(v, 0.0) == 0.0


def test_identity_residual_single_mode(grid32):
    x = grid32.coordinate_mesh()
    v = VectorField(grid32, np.stack([np.sin(3 * x[1]), np.zeros(grid32.shape)]), "physical")
    assert filter_identity_residual(v, 0.8, m=1) <= 1e-14


def test_identity_residual_rejects_bad_order(grid32):
    v = random_field(grid32, seed=5)
    with pytest.raises(ValueError):
        filter_identity_residual(v, 0.1, m=-1)


def test_filter_contracts_l2():
    grid = SpectralGrid(2, 16, 2 * np.pi)
    for seed in range(100):
        v = random_field(grid, seed=seed)
        u = apply_filter(v, 0.25)
        assert l2_norm_sq(u) <= l2_norm_sq(v) * (1 + 1e-13)


def test_distance_monotone_in_width(grid32):
    v = random_field(grid32, seed=9)
    pairs, _ = filter_convergence_curve(v, [0.4, 0.2, 0.1, 0.05])
    dists = [d for _, d in pairs]
    assert dists == sorted(dists, reverse=True)


def test_single_mode_distance_closed_form(grid32):
    x = grid32.coordinate_mesh()
    v = VectorField(grid32, np.stack([np.cos(2 * x[0]), np.zeros(grid32.shape)]), "physical")
    norm_v = np.sqrt(l2_norm_sq(v))
    for a in (0.5, 0.1):
        pairs, _ = filter_convergence_curve(v, [a])
        expected = a**2 * 4.0 / (1 + a**2 * 4.0) * norm_v
        assert abs(pairs[0][1] - expected) / expected <= 1e-12


def test_smooth_field_quadratic_rate(grid64):
    # low-mode data sits in the alpha^2 regime
    v = to_physical(random_field(grid64, seed=11, band=(0, 3)))
    alphas = [0.1, 0.05, 0.025, 0.0125]
    _, slope = filter_convergence_curve(v, alphas)
    assert abs(slope - 2.0) <= 0.1


def test_rate_never_below_fractional_floor(grid64):
    # one-sided bound: slope >= beta/2 - gamma with p = q = 2, gamma = 0.
    # Widths small enough that even the top grid mode is in the convergence
    # regime; larger widths saturate and the fit says nothing.
    v = random_field(grid64, seed=12)
    _, slope = filter_convergence_curve(v, [0.01, 0.005, 0.0025])
    beta = 0.75
    assert slope >= beta / 2.0 - 1e-12


def test_curve_rejects_empty_and_nonpositive(grid32):
    v = random_field(grid32, seed=13)
    with pytest.raises(ValueError):
        filter_convergence_curve(v, [])
    with pytest.raises(ValueError):
        filter_convergence_curve(v, [0.1, -0.2])
