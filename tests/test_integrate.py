import warnings

import numpy as np
import pytest

from fchsim.diagnostics import gradient_norm_sq, l2_norm_sq
from fchsim.fields import advection_term, ch_nonlinear_term, divergence_defect, leray_project
from fchsim.integrate import (
    _advance,
    _ifrk4,
    _integrating_factors,
    _rhs_filtered,
    BlowUpError,
    SimState,
    SolverParams,
    band_random,
    cfl_timestep,
    prepare_initial_state,
    run,
    scaled_bump,
    stream_bump,
)
from fchsim.spectral import SpectralGrid, VectorField, hermitian_defect, to_physical, to_spectral

from conftest import random_divfree


def make_params(**kw):
    base = dict(nu=0.1, beta=0.75, alpha=0.5, dt=0.01, t_end=0.1)
    base.update(kw)
    return SolverParams(**base)


def stepper(grid, params):
    """One step of length params.dt, as run takes it."""
    factors = _integrating_factors(grid, params, params.dt)
    rhs = _rhs_filtered(grid, params.alpha, params.dealias)
    return lambda state: _advance(state, params.dt, factors, rhs)


def test_params_validation():
    for bad in (
        dict(nu=0.0),
        dict(nu=-1.0),
        dict(beta=0.0),
        dict(alpha=-0.1),
        dict(dt=0.0),
        dict(dt=0.2, t_end=0.1),
        dict(t_end=-1.0),
        dict(nu=float("nan")),
    ):
        with pytest.raises(ValueError):
            make_params(**bad)
    make_params(t_end=0.0)  # zero-length run is allowed


def test_beta_range_warning(grid32):
    v = random_divfree(grid32, seed=1, amplitude=0.1)
    with pytest.warns(UserWarning):
        run(v, make_params(beta=0.3, dt=0.01, t_end=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(v, make_params(beta=0.75, dt=0.01, t_end=0.01))


def test_zero_field_stays_zero(grid32):
    for alpha in (0.5, 0.0):
        params = make_params(alpha=alpha)
        state = prepare_initial_state(VectorField.zeros(grid32), params)
        step = stepper(grid32, params)
        for _ in range(3):
            state = step(state)
        assert np.all(state.v.field.data == 0)


def test_single_mode_linear_decay_exact(grid32):
    # a single shear mode has an identically vanishing projected
    # nonlinearity, so the integrating factor is the whole dynamics
    x = grid32.coordinate_mesh()
    a = 0.7
    v0 = VectorField(grid32, np.stack([a * np.cos(2 * x[1]), np.zeros(grid32.shape)]), "physical")
    params = make_params(nu=1.0, beta=0.5, alpha=0.3, dt=0.01, t_end=0.5)
    state = prepare_initial_state(v0, params)
    step = stepper(grid32, params)
    for _ in range(50):
        state = step(state)
    peak = np.max(np.abs(to_physical(state.v.field).data))
    expected = a * np.exp(-2.0 * 0.5)  # |k|^(2 beta) = 2
    assert abs(peak - expected) / expected <= 1e-12


def test_alpha_zero_matches_plain_stepper(grid32):
    # at alpha = 0 the projection removes (grad v)^T v = grad(|v|^2 / 2), so
    # the filtered right-hand side is the plain self-advection one
    v0 = random_divfree(grid32, seed=5, amplitude=0.5, band=(1.0, 6.0))
    params = make_params(alpha=0.0, nu=0.05, dt=0.005)
    state = prepare_initial_state(v0, params)
    step = stepper(grid32, params)
    for _ in range(20):
        v = to_physical(state.v.field)
        filtered = leray_project(ch_nonlinear_term(v, v)).field.data
        plain = leray_project(advection_term(v)).field.data
        assert np.max(np.abs(filtered - plain)) / np.max(np.abs(plain)) <= 1e-12
        state = step(state)


def test_self_convergence_order_at_least_two(grid32):
    v0 = random_divfree(grid32, seed=8, amplitude=1.0, band=(1.0, 5.0))
    t_end = 0.1

    def final_state(dt):
        params = make_params(nu=0.05, alpha=0.4, dt=dt, t_end=t_end)
        return run(v0, params).state.v.field.data

    ref = final_state(0.00125)
    errs = [np.max(np.abs(final_state(dt) - ref)) for dt in (0.02, 0.01, 0.005)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[0] > errs[1] > errs[2]
    assert min(orders) >= 2.0


def test_discrete_energy_law_order(grid32):
    v0 = random_divfree(grid32, seed=9, amplitude=1.0, band=(1.0, 5.0))

    def max_residual(dt):
        params = make_params(nu=0.1, alpha=0.5, dt=dt, t_end=0.2)
        rec = run(v0, params).records
        out = 0.0
        for a, b in zip(rec, rec[1:]):
            out = max(out, abs(b.E - a.E + 2 * params.nu * dt * 0.5 * (a.D + b.D)))
        return out

    r1, r2 = max_residual(0.01), max_residual(0.005)
    assert r1 / r2 >= 5.0  # local residual is O(dt^3): halving gains ~8x


def test_energy_monotone(grid64):
    v0 = random_divfree(grid64, seed=10, amplitude=1.0, band=(2.0, 6.0))
    params = make_params(nu=0.05, alpha=0.5, dt=0.01, t_end=0.5)
    rec = run(v0, params).records
    e0 = rec[0].E
    for a, b in zip(rec, rec[1:]):
        assert b.E <= a.E + 1e-12 * e0


def test_run_zero_horizon(grid32):
    v0 = random_divfree(grid32, seed=11)
    summary = run(v0, make_params(t_end=0.0))
    assert summary.steps == 0
    assert summary.state.t == 0.0
    assert len(summary.records) == 1


def test_observer_stride_counting(grid32):
    v0 = random_divfree(grid32, seed=12, amplitude=0.2)
    params = make_params(dt=0.01, t_end=1.0)
    summary = run(v0, params, observers=[lambda s: s.t], stride=10)
    assert summary.steps == 100
    assert len(summary.records) == 11
    times = summary.observations[0]
    assert len(times) == 11
    assert times[0] == 0.0
    assert abs(times[-1] - 1.0) <= 1e-12


def test_run_lands_on_uneven_horizon(grid32):
    v0 = random_divfree(grid32, seed=13, amplitude=0.2)
    summary = run(v0, make_params(dt=0.01, t_end=0.105))
    assert summary.steps == 11
    assert abs(summary.state.t - 0.105) <= 1e-12
    assert abs(summary.records[-1].t - 0.105) <= 1e-12


def test_blow_up_raises_with_partial_records(grid32):
    v0 = band_random(grid32, seed=14, band=(1.0, 4.0), amplitude=50.0)
    params = make_params(nu=1e-4, alpha=0.0, dt=0.5, t_end=5.0)
    with pytest.raises(BlowUpError) as info:
        run(v0, params)
    assert info.value.t > 0.0
    assert len(info.value.records) >= 1


def test_state_stays_real_and_divergence_free(grid32):
    v0 = random_divfree(grid32, seed=15, amplitude=0.8, band=(1.0, 6.0))
    params = make_params(dt=0.01, t_end=0.2)
    state = run(v0, params).state
    assert hermitian_defect(state.v.field) <= 1e-10
    assert divergence_defect(state.v.field) <= 1e-10


def test_bitwise_deterministic(grid32):
    v0 = band_random(grid32, seed=16, band=(1.0, 5.0), amplitude=0.7)
    params = make_params(dt=0.01, t_end=0.1)
    a = run(v0, params)
    b = run(band_random(grid32, seed=16, band=(1.0, 5.0), amplitude=0.7), params)
    assert np.array_equal(a.state.v.field.data, b.state.v.field.data)
    assert [r.E for r in a.records] == [r.E for r in b.records]


def test_bitwise_deterministic_on_two_lanes():
    # 256^2 reaches fields.THREADED_MIN_POINTS: on two or more CPUs the
    # nonlinear product runs one lane on a worker thread
    grid = SpectralGrid(2, 256, 2 * np.pi)
    params = make_params(nu=0.02, alpha=0.1, dt=0.005, t_end=0.015)
    a, b = (run(band_random(grid, seed=18, band=(2.0, 4.0)), params) for _ in range(2))
    assert a.steps == 3
    assert np.array_equal(a.state.v.field.data, b.state.v.field.data)
    assert a.records == b.records


def _reference_ifrk4(vhat, h, phi, phi_half, rhs):
    # the one-line integrating-factor RK4 step that _ifrk4 does in low storage
    n1 = rhs(vhat)
    n2 = rhs(phi_half * (vhat + (0.5 * h) * n1))
    n3 = rhs(phi_half * vhat + (0.5 * h) * n2)
    n4 = rhs(phi * vhat + h * phi_half * n3)
    return phi * vhat + (h / 6.0) * (phi * n1 + 2.0 * phi_half * (n2 + n3) + n4)


@pytest.mark.parametrize("dim, n, alpha, h", [
    (2, 32, 0.5, 0.01), (3, 16, 0.0, 0.01), (2, 32, 0.5, 0.0037),
], ids=["2d-alpha", "3d-alpha0", "2d-closing-step"])
def test_low_storage_step_matches_reference_bitwise(dim, n, alpha, h):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    params = make_params(alpha=alpha, dt=0.01)
    vhat = prepare_initial_state(band_random(grid, seed=19, band=(1.0, 6.0)),
                                 params).v.field.data
    before = vhat.copy()
    factors = _integrating_factors(grid, params, h)
    rhs = _rhs_filtered(grid, alpha, True)
    got = _ifrk4(vhat, h, *factors, rhs)
    assert np.array_equal(got, _reference_ifrk4(vhat, h, *factors, rhs))
    assert np.array_equal(vhat, before)     # the input state is not touched


def test_cfl_helper(grid32):
    v0 = random_divfree(grid32, seed=17, amplitude=2.0)
    speed = np.max(np.sqrt(np.sum(v0.data**2, axis=0)))
    assert abs(cfl_timestep(v0) - 0.5 * grid32.spacing / speed) <= 1e-15
    assert cfl_timestep(VectorField.zeros(grid32)) == float("inf")


def test_stream_bump_closed_form():
    grid = SpectralGrid(2, 128, 50.0)
    w, peak = 2.0, 0.8
    v = stream_bump(grid, width=w, peak_speed=peak)
    assert divergence_defect(to_spectral(v)) <= 1e-8
    assert abs(np.max(np.sqrt(np.sum(v.data**2, axis=0))) - peak) / peak <= 2e-2
    # ||v||^2 = pi e w^2 peak^2 for the Gaussian-stream bump
    exact = np.pi * np.e * w**2 * peak**2
    got = grid.cell_volume * np.sum(v.data**2)
    assert abs(got - exact) / exact <= 1e-8


def test_scaled_family_identities():
    grid = SpectralGrid(2, 128, 100.0)
    base = scaled_bump(grid, 1.0, width=3.0, peak_speed=0.1)
    l2_base = l2_norm_sq(base)
    grad_base = gradient_norm_sq(to_spectral(base))
    for eps in (0.5, 0.25):
        member = scaled_bump(grid, eps, width=3.0, peak_speed=0.1)
        # box truncation of the widened bump costs ~1e-7 at eps = 1/4
        assert abs(np.sqrt(l2_norm_sq(member) / l2_base) - 1.0) <= 1e-6
        ratio = np.sqrt(gradient_norm_sq(to_spectral(member)) / grad_base)
        assert abs(ratio - eps) <= 1e-4


def test_band_random_properties(grid32):
    v = band_random(grid32, seed=3, band=(2.0, 5.0), amplitude=0.9)
    fh = np.fft.fftn(v.data, axes=(1, 2))
    mag = np.sqrt(np.sum(grid32.mode_numbers**2, axis=0))
    outside = (mag < 2.0) | (mag > 5.0)
    assert np.max(np.abs(fh[:, outside])) <= 1e-9 * np.max(np.abs(fh))
    assert divergence_defect(to_spectral(v)) <= 1e-10
    assert abs(np.max(np.sqrt(np.sum(v.data**2, axis=0))) - 0.9) <= 1e-12
    again = band_random(grid32, seed=3, band=(2.0, 5.0), amplitude=0.9)
    assert np.array_equal(v.data, again.data)
    with pytest.raises(ValueError):
        band_random(grid32, seed=3, band=(4.0, 2.0))


def test_datum_validation(grid32):
    with pytest.raises(ValueError):
        stream_bump(SpectralGrid(3, 16, 10.0), width=1.0)
    with pytest.raises(ValueError):
        scaled_bump(grid32, 0.0, width=1.0)
    with pytest.raises(ValueError):
        stream_bump(grid32, width=-1.0)
