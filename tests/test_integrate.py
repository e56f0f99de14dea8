import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from fchsim import integrate
from fchsim.diagnostics import (
    gradient_norm_sq, l2_norm_sq, linear_decay_curve, mode_power,
)
from fchsim.fields import advection_term, ch_nonlinear_term, divergence_defect, leray_project
from fchsim.helmholtz import apply_filter
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
from fchsim.spectral import (
    SPECTRAL, SpectralGrid, VectorField, fractional_laplacian_symbol,
    full_size, half_buffer, hermitian_defect, hermitian_spectrum, to_physical,
    to_spectral,
)

from conftest import dense_lattice, random_divfree, random_field, rfft_half


def make_params(**kw):
    base = dict(nu=0.1, beta=0.75, alpha=0.5, dt=0.01, t_end=0.1)
    base.update(kw)
    return SolverParams(**base)


def held(spectrum):
    """The state run steps: a C-ordered spectrum copied into a compact
    transform-order half_buffer."""
    axes = tuple(range(1, spectrum.ndim))
    vhat = half_buffer(spectrum.shape[:-1] + (2 * spectrum.shape[-1] - 2,), axes)
    vhat[...] = spectrum
    return vhat


def stepper(grid, params):
    """One step of length params.dt, as run takes it, from and to a
    C-ordered state."""
    factors = _integrating_factors(grid, params, params.dt)
    rhs = _rhs_filtered(grid, params.alpha, params.dealias)
    return lambda state: integrate._snapshot(
        state.t + params.dt,
        _advance(held(state.v.field.data), params.dt, factors, rhs), grid)


def _transform_ordered(array):
    # the spatial axes reversed in memory, the first one contiguous
    strides = array.strides[1:]
    return strides[0] == array.itemsize and list(strides) == sorted(strides)


def _compact_transform_ordered(array):
    # transform order with no gaps: read in memory order, C-contiguous
    order = (0,) + tuple(range(array.ndim - 1, 0, -1))
    return array.transpose(order).flags.c_contiguous


def test_transform_order_stays_inside_the_fft_layer(monkeypatch):
    # Spectra that are only inverted (every compact stage argument and the
    # full-size copy rhs pads it into), the product's output, the stage
    # results and the compact state the stepper holds are held with their
    # axes reversed in memory; every physical array the step multiplies, the
    # filter's output and every state run hands out stay C-ordered (a
    # reversed u or v slows the product).
    grid = SpectralGrid(2, 16, 2.0 * np.pi)
    params = make_params(alpha=0.3, t_end=0.02)
    seen, staged, padded, results, products, steps = [], [], [], [], [], []

    def spy(u, v, dealias=True):
        seen.append((u.data.flags.c_contiguous, v.data.flags.c_contiguous))
        products.append(ch_nonlinear_term(u, v, dealias=dealias).data)
        return VectorField(u.grid, products[-1], SPECTRAL)

    def spied_rhs(*args):
        rhs = _rhs_filtered(*args)

        def traced(handed):
            staged.append((handed[0].shape, _compact_transform_ordered(handed[0])))
            results.append(rhs(handed))
            return results[-1]
        return traced

    def spied_full_size(half, axes):
        full = full_size(half, axes)
        padded.append((full.shape, _transform_ordered(full)))
        return full

    def spied_advance(*args):
        steps.append(_advance(*args))
        return steps[-1]

    monkeypatch.setattr(integrate, "full_size", spied_full_size)
    monkeypatch.setattr(integrate, "ch_nonlinear_term", spy)
    monkeypatch.setattr(integrate, "_rhs_filtered", spied_rhs)
    monkeypatch.setattr(integrate, "_advance", spied_advance)
    states = []
    run(random_divfree(grid, seed=8), params, observers=[states.append])
    assert seen == [(True, True)] * 8
    assert staged == [((2, 16, 9), True)] * 8
    assert padded == [((2, 16, 16), True)] * 8
    assert len(steps) == 2 and len(results) == 8
    for half in steps + results:
        assert half.shape == (2, 16, 9) and _compact_transform_ordered(half)
    assert all(map(_transform_ordered, products))
    assert len(states) == 3
    assert all(s.v.field.data.flags.c_contiguous for s in states)
    assert apply_filter(to_physical(states[0].v.field), 0.3).data.flags.c_contiguous


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
    times = []
    summary = run(v0, params, observers=[lambda s: times.append(s.t)], stride=10)
    assert summary.steps == 100
    assert len(summary.records) == 11
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


@pytest.mark.parametrize("dim, n, alpha", [(2, 32, 0.5), (3, 16, 0.0)],
                         ids=["2d-alpha", "3d-alpha0"])
def test_linear_records_match_linear_decay_curve(monkeypatch, dim, n, alpha):
    # with the nonlinear term off the run is the linear semigroup, so every
    # record reads the same ledger as linear_decay_curve, to roundoff; the
    # uneven horizon takes in the closing step's own factors
    def zero(u, v, dealias=True):
        return VectorField.zeros(u.grid, SPECTRAL)

    monkeypatch.setattr(integrate, "ch_nonlinear_term", zero)
    grid = SpectralGrid(dim, n, 2 * np.pi)
    params = make_params(alpha=alpha, dt=0.01, t_end=0.305)
    v0 = band_random(grid, seed=21, band=(1.0, 5.0))
    records = run(v0, params, stride=3).records
    assert len(records) == 12
    times = [rec.t for rec in records]
    curves = linear_decay_curve(prepare_initial_state(v0, params).v.field,
                                params, times)
    for name in ("E", "v_l2", "gradv_l2"):
        got = np.array([getattr(rec, name) for rec in records])
        assert np.max(np.abs(got - curves[name]) / curves[name]) <= 1e-12, name


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_mode_power_is_the_plain_sum_bit_for_bit(dim, n):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    vhat = to_spectral(band_random(grid, seed=23, band=(1.0, 6.0))).data
    assert np.array_equal(mode_power(vhat), np.sum(np.abs(vhat) ** 2, axis=0))


def test_non_finite_coefficient_blows_up_at_its_step(grid32, monkeypatch):
    # a NaN in the fourth stage of the third step reaches the state; the
    # per-step energy check stops the run at that step's time, with the
    # records of the steps before it
    calls = []

    def poisoned(u, v, dealias=True):
        out = ch_nonlinear_term(u, v, dealias=dealias)
        calls.append(None)
        if len(calls) == 12:
            out.data[(0,) + (1, 2) + (0,) * (grid32.dim - 2)] = np.nan
        return out

    monkeypatch.setattr(integrate, "ch_nonlinear_term", poisoned)
    params = make_params(dt=0.01, t_end=0.1)
    with pytest.raises(BlowUpError) as info:
        run(random_divfree(grid32, seed=22, amplitude=0.5), params)
    assert len(calls) == 12
    assert info.value.t == pytest.approx(0.03, rel=1e-12)
    assert [rec.t for rec in info.value.records] == pytest.approx([0.0, 0.01, 0.02])
    assert all(np.isfinite(rec.E) for rec in info.value.records)


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


# Minor page faults of each step after the first, through run, in a fresh
# process: with glibc's dynamic thresholds every RK stage handed its big
# arrays back to the kernel, about 1.25k faults per 128^2 step.
STEP_FAULTS = """
import resource
import numpy as np
from fchsim.integrate import SolverParams, band_random, hold_freed_memory, run
from fchsim.spectral import SpectralGrid
faults = []
def observe(state):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
grid = SpectralGrid(2, 128, 2 * np.pi)
params = SolverParams(nu=0.02, beta=0.75, alpha=0.1, dt=0.005, t_end=0.03)
run(band_random(grid, seed=1), params, observers=[observe])
print(hold_freed_memory(), max(np.diff(faults)[1:]))
"""


def test_steps_fault_in_no_memory_after_a_warm_up_step():
    proc = subprocess.run([sys.executable, "-c", STEP_FAULTS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    held, faults = proc.stdout.split()
    if held != "True":
        pytest.skip("the allocator has no glibc mallopt")
    assert int(faults) < 100


class _FakeLibc:
    def __init__(self, answer):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.mark.parametrize("answer, held", [(1, True), (0, False)])
def test_hold_freed_memory_sets_both_thresholds_once(monkeypatch, answer, held):
    libc = _FakeLibc(answer)
    monkeypatch.setattr(integrate, "_freed_memory_held", None)
    monkeypatch.setattr(integrate.ctypes, "CDLL", lambda name: libc)
    assert integrate.hold_freed_memory() is held
    assert integrate.hold_freed_memory() is held
    # setting either one alone would turn off the dynamic thresholds and
    # leave the other at its default
    assert libc.calls == [(-3, 32 * 2 ** 20), (-1, 256 * 2 ** 20)]


@pytest.mark.parametrize("error", [OSError, AttributeError, TypeError])
def test_hold_freed_memory_is_a_no_op_without_mallopt(monkeypatch, error):
    def missing(name):
        raise error("no mallopt")

    monkeypatch.setattr(integrate, "_freed_memory_held", None)
    monkeypatch.setattr(integrate.ctypes, "CDLL", missing)
    assert integrate.hold_freed_memory() is False


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
    # on the compact half spectrum, each stage argument handed to rhs as it is
    grid = SpectralGrid(dim, n, 2 * np.pi)
    params = make_params(alpha=alpha, dt=0.01)
    vhat = held(prepare_initial_state(
        band_random(grid, seed=19, band=(1.0, 6.0)), params).v.field.data)
    before = vhat.copy()
    factors = _integrating_factors(grid, params, h)
    rhs = _rhs_filtered(grid, alpha, True)
    got = _ifrk4(vhat, h, *factors, rhs)
    expected = _reference_ifrk4(vhat, h, *factors, lambda half: rhs([half]))
    # the new state is a compact half in the state's own layout
    assert got.shape == (dim,) + (n,) * (dim - 1) + (n // 2 + 1,)
    assert _compact_transform_ordered(got)
    assert np.array_equal(got, expected)
    assert np.array_equal(vhat, before)     # the input state is not touched


@pytest.mark.parametrize("alpha", [0.3, 0.0])
def test_each_stage_argument_is_freed_before_its_product(monkeypatch, alpha):
    # rhs empties the one-item list it is handed and drops the full-size
    # copy it pads the argument into once it is inverted, so the filter and
    # the product reuse that memory.  The first argument is the state
    # itself, which the step keeps; the other three are freed as well.
    arguments, copies, freed = [], [], []

    def owner(array):
        return weakref.ref(array if array.base is None else array.base)

    def spied_rhs(*args):
        rhs = _rhs_filtered(*args)

        def traced(handed):
            arguments.append(owner(handed[0]))
            return rhs(handed)
        return traced

    def spied_full_size(half, axes):
        full = full_size(half, axes)
        copies.append(owner(full))
        return full

    def spy(u, v, dealias=True):
        freed.append((arguments[-1]() is None, copies[-1]() is None))
        return ch_nonlinear_term(u, v, dealias=dealias)

    monkeypatch.setattr(integrate, "_rhs_filtered", spied_rhs)
    monkeypatch.setattr(integrate, "full_size", spied_full_size)
    monkeypatch.setattr(integrate, "ch_nonlinear_term", spy)
    grid = SpectralGrid(2, 16, 2.0 * np.pi)
    run(random_divfree(grid, seed=8), make_params(alpha=alpha, t_end=0.02))
    assert freed == [(False, True), (True, True), (True, True), (True, True)] * 2


# The peak of what numpy allocates in one step (tracemalloc), its input state
# included, in units of the half state H, counted from the design with a
# physical vector field taken as H and a full-size spectrum as 2H:
#   2D, alpha > 0, at a lane of the product: the step's state, accumulator
#     and one stage result (3), v, u and the product's sum (3), the half
#     spectra of u and v (2), the lane's scalar spectrum and derivative (1.5)
#     and irfftn's scratch spectrum (1): 10.5;
#   3D, alpha = 0, while the fourth stage argument is inverted: the step's
#     three halves (3), the argument (2), irfftn's two scratch spectra (4)
#     and v (1): 10.
# Each bound adds 0.5 for the FFT's line buffers and the small arrays.  A
# full-size state (+1) and a stage argument kept through the product (+2)
# read 13.4 and 11.5.
@pytest.mark.parametrize("dim, n, alpha, bound", [
    (2, 64, 0.3, 11.0), (3, 16, 0.0, 10.5)], ids=["2d-alpha", "3d-alpha0"])
def test_step_memory_peak_in_half_states(dim, n, alpha, bound):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    params = make_params(alpha=alpha, dt=0.01)
    spectrum = prepare_initial_state(band_random(grid, seed=19, band=(1.0, 6.0)),
                                     params).v.field.data
    factors = _integrating_factors(grid, params, params.dt)
    rhs = _rhs_filtered(grid, alpha, True)
    _advance(held(spectrum), params.dt, factors, rhs)     # warm the FFT caches
    tracemalloc.start()
    try:
        _advance(held(spectrum), params.dt, factors, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / spectrum.nbytes <= bound


def _full_spectrum_trajectory(v0, params, steps):
    """The states of the one-line IF-RK4 at each step: the right-hand side
    -P N(u, v) of the public operators, one field in and one out."""
    grid = v0.grid
    alpha = params.alpha

    def rhs(vhat):
        v = to_physical(VectorField(grid, vhat, SPECTRAL))
        u = v if alpha == 0.0 else to_physical(apply_filter(v, alpha))
        return -leray_project(ch_nonlinear_term(u, v)).field.data

    lam = params.nu * fractional_laplacian_symbol(grid.k_squared, params.beta)
    vhat = prepare_initial_state(v0, params).v.field.data
    states = [vhat]
    for h in steps:
        vhat = _reference_ifrk4(vhat, h, np.exp(-lam * h), np.exp(-lam * (0.5 * h)), rhs)
        vhat[(slice(None),) + (0,) * grid.dim] = 0.0
        states.append(vhat)
    return states


@pytest.mark.parametrize("dim, n, alpha, t_end, stride", [
    (2, 32, 0.5, 0.035, 2), (3, 16, 0.0, 0.03, 1), (2, 256, 0.1, 0.01, 1),
], ids=["2d-alpha-closing-step", "3d-alpha0", "2d-256-two-lanes"])
def test_run_matches_the_full_spectrum_stepper(dim, n, alpha, t_end, stride):
    # the held compact state of the low-storage step, sampled and at the
    # end, equals the one-line step of the public operators at every mode
    grid = SpectralGrid(dim, n, 2 * np.pi)
    params = make_params(nu=0.02, alpha=alpha, dt=0.01, t_end=t_end)
    v0 = band_random(grid, seed=24, band=(1.0, 6.0))
    sampled = []
    summary = run(v0, params, observers=[sampled.append], stride=stride)
    full_steps = int(np.floor(t_end / params.dt * (1 + 1e-12)))
    steps = [params.dt] * full_steps
    if t_end - full_steps * params.dt > 1e-9 * params.dt:
        steps.append(t_end - full_steps * params.dt)
    expected = _full_spectrum_trajectory(v0, params, steps)
    assert summary.steps == len(steps)
    picks = sorted(set(range(0, len(steps) + 1, stride)) | {len(steps)})
    assert len(sampled) == len(picks)
    for state, j in zip(sampled, picks):
        assert np.array_equal(state.v.field.data, expected[j]), j
    assert summary.state is sampled[-1]


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16), (2, 48), (3, 24)])
@pytest.mark.parametrize("data", ["band-random", "every-mode"])
def test_blow_up_energy_is_the_full_parseval_sum(dim, n, data):
    # the per-step E, a half sum with the interior columns counted twice,
    # against a dense sum over every mode of the mirrored spectrum built
    # here; "band-random" is dealiased, "every-mode" fills both self-paired
    # planes too
    grid = SpectralGrid(dim, n, 2 * np.pi)
    if data == "band-random":
        spectrum = prepare_initial_state(band_random(grid, seed=25, band=(1.0, 6.0)),
                                         make_params()).v.field.data
    else:
        spectrum = to_spectral(random_field(grid, seed=26)).data
    assert np.any(spectrum[..., n // 2]) == (data == "every-mode")
    k_squared = np.sum(dense_lattice(grid)[1] ** 2, axis=0)
    full = hermitian_spectrum(spectrum, tuple(range(1, dim + 1)))
    power = np.sum(np.abs(full) ** 2, axis=0)
    for alpha in (0.0, 0.3):
        expected = np.sum(power / (1.0 + alpha ** 2 * k_squared)) * grid.mode_weight
        got = integrate._blow_up_energy(grid, alpha)(held(spectrum))
        assert abs(got - expected) <= 1e-14 * expected, alpha


def test_run_releases_its_datum(grid32):
    # a datum handed straight to run, as run_simulate hands it, is dropped
    # once the state is prepared and is not kept through the steps
    refs, alive = [], []

    def datum():
        v0 = band_random(grid32, seed=27, band=(1.0, 5.0))
        refs.append(weakref.ref(v0))
        return v0

    run(datum(), make_params(dt=0.01, t_end=0.03),
        observers=[lambda state: alive.append(refs[0]() is not None)])
    assert len(alive) == 4
    assert not any(alive[1:])


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
    fh = rfft_half(np.fft.fftn(v.data, axes=(1, 2)))
    mag = np.sqrt(sum(m**2 for m in grid32.mode_numbers))
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
