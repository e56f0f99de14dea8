"""Time stepping for the filtered advection system.

One integrating-factor RK4 path: the dissipative multiplier
exp(-nu |k|^(2 beta) h) is applied exactly per mode, the nonlinearity is
evaluated pseudo-spectrally, dealiased, and projected onto divergence-free
fields.  alpha = 0 is the unfiltered (fractional Navier-Stokes) system, since
the projection removes (grad v)^T v = grad(|v|^2 / 2).  States live in
spectral space; the k = 0 mode is pinned to zero (mean-free velocities).

Initial-datum families:
  * stream_bump: 2-d velocity from a Gaussian stream function, div-free
    in closed form, rapidly decaying (finite L1 mass on the box).
  * scaled_bump: the same bump under x -> c + eps (x - c) with the
    L2-invariant amplitude factor eps^(n/2).
  * band_random: seeded random divergence-free field supported on a
    shell of mode numbers.
"""

from __future__ import annotations

import ctypes
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import filtered_energy, mode_power, record_energy
from .fields import ProjectedField, ch_nonlinear_term, leray_project
from .helmholtz import apply_filter
from .spectral import (
    PHYSICAL, SPECTRAL, VectorField, dealias, fractional_laplacian_symbol,
    full_size, half_buffer, helmholtz_symbol, real_forward, real_inverse,
    to_physical, to_spectral, _drop_aliased, _spatial_axes,
)


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the finite/bounded-energy regime."""

    def __init__(self, t, reason, records=None):
        super().__init__(f"solution blew up at t = {t:.6g}: {reason}")
        self.t = t
        self.reason = reason
        self.records = records or []


# glibc's malloc sets its mmap threshold to the largest mmapped chunk freed
# so far, unmaps every chunk above it when it is freed, and trims the heap
# once its free top exceeds twice that threshold.  The heap swings by more
# than that within one RK stage, so every stage handed its big arrays back
# to the kernel and the next faulted them in again: 16.8-17.3k minor
# faults and 53-65 ms of system time per 512^2 step (alpha = 0.1, a 420-490
# ms step), 19-21k faults and 50-72 ms per 48^3 step (alpha = 0), 1.25k per
# 128^2 step.  Fixed thresholds keep the freed memory in the process.  Both
# are set: setting either one turns the dynamic thresholds off, and the trim
# threshold alone leaves the mmap threshold at 128 KiB, which tripled the
# faults (57-62k per 512^2 step, 99-101k per 48^3 step).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_ALLOCATOR_SETTING = ((_M_MMAP_THRESHOLD, 32 * 2 ** 20),
                      (_M_TRIM_THRESHOLD, 256 * 2 ** 20))
_freed_memory_held = None


def hold_freed_memory():
    """Keep freed heap memory in this process (glibc's mallopt); True when
    both settings took effect.  Where mallopt is missing this does nothing
    and returns False.  Only the first call acts."""
    global _freed_memory_held
    if _freed_memory_held is None:
        try:
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            accepted = [mallopt(*pair) for pair in _ALLOCATOR_SETTING]
            _freed_memory_held = accepted == [1] * len(_ALLOCATOR_SETTING)
        except (OSError, AttributeError, TypeError):
            _freed_memory_held = False
    return _freed_memory_held


@dataclass(frozen=True)
class SolverParams:
    """Physical and numerical parameters of a run.

    beta is the dissipation exponent (1 recovers ordinary viscosity);
    alpha the filter width (0 recovers the unfiltered system).
    """

    nu: float
    beta: float
    alpha: float
    dt: float
    t_end: float
    dealias: bool = True

    def __post_init__(self):
        for name in ("nu", "beta", "alpha", "dt", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.nu <= 0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.beta <= 0:
            raise ValueError(f"dissipation exponent must be positive, got {self.beta}")
        if self.alpha < 0:
            raise ValueError(f"filter width must be >= 0, got {self.alpha}")
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"final time must be >= 0, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end * (1 + 1e-12):
            raise ValueError(f"time step {self.dt} exceeds final time {self.t_end}")

    def warn_if_beta_exotic(self, dim):
        # decay estimates assume beta in [n/4, 1]; anything else is exploratory
        lo = dim / 4.0
        if self.beta < lo - 1e-12 or self.beta > 1 + 1e-12:
            warnings.warn(
                f"beta = {self.beta} is outside [{lo}, 1] for dim {dim}; "
                "running anyway, but decay guarantees do not apply",
                stacklevel=3,
            )


@dataclass
class SimState:
    """Spectral solution snapshot at time t."""

    t: float
    v: ProjectedField

    @property
    def grid(self):
        return self.v.field.grid


@dataclass
class RunSummary:
    state: SimState
    records: list
    steps: int
    wall_time: float


def _integrating_factors(grid, params, dt):
    """exp(-nu |k|^(2 beta) dt) and its half step, in the transform order
    of the state."""
    lam = params.nu * fractional_laplacian_symbol(grid.k_squared, params.beta)
    return np.exp(-lam * dt), np.exp(-lam * (0.5 * dt))


def _rhs_filtered(grid, alpha, use_dealias):
    """-P N(u, v) of a full-size spectrum (spectral.full_size) handed over
    in a one-item list: rhs empties it and drops the spectrum once
    real_inverse has inverted it, so the filter and the product reuse its
    memory.  Returns a compact spectrum in transform order, the product's
    layout, projected by leray_project."""
    axes = _spatial_axes(grid)

    def rhs(handed):
        v = VectorField(grid, real_inverse(handed.pop(), axes), PHYSICAL)
        u = v if alpha == 0.0 else to_physical(apply_filter(v, alpha))
        nl = ch_nonlinear_term(u, v, dealias=use_dealias)
        out = leray_project(nl).field.data
        return np.negative(out, out=out)

    return rhs


def _ifrk4(vhat, h, phi, phi_half, rhs):
    """One low-storage integrating-factor RK4 step of the compact state.

    Every coefficient goes through the same floating-point operations, with
    the same operands in the same order, as

        n1 = rhs(v)
        n2 = rhs(P (v + h/2 n1))
        n3 = rhs(P v + h/2 n2)
        n4 = rhs(phi v + h P n3)
        phi v + h/6 (phi n1 + 2 P (n2 + n3) + n4),    P = phi_half,

    on a spectrum in rfftn layout: vhat and the new state are compact
    (half_buffer layout).  Each stage argument is copied into a fresh
    full-size buffer (spectral.full_size), which rhs is handed and frees;
    the new state is formed in n4's buffer.  Besides vhat the step holds the
    accumulator phi n1 (+ ...) and at most one stage result while rhs runs,
    all of the state's size.
    """
    axes = tuple(range(1, vhat.ndim))
    # each stage argument goes full-size into a one-item list that rhs empties
    acc = rhs([full_size(vhat, axes)])
    n2 = rhs([full_size(phi_half * (vhat + (0.5 * h) * acc), axes)])
    np.multiply(phi, acc, out=acc)                  # phi n1
    n3 = rhs([full_size(phi_half * vhat + (0.5 * h) * n2, axes)])
    np.add(n2, n3, out=n2)                          # n2 + n3
    np.multiply(h * phi_half, n3, out=n3)
    staged = [full_size(phi * vhat + n3, axes)]
    del n3
    n4 = rhs(staged)
    np.multiply(2.0 * phi_half, n2, out=n2)
    np.add(acc, n2, out=acc)
    np.add(acc, n4, out=acc)
    np.multiply(h / 6.0, acc, out=acc)
    np.multiply(phi, vhat, out=n4)
    np.add(n4, acc, out=n4)
    return n4


def _advance(vhat, h, factors, rhs):
    """The state after one step of length h, its zero mode pinned."""
    new = _ifrk4(vhat, h, *factors, rhs)
    new[(slice(None),) + (0,) * (new.ndim - 1)] = 0.0
    return new


def _snapshot(t, vhat, grid):
    """The SimState of the stepper's state at time t, as a C-ordered copy:
    np.sum adds in memory order, so the ledger of the transform-order state
    itself would differ in its last bits from that of any other spectrum."""
    data = np.ascontiguousarray(vhat)
    return SimState(t, ProjectedField(VectorField(grid, data, SPECTRAL)))


def _blow_up_energy(grid, alpha):
    """E of the stepper's state (diagnostics.filtered_energy), with the
    filter's symbol formed once."""
    helmholtz = helmholtz_symbol(alpha, grid.k_squared)
    return lambda vhat: filtered_energy(mode_power(vhat), helmholtz, grid)


def prepare_initial_state(initial, params):
    """Project and (optionally) dealias a datum into a valid t = 0 state."""
    if isinstance(initial, ProjectedField):
        initial = initial.field
    vh = to_spectral(initial)
    if params.dealias:
        vh = dealias(vh)
    return SimState(0.0, leray_project(vh))


def run(initial, params, observers=(), stride=1):
    """Integrate from a datum to t_end, sampling every `stride` steps.

    A sample, taken at t = 0, at every stride point and at the final time,
    appends the state's energy record (diagnostics.record_energy, with the
    dissipation symbol formed once per run) and calls each observer with the
    state; observers' return values are ignored.  Between samples the state
    is stepped as a compact spectrum in transform order (_ifrk4) and no
    full-size spectrum outlives a stage; every state handed out is a
    C-ordered copy in rfftn layout (_snapshot).  After every step the
    ledger's E alone is the blow-up check: BlowUpError, carrying the records
    so far, unless E <= 10 E(0), which also fails for a NaN or infinite
    coefficient.  The process keeps its freed memory from here on
    (hold_freed_memory).  The datum itself is dropped once the state is
    prepared, so a caller that hands it over does not keep it through the
    steps.
    """
    if stride < 1 or stride != int(stride):
        raise ValueError(f"stride must be a positive integer, got {stride}")
    hold_freed_memory()
    state = prepare_initial_state(initial, params)
    del initial
    grid = state.grid
    params.warn_if_beta_exotic(grid.dim)
    rhs = _rhs_filtered(grid, params.alpha, params.dealias)
    factors = _integrating_factors(grid, params, params.dt)
    symbol = fractional_laplacian_symbol(grid.k_squared, params.beta)
    energy_of = _blow_up_energy(grid, params.alpha)

    n_full = int(np.floor(params.t_end / params.dt * (1 + 1e-12)))
    remainder = params.t_end - n_full * params.dt
    if remainder <= 1e-9 * params.dt:
        remainder = 0.0
    n_total = n_full + (1 if remainder else 0)

    records = []

    def sample(s):
        records.append(record_energy(s, params, symbol))
        for observe in observers:
            observe(s)

    sample(state)
    axes = _spatial_axes(grid)
    t, vhat = state.t, half_buffer((grid.dim,) + grid.shape, axes)
    vhat[...] = state.v.field.data
    started = time.perf_counter()
    for j in range(1, n_total + 1):
        state = None
        h = params.dt
        if remainder and j == n_total:
            h = remainder
            factors = _integrating_factors(grid, params, h)
        vhat = _advance(vhat, h, factors, rhs)
        t = t + h
        if not energy_of(vhat) <= 10.0 * records[0].E:
            raise BlowUpError(t, "quadratic energy not finite or above"
                              " ten times its initial value", records)
        if j % stride == 0 or j == n_total:
            state = _snapshot(t, vhat, grid)
            sample(state)
    elapsed = time.perf_counter() - started

    return RunSummary(state, records, n_total, elapsed)


def cfl_timestep(v, safety=0.5):
    """Advective step bound safety * dx / max |v|; inf for a quiescent field."""
    vp = to_physical(v) if v.is_spectral else v
    speed = float(np.sqrt(np.max(np.sum(vp.data**2, axis=0))))
    if speed == 0.0:
        return float("inf")
    return safety * v.grid.spacing / speed


def _centered_offsets(grid, center):
    if center is None:
        center = (grid.box_length / 2.0,) * grid.dim
    mesh = grid.coordinate_mesh()
    L = grid.box_length
    # minimum-image offsets so the bump periodizes cleanly off-center
    return [np.mod(mesh[i] - center[i] + L / 2.0, L) - L / 2.0 for i in range(grid.dim)]


def stream_bump(grid, width, peak_speed=1.0, center=None):
    """Divergence-free 2-d bump: curl of a Gaussian stream function.

    width is the Gaussian length scale, peak_speed the maximum of |v|.
    """
    return scaled_bump(grid, 1.0, width, peak_speed, center)


def scaled_bump(grid, eps, width, peak_speed=1.0, center=None):
    """Member eps of the family v_eps(x) = eps^(n/2) v(c + eps (x - c)).

    eps = 1 is stream_bump itself.  The family keeps the L2 norm fixed
    while gradients shrink by eps, which is what makes its decay times
    spread apart.
    """
    if grid.dim != 2:
        raise ValueError("stream-function data is two-dimensional")
    if width <= 0 or eps <= 0:
        raise ValueError("width and eps must be positive")
    dx, dy = _centered_offsets(grid, center)
    # psi = A exp(-r^2 / 2 w^2), A chosen so max |v| = peak_speed at eps = 1
    amp = peak_speed * width * np.sqrt(np.e)
    psi = amp * np.exp(-(eps**2) * (dx**2 + dy**2) / (2.0 * width**2))
    pref = eps ** (grid.dim / 2.0 + 1) / width**2
    data = np.stack([pref * dy * psi, -pref * dx * psi])
    return VectorField(grid, data, PHYSICAL)


def band_random(grid, seed, band=(2.0, 4.0), amplitude=1.0):
    """Seeded divergence-free field with spectrum confined to a mode shell."""
    lo, hi = band
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi in the band, got {band}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.dim,) + grid.shape)
    axes = _spatial_axes(grid)
    fh = real_forward(raw, axes)
    mag = np.sqrt(sum(m**2 for m in grid.mode_numbers))
    fh *= (mag >= lo) & (mag <= hi)
    _drop_aliased(fh, axes, grid.points_per_axis)
    field = VectorField(grid, fh, SPECTRAL)
    vp = to_physical(leray_project(field).field)
    peak = np.max(np.sqrt(np.sum(vp.data**2, axis=0)))
    if peak == 0.0:
        raise ValueError(f"band {band} contains no grid modes")
    return VectorField(grid, vp.data * (amplitude / peak), PHYSICAL)
