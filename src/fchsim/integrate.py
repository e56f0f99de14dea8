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

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import record_energy
from .fields import ProjectedField, ch_nonlinear_term, leray_project
from .helmholtz import apply_filter
from .spectral import (
    PHYSICAL, SPECTRAL, VectorField, dealias, real_forward, to_physical, to_spectral,
)


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the finite/bounded-energy regime."""

    def __init__(self, t, reason, records=None, observations=None):
        super().__init__(f"solution blew up at t = {t:.6g}: {reason}")
        self.t = t
        self.reason = reason
        self.records = records or []
        self.observations = observations or []


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
    observations: list
    steps: int
    wall_time: float


def _integrating_factors(grid, params, dt):
    lam = params.nu * grid.k_squared**params.beta
    return np.exp(-lam * dt), np.exp(-lam * (0.5 * dt))


def _rhs_filtered(grid, alpha, use_dealias):
    def rhs(vhat):
        v = to_physical(VectorField(grid, vhat, SPECTRAL))
        u = v if alpha == 0.0 else to_physical(apply_filter(v, alpha))
        nl = ch_nonlinear_term(u, v, dealias=use_dealias)
        # leray_project returns a fresh array, so it can be negated in place
        out = leray_project(nl).field.data
        return np.negative(out, out=out)

    return rhs


def _ifrk4(vhat, h, phi, phi_half, rhs):
    n1 = rhs(vhat)
    n2 = rhs(phi_half * (vhat + (0.5 * h) * n1))
    n3 = rhs(phi_half * vhat + (0.5 * h) * n2)
    n4 = rhs(phi * vhat + h * phi_half * n3)
    return phi * vhat + (h / 6.0) * (phi * n1 + 2.0 * phi_half * (n2 + n3) + n4)


def _advance(state, h, factors, rhs):
    grid = state.grid
    new = _ifrk4(state.v.field.data, h, *factors, rhs)
    new[(slice(None),) + (0,) * grid.dim] = 0.0
    t_next = state.t + h
    if not np.all(np.isfinite(new)):
        raise BlowUpError(t_next, "non-finite spectral coefficient")
    return SimState(t_next, ProjectedField(VectorField(grid, new, SPECTRAL)))


def step_ch_alpha(state, params, dt=None):
    """One step of the filtered system (advecting velocity = filtered v)."""
    grid = state.grid
    h = params.dt if dt is None else dt
    return _advance(state, h, _integrating_factors(grid, params, h),
                    _rhs_filtered(grid, params.alpha, params.dealias))


def prepare_initial_state(initial, params):
    """Project and (optionally) dealias a datum into a valid t = 0 state."""
    if isinstance(initial, ProjectedField):
        initial = initial.field
    vh = to_spectral(initial)
    if params.dealias:
        vh = dealias(vh)
    return SimState(0.0, leray_project(vh))


def _quadratic_energy(vhat, grid, inv_denom):
    amp = np.sum((vhat.real**2 + vhat.imag**2), axis=0)
    return float(np.sum(amp * inv_denom) * grid.mode_weight)


def run(initial, params, observers=None, stride=1):
    """Integrate from a datum to t_end, sampling diagnostics every `stride` steps.

    observers are callables of the current SimState; non-None returns are
    collected per observer.  Energy records are always collected at t = 0,
    at stride points, and at the final time.  Raises BlowUpError (carrying
    the partial records) on non-finite coefficients or if the quadratic
    energy exceeds ten times its initial value.
    """
    if stride < 1 or stride != int(stride):
        raise ValueError(f"stride must be a positive integer, got {stride}")
    observers = list(observers or [])
    grid = initial.field.grid if isinstance(initial, ProjectedField) else initial.grid
    params.warn_if_beta_exotic(grid.dim)

    state = prepare_initial_state(initial, params)
    rhs = _rhs_filtered(grid, params.alpha, params.dealias)
    factors = _integrating_factors(grid, params, params.dt)

    n_full = int(np.floor(params.t_end / params.dt * (1 + 1e-12)))
    remainder = params.t_end - n_full * params.dt
    if remainder <= 1e-9 * params.dt:
        remainder = 0.0
    n_total = n_full + (1 if remainder else 0)

    inv_denom = 1.0 / (1.0 + params.alpha**2 * grid.k_squared)
    energy0 = _quadratic_energy(state.v.field.data, grid, inv_denom)

    records = [record_energy(state, params)]
    observations = [[] for _ in observers]

    def sample(s):
        records.append(record_energy(s, params))
        for slot, obs in zip(observations, observers):
            value = obs(s)
            if value is not None:
                slot.append(value)

    for slot, obs in zip(observations, observers):
        value = obs(state)
        if value is not None:
            slot.append(value)

    started = time.perf_counter()
    for j in range(1, n_total + 1):
        h = params.dt
        if remainder and j == n_total:
            h = remainder
            factors = _integrating_factors(grid, params, h)
        try:
            state = _advance(state, h, factors, rhs)
        except BlowUpError as err:
            err.records = records
            err.observations = observations
            raise
        energy = _quadratic_energy(state.v.field.data, grid, inv_denom)
        if energy0 > 0 and energy > 10.0 * energy0:
            raise BlowUpError(state.t, "quadratic energy exceeded 10x initial", records, observations)
        if j % stride == 0 or j == n_total:
            sample(state)
    elapsed = time.perf_counter() - started

    return RunSummary(state, records, observations, n_total, elapsed)


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
    fh = real_forward(raw, range(1, grid.dim + 1))
    mag = np.sqrt(np.sum(grid.mode_numbers**2, axis=0))
    fh *= (mag >= lo) & (mag <= hi) & grid.dealias_mask
    field = VectorField(grid, fh, SPECTRAL)
    vp = to_physical(leray_project(field).field)
    peak = np.max(np.sqrt(np.sum(vp.data**2, axis=0)))
    if peak == 0.0:
        raise ValueError(f"band {band} contains no grid modes")
    return VectorField(grid, vp.data * (amplitude / peak), PHYSICAL)
