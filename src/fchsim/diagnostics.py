"""Norms, energy records, decay-exponent fits and trajectory checks."""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    fractional_laplacian_symbol, helmholtz_symbol, to_physical, to_spectral)


@dataclass
class EnergyRecord:
    """One time sample of the energy ledger (energy_ledger) and fhat_max,
    the largest continuum-normalized Fourier amplitude of v."""
    t: float
    E: float
    D: float
    v_l2: float
    gradv_l2: float
    fhat_max: float

    CSV_HEADER = "t,E,D,v_l2,gradv_l2,fhat_max"

    def as_row(self):
        return (self.t, self.E, self.D, self.v_l2, self.gradv_l2,
                self.fhat_max)


@dataclass
class DecayFit:
    """Windowed least-squares power-law fit value ~ (1+t)^exponent."""
    t_lo: float
    t_hi: float
    exponent: float
    intercept: float
    r_squared: float


def l2_inner(a, b):
    """Discrete L2 inner product, one Parseval sum when both are spectral."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if a.is_spectral and b.is_spectral:
        return _parseval_sum((a.data * np.conj(b.data)).real, a.grid)
    ap, bp = to_physical(a), to_physical(b)
    return float(np.sum(ap.data * bp.data) * a.grid.cell_volume)


def l2_norm_sq(field):
    return l2_inner(field, field)


def gradient_norm_sq(field, order=1):
    """Squared Sobolev seminorm |grad^m f|^2 = sum |k|^(2m) |fhat|^2 of a
    real field, one Parseval sum over its spectrum."""
    fh = to_spectral(field)
    grid = fh.grid
    power = mode_power(fh.data)
    if order:
        power *= grid.k_squared ** order
    return _parseval_sum(power, grid)


def mode_power(vhat):
    """Per-mode |vhat|^2 of spectral data, summed over the components in
    order; in place where it can, since the blow-up check runs it per step."""
    power = np.abs(vhat)
    power *= power
    return sum(power[1:], power[0])


def _parseval_sum(per_mode, grid):
    """The one Parseval sum: sum_k w(k) times the mode weight, for a per-mode
    quantity w of a Hermitian spectrum in rfftn layout (any memory order,
    any leading axes).  The interior columns 1 <= m < N/2 of the last axis
    count twice, once for their mirror images conj F(-k); the self-paired
    columns m = 0 and m = N/2 count once."""
    interior = per_mode[..., 1:grid.points_per_axis // 2]
    return float((np.sum(per_mode) + np.sum(interior)) * grid.mode_weight)


def filtered_energy(amp2, helmholtz, grid):
    """E = |u|^2 + alpha^2 |grad u|^2 of u = (1 - alpha^2 Laplace)^-1 v, from
    the per-mode power amp2 of v and the filter's symbol,
    helmholtz = 1 + alpha^2 |k|^2 (spectral.helmholtz_symbol of
    grid.k_squared): the filter acts per mode, so E is one Parseval sum of
    amp2 / helmholtz."""
    return _parseval_sum(amp2 / helmholtz, grid)


def energy_ledger(amp2, symbol, grid, alpha, decay=None):
    """The one place a spectrum becomes E, D, |v|^2 and |grad v|^2.

    Every input is per mode of a spectrum: amp2 is the power of v
    (mode_power), symbol the dissipation symbol |k|^(2 beta)
    (spectral.fractional_laplacian_symbol of grid.k_squared) and `decay` an
    optional factor on amp2, as the linear semigroup's
    exp(-2 nu |k|^(2 beta) t).  D = |Lam^beta u|^2 + alpha^2 |grad Lam^beta u|^2
    is the filtered energy of Lam^beta v.
    """
    def decayed(power):
        return power if decay is None else power * decay

    power = decayed(amp2)
    helmholtz = helmholtz_symbol(alpha, grid.k_squared)
    return {
        "E": filtered_energy(power, helmholtz, grid),
        "D": filtered_energy(decayed(symbol * amp2), helmholtz, grid),
        "v_l2": _parseval_sum(power, grid),
        "gradv_l2": _parseval_sum(decayed(grid.k_squared * amp2), grid),
    }


def record_energy(state, params, symbol=None):
    """The energy ledger of a state, with its largest Fourier amplitude.

    `symbol` is the dissipation symbol |k|^(2 params.beta)
    (fractional_laplacian_symbol of grid.k_squared), formed here when not
    given.
    """
    grid = state.grid
    amp2 = mode_power(state.v.field.data)
    fhat_max = float(np.max(np.sqrt(amp2)) * grid.cell_volume)
    if symbol is None:
        symbol = fractional_laplacian_symbol(grid.k_squared, params.beta)
    return EnergyRecord(float(state.t), fhat_max=fhat_max,
                        **energy_ledger(amp2, symbol, grid, params.alpha))


def lp_norm(field, p):
    """Discrete Lebesgue norm of the pointwise field magnitude.

    Spectral inputs are transformed to physical first.
    """
    if p != np.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    f = to_physical(field)
    mag = np.sqrt(np.sum(f.data ** 2, axis=0))
    if p == np.inf:
        return float(np.max(mag))
    return float((np.sum(mag ** p) * f.grid.cell_volume) ** (1.0 / p))


def default_fit_window(t_end):
    """Drop the transient (t < 5) and the box-contaminated final 10%."""
    return (5.0, 0.9 * t_end)


def fit_line(x, y):
    """Least-squares line y ~ slope x + intercept, as (slope, intercept).

    Closed form over the centred samples, from numpy reductions alone, so the
    result does not depend on how many threads a BLAS or LAPACK would use.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("need two equally long 1-D series of at least 2 points")
    x_mean, y_mean = np.mean(x), np.mean(y)
    dx = x - x_mean
    slope = np.sum(dx * (y - y_mean)) / np.sum(dx * dx)
    return float(slope), float(y_mean - slope * x_mean)


def fit_decay(series, window):
    """Least-squares line on (log(1+t), log value) inside the window.

    Needs at least 10 positive samples in the window.
    """
    arr = np.asarray([(t, v) for t, v in series], dtype=float)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise ValueError("empty fit window")
    sel = (arr[:, 0] >= t_lo) & (arr[:, 0] <= t_hi)
    t, v = arr[sel, 0], arr[sel, 1]
    if len(t) < 10:
        raise ValueError("need at least 10 samples in the fit window, got %d"
                         % len(t))
    if np.any(v <= 0):
        raise ValueError("nonpositive values in fit window")
    x = np.log1p(t)
    y = np.log(v)
    slope, intercept = fit_line(x, y)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res == 0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return DecayFit(t_lo, t_hi, float(slope), float(intercept), r2)


def cumulative_trapezoid(t, y):
    """Running trapezoid integral of the samples y(t), from 0 at t[0]."""
    out = np.zeros_like(t)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def fourier_amplitude_bound_check(records):
    """Running ratio of max |vhat| to its a-priori bound along a trajectory.

    The bound's integral of |u|^2 is stood in for by the recorded |v|^2,
    which dominates it; that changes the ratio by at most the bounded
    filter factor and not the boundedness verdict.
    """
    t = np.array([r.t for r in records])
    fhat = np.array([r.fhat_max for r in records])
    iu = cumulative_trapezoid(t, np.array([r.v_l2 for r in records]))
    ig = cumulative_trapezoid(t, np.array([r.gradv_l2 for r in records]))
    denom = 1.0 + np.sqrt(iu) * np.sqrt(ig)
    ratio = fhat / denom
    n = len(ratio)
    head = ratio[: max(2, (3 * n) // 4)]
    tail = ratio[(3 * n) // 4:]
    bounded = bool(np.all(np.isfinite(ratio))
                   and (len(tail) == 0
                        or np.max(tail) <= 1.02 * np.max(head) + 1e-300))
    return {
        "t": t.tolist(),
        "ratio": ratio.tolist(),
        "max_ratio": float(np.max(ratio)),
        "bounded": bounded,
    }


def time_average_decay_check(records):
    """Cesaro mean (1/t) int |v| dtau of an EnergyRecord list, |v| taken as
    the square root of the recorded squared norm; reports whether it decays.
    """
    t = np.array([r.t for r in records])
    v = np.sqrt(np.array([r.v_l2 for r in records]))
    integral = cumulative_trapezoid(t, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(t > 0, integral / np.where(t > 0, t, 1.0), v)
    half = len(t) // 2
    final = mean[half:]
    decreasing = bool(len(final) >= 2 and np.all(np.diff(final) <= 1e-12))
    return {
        "t": t.tolist(),
        "cesaro_mean": mean.tolist(),
        "decreasing_final_half": decreasing,
        "final_mean": float(mean[-1]),
    }


def solution_distance(a, b, q):
    """Discrete L^q distance between two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    pa, pb = to_physical(a), to_physical(b)
    return lp_norm(pa - pb, q)


def linear_decay_curve(v0, params, times):
    """Energy curves of the nonlinearity-off dynamics, straight from the
    spectrum of v0.  Returns arrays for E, |v|^2 and |grad v|^2.

    Useful as a sanity path and as the quasi-linear prediction that the
    decay reports quote next to the measured fits.
    """
    grid = v0.grid
    amp2 = mode_power(to_spectral(v0).data)
    symbol = fractional_laplacian_symbol(grid.k_squared, params.beta)
    rate = -2.0 * params.nu * symbol
    ledgers = [energy_ledger(amp2, symbol, grid, params.alpha, np.exp(rate * t))
               for t in np.asarray(times, dtype=float)]
    return {name: np.array([ledger[name] for ledger in ledgers], dtype=float)
            for name in ("E", "v_l2", "gradv_l2")}
