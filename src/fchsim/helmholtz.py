"""Inverse-elliptic smoothing filter u - alpha^2 lap(u) = v.

The periodic box diagonalizes the operator, so the filter is a single
spectral multiply by 1/(1 + alpha^2 |k|^2).  No iterative solve.  The
exact per-mode identity

    ||grad^m u||^2 + 2 a^2 ||grad^(m+1) u||^2 + a^4 ||grad^(m+2) u||^2
        = ||grad^m v||^2

holds to roundoff and is exposed as a residual for monitoring.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import _parseval_sum, fit_line, lp_norm, mode_power
from .spectral import apply_multiplier, helmholtz_symbol, to_spectral


def _check_width(alpha):
    """The filter width must be finite and >= 0; zero is the identity map."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"filter width must be finite and >= 0, got {alpha}")


def apply_filter(v, alpha):
    """Smooth v by inverting 1 - alpha^2 lap; returns same representation."""
    _check_width(alpha)
    if alpha == 0.0:
        return v.copy()
    return apply_multiplier(v, lambda k_squared: 1.0 / helmholtz_symbol(alpha, k_squared))


def filter_identity_residual(v, alpha, m=0):
    """Relative defect of the exact three-term norm identity at derivative
    order m, both sides Parseval sums over the spectrum."""
    _check_width(alpha)
    if m < 0 or m != int(m):
        raise ValueError(f"derivative order must be a nonnegative integer, got {m}")
    grid = v.grid
    k2 = grid.k_squared
    vh = to_spectral(v).data
    uh = vh / helmholtz_symbol(alpha, k2)
    amp_u = mode_power(uh)
    amp_v = mode_power(vh)
    km = k2**m
    lhs = km * amp_u + 2.0 * alpha**2 * km * k2 * amp_u + alpha**4 * km * k2**2 * amp_u
    rhs = km * amp_v
    denom = _parseval_sum(rhs, grid)
    if denom == 0.0:
        return 0.0
    return _parseval_sum(np.abs(lhs - rhs), grid) / denom


def filter_convergence_curve(v, alphas, q=2.0):
    """Distances ||filter(v, a) - v||_Lq for each width, with the log-log slope.

    Returns (pairs, slope) where pairs is a list of (alpha, distance).
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one filter width")
    if any(a <= 0 for a in alphas):
        raise ValueError("filter widths must be positive for a convergence curve")
    pairs = []
    for a in alphas:
        diff = apply_filter(v, a) - v
        pairs.append((a, lp_norm(diff, q)))
    dists = np.array([d for _, d in pairs])
    if np.any(dists <= 0):
        raise ValueError("convergence curve needs a field the filter actually moves")
    slope = fit_line(np.log(alphas), np.log(dists))[0] if len(alphas) > 1 else float("nan")
    return pairs, slope
