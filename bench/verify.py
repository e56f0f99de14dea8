"""Checks that a benchmark run did the work it is timed for.

``nonlinearity_ratio`` guards the datum before any child is started: a steady
datum (the radially symmetric ``stream-bump`` of ``decay_2d.ini`` has a
projected nonlinear term of about 4e-15) would time the linear semigroup.
``verify_outputs`` checks each child's artifacts; every failure it reports
counts the child as failed.
"""

import json
import os

import numpy as np

from fchsim.checkpoint import CheckpointError, load_checkpoint
from fchsim.diagnostics import l2_norm_sq, linear_decay_curve, record_energy
from fchsim.fields import ch_nonlinear_term, divergence_defect, leray_project
from fchsim.helmholtz import apply_filter
from fchsim.spectral import fractional_laplacian, to_physical

# Band-random data give 2.4-4.4 on the three workloads;
# a steady state sits at roundoff.
NONLINEARITY_FLOOR = 0.1
# Relative departure of |grad v|^2 from the linear decay curve.  With the
# nonlinear term off the curves agree to roundoff (about 1e-15).  In 2D the
# nonlinear term conserves |grad v|^2 = |curl v|^2, so it moves the curve only
# through the dissipation of the reshaped spectrum: 1e-6 on ch2d-512, against
# 1e-2 on nse3d-48.
DEPARTURE_FLOOR = 1e-9
# Divergence defect of a projected spectrum is roundoff.
DIVERGENCE_TOL = 1e-12


class GuardError(RuntimeError):
    """The workload's datum would not exercise the nonlinear term."""


def nonlinearity_ratio(v0, params):
    """||P N(v0)|| / ||nu Lambda^(2 beta) v0|| in L2 for a spectral datum."""
    v = to_physical(v0)
    u = to_physical(apply_filter(v0, params.alpha))
    projected = leray_project(ch_nonlinear_term(u, v, dealias=params.dealias))
    dissipative = fractional_laplacian(v0, params.beta) * params.nu
    return float(np.sqrt(l2_norm_sq(projected.field) / l2_norm_sq(dissipative)))


def check_nonlinearity(v0, params):
    ratio = nonlinearity_ratio(v0, params)
    if not ratio >= NONLINEARITY_FLOOR:
        raise GuardError(
            f"nonlinear/dissipative ratio {ratio:.3g} is below "
            f"{NONLINEARITY_FLOOR}: the datum would time the linear semigroup")
    return ratio


def energy_balance_failure(energy, params):
    """E_n against E_0 - 2 nu int_0^t D, or None when it holds.

    The semi-discrete dealiased Galerkin system satisfies dE/dt = -2 nu D
    exactly, so the residual is the trapezoid error of the sampled D plus the
    IF-RK4 truncation error.  On the workloads the residual is the trapezoid
    error sum h^3/12 |D''| to within a few percent, with D'' from second
    differences of the samples; the tolerance is three times that bound, for
    the variation of D'' between samples, plus a roundoff floor of 1e-12 E_0.
    """
    t, E, D = energy[:, 0], energy[:, 1], energy[:, 2]
    h = np.diff(t)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * h * (D[1:] + D[:-1]))))
    residual = np.abs(E - (E[0] - 2.0 * params.nu * integral))
    if len(t) >= 3:
        slopes = np.diff(D) / h
        curvature = np.max(np.abs(np.diff(slopes) / (0.5 * (h[1:] + h[:-1]))))
    else:
        curvature = 0.0
    bound = np.concatenate(([0.0], np.cumsum(h**3 / 12.0 * curvature)))
    tolerance = 3.0 * (2.0 * params.nu * bound) + 1e-12 * E[0]
    worst = int(np.argmax(residual - tolerance))
    if residual[worst] > tolerance[worst]:
        return (f"energy balance residual {residual[worst]:.3e} at t = "
                f"{t[worst]:.6g} exceeds {tolerance[worst]:.3e}")
    return None


def verify_outputs(workload, config, v0, out_dir, returncode):
    """Failure messages for one child's run (an empty list means verified)."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        with open(os.path.join(out_dir, "report.json")) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"no readable report.json: {exc}"]
    failures = []
    if report.get("passed") is not True:
        failures.append("report.json does not record passed")
    if workload.scenario == "simulate":
        try:
            failures += _simulate_failures(config, v0, out_dir)
        except (OSError, ValueError, CheckpointError) as exc:
            failures.append(f"unreadable simulate artifacts: {exc}")
    return failures


def _simulate_failures(config, v0, out_dir):
    params = config.params
    energy = np.loadtxt(os.path.join(out_dir, "energy.csv"), delimiter=",",
                        skiprows=1, ndmin=2)
    failures = []
    message = energy_balance_failure(energy, params)
    if message:
        failures.append(message)

    linear = linear_decay_curve(v0, params, energy[:, 0])["gradv_l2"]
    departure = float(np.max(np.abs(energy[:, 4] - linear) / linear))
    if not departure >= DEPARTURE_FLOOR:
        failures.append(f"|grad v|^2 departs from the linear decay curve by "
                        f"only {departure:.3e}: the nonlinear term did not act")

    state, stored = load_checkpoint(os.path.join(out_dir, "final.chk"))
    if abs(state.t - params.t_end) > 1e-9 * params.t_end:
        failures.append(f"checkpoint time {state.t!r} is not t_end {params.t_end!r}")
    if stored != {"nu": params.nu, "beta": params.beta, "alpha": params.alpha}:
        failures.append(f"checkpoint parameters {stored} do not match the run")
    defect = divergence_defect(state.v.field)
    if not defect <= DIVERGENCE_TOL:
        failures.append(f"checkpoint divergence defect {defect:.3e}")
    final_E = record_energy(state, params).E
    if abs(final_E - energy[-1, 1]) > 1e-13 * abs(energy[-1, 1]):
        failures.append(f"checkpoint energy {final_E!r} differs from the last "
                        f"energy.csv row {energy[-1, 1]!r}")
    return failures
