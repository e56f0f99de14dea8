"""Scenario runners behind the command line.

Every runner takes an ExperimentConfig, writes its artifacts (CSV streams,
JSON report) under config.output_dir, and returns the report dict; a blow-up
in any runner ends in a report with a "blow_up" entry.  A report
embeds the full configuration, the package version, and the fit windows, so
a run can be reproduced and re-checked from the file alone; each asserted
fact appears as one entry in report["assertions"] and the overall verdict in
report["passed"].
"""

import dataclasses
import json
import os
import platform
import time

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError
from .diagnostics import (
    EnergyRecord,
    cumulative_trapezoid,
    default_fit_window,
    fit_decay,
    fit_line,
    fourier_amplitude_bound_check,
    gradient_norm_sq,
    l2_inner,
    l2_norm_sq,
    linear_decay_curve,
    lp_norm,
    solution_distance,
    time_average_decay_check,
)
from .fields import _cpu_count, ch_nonlinear_term, map_on_worker
from .helmholtz import apply_filter, filter_convergence_curve, filter_identity_residual
from .integrate import (
    BlowUpError,
    SolverParams,
    band_random,
    hold_freed_memory,
    prepare_initial_state,
    run,
    scaled_bump,
)
from .spectral import (
    PHYSICAL,
    SPECTRAL,
    SpectralGrid,
    VectorField,
    apply_multiplier,
    fractional_laplacian,
    fractional_laplacian_symbol,
    helmholtz_symbol,
    to_spectral,
)

BOX_TRUNCATION_CAVEAT = (
    "Finite periodic box: once nu * k_min^(2 beta) * t is order one, the "
    "slowest retained mode (k_min = 2 pi / L) decays exponentially and the "
    "energy curve bends below any algebraic rate.  The fit window ends "
    "before that regime; the quoted exponents describe the window only."
)


def _ensure_dir(path):
    if path:
        os.makedirs(path, exist_ok=True)


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _config_summary(config):
    return _jsonable({
        "scenario": config.scenario,
        "output_dir": config.output_dir,
        "sample_stride": config.sample_stride,
        "grid": {"dim": config.grid[0], "points": config.grid[1],
                 "box_length": config.grid[2]},
        "solver": config.params,
        "datum": dict(config.datum),
        "fit_window": config.fit_window,
        "epsilons": config.epsilons,
        "alphas": config.alphas,
        "l_exponent": config.l_exponent,
        "q_exponent": config.q_exponent,
        "kernel_gamma0": config.kernel_gamma0,
        "kernel_dim": config.kernel_dim,
        "seed": config.seed,
    })


def _check(report, name, passed, detail=""):
    report["assertions"].append(
        {"name": name, "passed": bool(passed), "detail": detail})


def write_report(report, path):
    _ensure_dir(os.path.dirname(path))
    with open(path, "w") as handle:
        json.dump(_jsonable(report), handle, indent=2)
        handle.write("\n")


def _environment():
    """What produced the run's timings: versions, the CPUs the process may
    use, and whether it keeps its freed memory (integrate.hold_freed_memory,
    which every run applies)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_affinity": _cpu_count(),
        "holds_freed_memory": hold_freed_memory(),
    }


def _peak_rss_mb():
    """This process's own peak resident memory (VmHWM) in MB of 10^6
    bytes, or None where /proc/self/status is missing."""
    try:
        with open("/proc/self/status") as status:
            hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    except OSError:
        return None
    return int(hwm[0]) * 1024 / 1e6 if hwm else None


def _csv_row(values):
    """One CSV row, every value at full precision (%.17g round-trips)."""
    return ",".join("%.17g" % x for x in values)


def _write_csv(path, header, rows):
    _ensure_dir(os.path.dirname(path))
    with open(path, "w") as handle:
        handle.write("\n".join([header] + [_csv_row(row) for row in rows]) + "\n")


def write_energy_csv(records, path):
    _write_csv(path, EnergyRecord.CSV_HEADER, (rec.as_row() for rec in records))


def _scenario(body):
    """Make the runner `run(config) -> report` from `body(config, report)`.

    The one report path: the runner makes the output directory (an
    unusable one is a configuration error, raised before any work), starts
    the report, lets the body fill it, turns a blow-up anywhere in the body
    into the report's "blow_up" entry (with the energy stream up to it),
    adds the verdict, environment and peak memory, and writes the report.
    Configuration errors pass through unreported.
    """
    def runner(config):
        config.make_output_dir()
        out = config.output_dir
        report = {"experiment": config.scenario, "version": __version__,
                  "config": _config_summary(config), "assertions": []}
        try:
            body(config, report)
        except BlowUpError as err:
            report["blow_up"] = {"t": err.t, "reason": err.reason}
            if err.records:
                write_energy_csv(err.records, os.path.join(out, "energy.csv"))
                report.setdefault("artifacts", {})["energy_csv"] = "energy.csv"
            _check(report, "run reached t_end", False,
                   f"blow-up at t = {err.t:g}: {err.reason}")
        report["passed"] = all(entry["passed"] for entry in report["assertions"])
        report["environment"] = _environment()
        report["peak_rss_mb"] = _peak_rss_mb()
        write_report(report, os.path.join(out, "report.json"))
        return report
    runner.__name__ = runner.__qualname__ = body.__name__
    runner.__doc__ = body.__doc__
    return runner


def make_datum(config, grid, eps=None):
    """Build the configured initial field, the scaled-bump family member
    `eps` in place of [datum] epsilon when given (a stream bump is eps = 1).
    The constructors' value checks surface as configuration errors."""
    spec = config.datum_values
    try:
        if config.datum_kind == "band-random":
            # the --seed flag (config.seed) wins over [datum] seed
            seed = spec["seed"] if config.seed is None else config.seed
            return band_random(grid, int(seed),
                               band=(spec["band_lo"], spec["band_hi"]),
                               amplitude=spec["amplitude"])
        member = spec.get("epsilon", 1.0) if eps is None else eps
        return scaled_bump(grid, member, spec["width"], spec["peak_speed"])
    except ValueError as exc:
        raise ConfigError(f"bad [datum]: {exc}") from exc


@_scenario
def run_simulate(config, report):
    """Plain integration: energy CSV, final checkpoint, monotonicity check."""
    params = config.params
    out = config.output_dir
    # handed straight to run, which drops it once the state is prepared
    summary = run(make_datum(config, SpectralGrid(*config.grid)), params,
                  stride=config.sample_stride)
    write_energy_csv(summary.records, os.path.join(out, "energy.csv"))
    save_checkpoint(summary.state, params, os.path.join(out, "final.chk"))
    report["artifacts"] = {"energy_csv": "energy.csv", "checkpoint": "final.chk"}
    report["steps"] = summary.steps
    report["wall_time"] = summary.wall_time
    energies = [rec.E for rec in summary.records]
    upward = max((b - a for a, b in zip(energies, energies[1:])), default=0.0)
    _check(report, "run reached t_end", True,
           f"{summary.steps} steps to t = {summary.state.t:g}")
    _check(report, "energy nonincreasing", upward <= 1e-9 * max(energies[0], 1.0),
           f"worst upward step {upward:.3e}")
    report["final"] = {"t": summary.state.t, "E": energies[-1]}


_DECAY_GATES = {"E": (0.5, 0.98), "gradv_l2": (1.0, 0.95)}


def _fit(data, window):
    """The log-log decay fit of (t, value) pairs over the window, as
    {"exponent", "r_squared"}, or {"error"} when it cannot be made."""
    try:
        fit = fit_decay(data, window)
    except ValueError as exc:
        return {"error": str(exc)}
    return {"exponent": fit.exponent, "r_squared": fit.r_squared}


@_scenario
def run_decay_experiment(config, report):
    """Long run of one datum with log-log decay fits against predicted rates.

    E and |grad v|^2 carry pass/fail gates (exponent within a band around the
    prediction, an r^2 floor); |v|^2 and the order-2 gradient are reported
    with their predictions but not gated: a curl-type datum has a k^2 hole
    at the origin of its spectrum, and through any practical window the
    unfiltered norms ride the steeper quasi-linear branch instead of the
    infinite-volume envelope.  The quasi-linear reference block in the
    report quantifies that for the actual datum.
    """
    grid = SpectralGrid(*config.grid)
    params = config.params
    v0 = make_datum(config, grid)
    window = config.fit_window or default_fit_window(params.t_end)
    out = config.output_dir
    report["fit_window"] = list(window)
    report["caveats"] = [BOX_TRUNCATION_CAVEAT]

    grad2 = []
    summary = run(v0, params, stride=config.sample_stride, observers=[
        lambda s: grad2.append((s.t, gradient_norm_sq(s.v.field, order=2)))])
    records = summary.records
    write_energy_csv(records, os.path.join(out, "energy.csv"))
    report["artifacts"] = {"energy_csv": "energy.csv"}
    report["steps"] = summary.steps
    report["wall_time"] = summary.wall_time

    n, beta = grid.dim, params.beta
    theory = {
        "E": -n / (2.0 * beta),
        "v_l2": -n / (2.0 * beta),
        "gradv_l2": -1.0 / beta - n / (2.0 * beta),
        "grad2v_l2": -2.0 / beta - n / (2.0 * beta),
    }
    series = {
        "E": [(rec.t, rec.E) for rec in records],
        "v_l2": [(rec.t, rec.v_l2) for rec in records],
        "gradv_l2": [(rec.t, rec.gradv_l2) for rec in records],
        "grad2v_l2": grad2,
    }
    report["theory_exponents"] = theory
    fits = {name: _fit(data, window) for name, data in series.items()}
    for name, fit in fits.items():
        if "error" in fit:
            if name in _DECAY_GATES:
                _check(report, f"{name} fit computed", False, fit["error"])
            continue
        fit["theory"] = theory[name]
        if name in _DECAY_GATES:
            band, floor = _DECAY_GATES[name]
            _check(report, f"{name} decay exponent near theory",
                   abs(fit["exponent"] - theory[name]) <= band,
                   f"fitted {fit['exponent']:+.3f}, predicted {theory[name]:+.3f},"
                   f" band +-{band:g}")
            _check(report, f"{name} decay is algebraic", fit["r_squared"] >= floor,
                   f"r^2 = {fit['r_squared']:.4f} (floor {floor:g})")
    report["fits"] = fits

    state0 = prepare_initial_state(v0, params)
    times = np.array([rec.t for rec in records if rec.t > 0.0])
    curves = linear_decay_curve(state0.v.field, params, times)
    report["quasi_linear_reference"] = {
        name: _fit(list(zip(times, curves[name])), window)
        for name in ("E", "v_l2", "gradv_l2")}

    amplitude = fourier_amplitude_bound_check(records)
    report["fourier_amplitude_bound"] = {
        "max_ratio": amplitude["max_ratio"], "bounded": amplitude["bounded"]}
    cesaro = time_average_decay_check(records)
    report["cesaro_mean"] = {
        "decreasing_final_half": cesaro["decreasing_final_half"],
        "final_mean": cesaro["final_mean"]}


def _half_life(records):
    """First time E crosses half its initial value, log-interpolated."""
    target = 0.5 * records[0].E
    for prev, cur in zip(records, records[1:]):
        if cur.E <= target:
            if cur.E == prev.E:
                return float(cur.t)
            frac = (np.log(target) - np.log(prev.E)) / (np.log(cur.E) - np.log(prev.E))
            return float(prev.t + frac * (cur.t - prev.t))
    return None


@_scenario
def run_scaled_family(config, report):
    """Datum family u0_eps(x) = eps^(n/2) u0(eps x): exact norm identities,
    a linear-in-time energy deficit bound with one fitted rate constant,
    and half-lives that spread apart as eps shrinks (so no single decay
    profile covers the family)."""
    grid = SpectralGrid(*config.grid)
    params = config.params
    out = config.output_dir
    # members come from the epsilons list, not from [datum] epsilon
    u_base = make_datum(config, grid, eps=1.0)
    base_l2 = l2_norm_sq(u_base)
    base_grad = gradient_norm_sq(u_base)
    report["u0_l2_sq"] = base_l2

    def member(eps):
        u0 = make_datum(config, grid, eps=eps)
        v0 = apply_multiplier(to_spectral(u0),
                              lambda k_squared: helmholtz_symbol(params.alpha, k_squared))
        return {
            "eps": eps,
            "l2_deviation": abs(np.sqrt(l2_norm_sq(u0) / base_l2) - 1.0),
            "grad_deviation": abs(
                np.sqrt(gradient_norm_sq(u0) / base_grad) / eps - 1.0),
            "identity": filter_identity_residual(v0, params.alpha, m=1),
            "grad_rate": gradient_norm_sq(v0) / eps ** 2,
            "records": run(v0, params, stride=config.sample_stride).records,
        }

    results = []
    for result in map_on_worker(member, config.epsilons):
        eps, records = result["eps"], result["records"]
        result["csv"] = "family_eps_%s.csv" % ("%g" % eps).replace(".", "p")
        write_energy_csv(records, os.path.join(out, result["csv"]))
        deficit_rate = max(
            ((base_l2 - rec.E) / (eps ** 2 * rec.t)
             for rec in records if rec.t > 0.0), default=0.0)
        result["deficit_rate"] = max(deficit_rate, 0.0)
        results.append(result)

    for key, name, gate, detail in (
            ("l2_deviation", "family L2 norm invariant", 1e-6,
             "worst |ratio - 1| = {:.3e} (gate 1e-6)"),
            ("grad_deviation", "family gradient scales by eps", 1e-4,
             "worst deviation = {:.3e} (gate 1e-4)"),
            ("identity", "momentum three-term norm identity", 1e-12,
             "worst relative residual = {:.3e}")):
        worst = max(result[key] for result in results)
        _check(report, name, worst <= gate, detail.format(worst))
    grad_rates = [result["grad_rate"] for result in results]
    bounded = all(rate <= grad_rates[0] * (1.0 + 1e-9) for rate in grad_rates)
    _check(report, "momentum gradient bounded by C eps^2", bounded,
           "normalized rates " + ", ".join("%.6g" % r for r in grad_rates))
    report["grad_momentum_C"] = max(grad_rates)

    rates = [result["deficit_rate"] for result in results]
    c_hat = 1.1 * max(rates)
    report["c_hat"] = c_hat
    worst_violation = max(
        (base_l2 - c_hat * result["eps"] ** 2 * rec.t) - rec.E
        for result in results for rec in result["records"])
    _check(report, "energy lower bound with one fitted rate constant",
           worst_violation <= 1e-9 * base_l2,
           f"worst violation {worst_violation:.3e} against ||u0||^2 = {base_l2:.6g}")
    ratio = max(rates) / min(rates) if min(rates) > 0 else float("inf")
    _check(report, "eps^2-normalized deficit rates uniform", ratio <= 2.0,
           f"max/min = {ratio:.3f} (gate 2)")
    half_lives = [_half_life(result["records"]) for result in results]
    resolved = all(tau is not None for tau in half_lives)
    increasing = resolved and all(b > a for a, b in zip(half_lives, half_lives[1:]))
    _check(report, "half-life grows as eps shrinks", increasing,
           "half-lives " + ", ".join(
               "unresolved" if tau is None else "%.3f" % tau for tau in half_lives))
    if min(rates) > 0:
        eps_list = [result["eps"] for result in results]
        absolute = [rate * eps ** 2 for rate, eps in zip(rates, eps_list)]
        report["deficit_rate_exponent"] = fit_line(
            np.log(eps_list), np.log(absolute))[0]
    report["members"] = [
        {"eps": result["eps"], "csv": result["csv"],
         "E0": result["records"][0].E, "half_life": tau,
         "deficit_rate": result["deficit_rate"]}
        for result, tau in zip(results, half_lives)]


@_scenario
def run_alpha_sweep(config, report):
    """Filtered runs against the unfiltered reference at matched sampling:
    max-over-time Lq distances, their fitted order in the filter width, and
    the measured uniform-bound hypothesis."""
    grid = SpectralGrid(*config.grid)
    params = config.params
    q = config.q_exponent
    l = config.l_exponent
    gamma = config.convergence_gamma
    floor = params.beta / 2.0 - gamma
    out = config.output_dir
    report["exponents"] = {
        "l": l, "s": config.s_exponent, "q": q,
        "gamma": gamma, "order_floor": floor}
    v0 = make_datum(config, grid)

    ref_snaps = []
    run(v0, params, stride=config.sample_stride,
        observers=[lambda s: ref_snaps.append((s.t, s.v.field))])
    # |k|^beta of the half-order derivative, formed once for every sample
    half_order = fractional_laplacian_symbol(grid.k_squared, params.beta / 2.0)

    def member(alpha):
        """Fold the distance to the reference and the uniform bound over
        the samples as they arrive."""
        dist = bound = 0.0
        sampled = 0

        def fold(state):
            nonlocal dist, bound, sampled
            tb, fb = ref_snaps[sampled]
            sampled += 1
            if abs(state.t - tb) > 1e-9:
                raise RuntimeError("sample times diverged between runs")
            fa = state.v.field
            dist = max(dist, solution_distance(fa, fb, q))
            bound = max(bound, lp_norm(fa, l)
                        + lp_norm(fa * half_order, l))

        run(v0, dataclasses.replace(params, alpha=alpha), observers=[fold],
            stride=config.sample_stride)
        return {"alpha": alpha, "max_distance": dist, "uniform_bound": bound}

    entries = list(map_on_worker(member, config.alphas))
    report["members"] = entries
    report["uniform_bound_sup"] = max(e["uniform_bound"] for e in entries)
    report["notes"] = [
        "The uniform bound sup_t (L^l norm of v plus L^l norm of its "
        "half-order derivative) is a hypothesis of the convergence "
        "statement; it is measured and reported, not enforced.",
        "The fitted order is that of the momentum v, with every member "
        "started from one shared momentum datum. " + (
            "In two dimensions the first-order filter correction to the "
            "projected momentum equation is a perfect gradient, so the "
            "pressure absorbs it and the measured order sits near 4 rather "
            "than the generic 2.  The filtered velocity "
            "u = (1 - alpha^2 Laplacian)^-1 v converges at order near 2."
            if grid.dim == 2 else
            "In three dimensions the first-order filter correction to the "
            "projected momentum equation is not a gradient, so the pressure "
            "cannot absorb it and the measured order is expected near the "
            "generic 2, not the 4 of two dimensions.  The filtered velocity "
            "u = (1 - alpha^2 Laplacian)^-1 v is expected near 2 as well."),
    ]

    _write_csv(os.path.join(out, "distances.csv"), "alpha,max_distance,uniform_bound",
               ((e["alpha"], e["max_distance"], e["uniform_bound"]) for e in entries))
    report["artifacts"] = {"distances_csv": "distances.csv"}

    for entry in entries:
        if entry["alpha"] == 0.0:
            _check(report, "zero width member coincides with reference",
                   entry["max_distance"] <= 1e-9,
                   f"distance {entry['max_distance']:.3e}")
    positive = [e for e in entries if e["alpha"] > 0.0]
    dists = [e["max_distance"] for e in positive]
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(dists, dists[1:]))
    _check(report, "distance shrinks with the filter width", monotone,
           "max distances " + ", ".join("%.3e" % d for d in dists))
    if all(d > 0 for d in dists):
        order = fit_line(np.log([e["alpha"] for e in positive]),
                         np.log(dists))[0]
        report["fitted_order"] = order
        _check(report, "convergence order at least 1.5", order >= 1.5,
               f"fitted order {order:.3f}")
        _check(report, "convergence order above theory floor", order >= floor,
               f"fitted order {order:.3f}, floor {floor:.3f}")
    else:
        _check(report, "distances positive for the order fit", False,
               "a positive-width member matched the reference exactly")


def _worst_filter_identity(spectra):
    """Worst relative residual of the three-term filter identity over the
    spectra, m in 0..2 and alpha in 0.1, 1."""
    worst = 0.0
    for vh in spectra:
        for alpha in (0.1, 1.0):
            for m in (0, 1, 2):
                worst = max(worst, filter_identity_residual(vh, alpha, m))
    return worst


def _worst_pairing(grid, seed, count, top):
    """Worst normalized momentum pairing |<N(u, v), u>| / (|u|^2 |v|_H1) over
    `count` band-random pairs (u, v) seeded seed + 2j and seed + 2j + 1."""
    worst = 0.0
    for j in range(count):
        u = band_random(grid, seed=seed + 2 * j, band=(1.0, top))
        v = band_random(grid, seed=seed + 1 + 2 * j, band=(1.0, top))
        pairing = l2_inner(ch_nonlinear_term(u, v), to_spectral(u))
        h1 = np.sqrt(l2_norm_sq(v) + gradient_norm_sq(v))
        worst = max(worst, abs(pairing) / (l2_norm_sq(u) * h1))
    return worst


@_scenario
def run_filter_check(config, report):
    """Invariant battery for the smoothing filter and the momentum pairing."""
    grid = SpectralGrid(*config.grid)
    seed = config.seed if config.seed is not None else 0
    rng = np.random.default_rng(seed)

    spectra = [to_spectral(VectorField(
        grid, rng.standard_normal((grid.dim,) + grid.shape), PHYSICAL))
        for _ in range(10)]
    worst = _worst_filter_identity(spectra)
    _check(report, "three-term filter identity", worst <= 1e-12,
           f"worst relative residual {worst:.3e}"
           " (10 fields, m in 0..2, alpha in 0.1, 1)")

    ident = max(float(np.max(np.abs(apply_filter(vh, 0.0).data - vh.data)))
                for vh in spectra[:3])
    _check(report, "zero width filter is the identity", ident == 0.0,
           f"max coefficient change {ident:.3e}")

    worst_ip = _worst_pairing(grid, seed=1000, count=10,
                              top=grid.points_per_axis / 4.0)
    _check(report, "momentum pairing orthogonal to the advecting field",
           worst_ip <= 1e-9, f"worst normalized pairing {worst_ip:.3e}")

    v = band_random(grid, seed=99, band=(2.0, 5.0))
    # widths small enough that alpha^2 k^2 stays well under one across the
    # band, else saturation drags the chord slope below the limit order
    pairs, slope = filter_convergence_curve(v, (0.1, 0.05, 0.025, 0.0125), q=2.0)
    report["filter_convergence"] = {"pairs": pairs, "slope": slope}
    _check(report, "filter converges at second order", 1.8 <= slope <= 2.3,
           f"log-log slope {slope:.3f}")


def _gaussian_multiplier_route(x, beta):
    # multiplier route for exp(-x^2/2) on the line: the cosine transform of
    # xi^(2 beta) exp(-xi^2/2) is a Kummer function
    # imported here so that the solver's import path never loads scipy
    from scipy import special

    return (np.sqrt(2.0 / np.pi) * 2.0 ** (beta - 0.5) * special.gamma(beta + 0.5)
            * special.hyp1f1(beta + 0.5, 0.5, -x * x / 2.0))


@_scenario
def run_kernel_check(config, report):
    """Invariant battery for the kernel quadrature oracle.  A quadrature
    that misses its tolerance or would exceed its node cap ends the battery
    as a failed check that names the kernel order."""
    # imported here so that the solver's import path never loads scipy
    from .kernels import AccuracyError
    try:
        _kernel_battery(config, report)
    except AccuracyError as exc:
        _check(report, "kernel quadrature completed", False,
               f"gamma0 = {config.kernel_gamma0:g}: {exc}")


def _kernel_battery(config, report):
    # imported here so that the solver's import path never loads scipy
    from .kernels import (
        HeatKernelSpec,
        gagliardo_seminorm_direct,
        gagliardo_seminorm_fourier,
        heat_kernel_values,
        integral_fractional_laplacian,
        kernel_lp_norm_slope,
        normalization_constant,
        predicted_lp_slope,
        scaling_law_deviation,
    )

    gamma0 = config.kernel_gamma0
    n = config.kernel_dim
    spec = HeatKernelSpec(gamma0, n)

    worst = scaling_law_deviation(spec, (0.5, 2.0, 5.0), np.linspace(0.0, 6.0, 121))
    _check(report, "kernel scaling law", worst <= 1e-10,
           f"max abs deviation {worst:.3e} at gamma0 = {gamma0:g}")

    classical = HeatKernelSpec(2.0, n)
    r = np.linspace(0.0, 5.0, 41)
    gauss = (4.0 * np.pi) ** (-n / 2.0) * np.exp(-r ** 2 / 4.0)
    dev = float(np.max(np.abs(heat_kernel_values(classical, 1.0, r) - gauss)))
    _check(report, "classical limit recovered", dev <= 1e-8,
           f"max abs deviation {dev:.3e} at gamma0 = 2")

    times = (0.5, 1.0, 2.0, 5.0)
    mass = kernel_lp_norm_slope(spec, 0, 0.0, 1.0, times)
    _check(report, "kernel mass time-invariant", abs(mass) <= 1e-6,
           f"fitted L1 slope {mass:.3e}")
    predicted = predicted_lp_slope(spec, 0, 0.0, 2.0)
    slope = kernel_lp_norm_slope(spec, 0, 0.0, 2.0, times)
    _check(report, "L2 slope matches the symbol prediction",
           abs(slope - predicted) <= 0.02 * abs(predicted),
           f"fitted {slope:.6f}, predicted {predicted:.6f}")

    anchor = normalization_constant(1, 0.5)
    _check(report, "normalization constant anchor",
           abs(anchor - 1.0 / np.pi) <= 1e-12,
           f"C(1, 1/2) = {anchor:.15f} against 1/pi")

    beta = gamma0 / 2.0 if 0.0 < gamma0 / 2.0 < 1.0 else 0.75
    xs = np.linspace(-14.0, 14.0, 561)
    ys = np.exp(-xs ** 2 / 2.0)
    points = (0.0, 0.7, 1.9)
    references = [_gaussian_multiplier_route(x, beta) for x in points]
    scale = max(abs(reference) for reference in references)
    worst_rel = max(
        abs(integral_fractional_laplacian(xs, ys, beta, x) - reference) / scale
        for x, reference in zip(points, references))
    _check(report, "integral route matches the multiplier route",
           worst_rel <= 1e-3,
           f"worst scaled deviation {worst_rel:.3e} at beta = {beta:g}")

    length = 20.0
    mesh = np.arange(256) * (length / 256)
    bump = np.exp(-(mesh - 10.0) ** 2 / 2.0)
    fourier = gagliardo_seminorm_fourier(bump, 0.5, box_length=length)
    direct = gagliardo_seminorm_direct(mesh, bump, 0.5)
    rel = abs(fourier - direct) / direct
    _check(report, "seminorm routes agree", rel <= 1e-2,
           f"fourier {fourier:.6f}, direct {direct:.6f}")


@_scenario
def run_selftest(config, report):
    """Fast all-module battery; a fresh checkout passes everything."""
    # imported here so that the solver's import path never loads scipy
    from .kernels import (
        HeatKernelSpec, mild_solution_picard, normalization_constant,
        scaling_law_deviation)

    out = config.output_dir
    started = time.perf_counter()
    grid = SpectralGrid(2, 32, 2.0 * np.pi)

    mode = VectorField.zeros(grid, SPECTRAL)
    data = mode.data
    data[0][3, 5] = 1.0 + 0.5j
    applied = fractional_laplacian(mode, 0.6)
    expected = grid.k_squared[3, 5] ** 0.6 * data[0][3, 5]
    pure = (abs(applied.data[0][3, 5] - expected) / abs(expected) <= 1e-12
            and np.count_nonzero(applied.data) == 1)
    _check(report, "fractional symbol exact on a pure mode", pure,
           "mode (3, 5), exponent 0.6")

    rng = np.random.default_rng(0)
    worst = _worst_filter_identity(
        to_spectral(VectorField(grid, rng.standard_normal((2,) + grid.shape),
                                PHYSICAL)) for _ in range(3))
    _check(report, "three-term filter identity", worst <= 1e-12,
           f"worst relative residual {worst:.3e}")

    worst_ip = _worst_pairing(grid, seed=50, count=3, top=8.0)
    _check(report, "momentum pairing orthogonal to the advecting field",
           worst_ip <= 1e-9, f"worst normalized pairing {worst_ip:.3e}")

    params = SolverParams(nu=0.05, beta=0.75, alpha=1.0, dt=5e-3, t_end=0.5)
    v0 = band_random(grid, seed=5, band=(2.0, 6.0), amplitude=0.8)
    summary = run(v0, params, stride=1)
    t = np.array([rec.t for rec in summary.records])
    E = np.array([rec.E for rec in summary.records])
    D = np.array([rec.D for rec in summary.records])
    dissipated = cumulative_trapezoid(t, D)
    drift = float(np.max(np.abs(E - (E[0] - 2.0 * params.nu * dissipated))))
    _check(report, "energy balance drift small", drift <= 1e-5 * E[0],
           f"max drift {drift:.3e} against E(0) = {E[0]:.4f}")

    short = SolverParams(nu=0.05, beta=0.75, alpha=1.0, dt=1e-3, t_end=0.01)
    stepped = run(v0, short, stride=10).state.v.field
    mild = mild_solution_picard(v0, short, short.t_end)
    rel = (np.sqrt(l2_norm_sq(stepped - mild))
           / np.sqrt(l2_norm_sq(stepped)))
    _check(report, "stepper matches the fixed-point mild solution",
           rel <= 1e-6, f"relative L2 difference {rel:.3e}")

    state = prepare_initial_state(v0, params)
    path = os.path.join(out, "selftest.chk")
    save_checkpoint(state, params, path)
    loaded, meta = load_checkpoint(path)
    round_trip = (np.array_equal(loaded.v.field.data, state.v.field.data)
                  and loaded.t == state.t
                  and meta["nu"] == params.nu and meta["beta"] == params.beta
                  and meta["alpha"] == params.alpha)
    _check(report, "checkpoint round trip bitwise", round_trip, path)

    tiny = SolverParams(nu=0.05, beta=0.75, alpha=0.5, dt=5e-3, t_end=0.1)
    rows = []
    for _ in range(2):
        redo = run(band_random(grid, seed=5, band=(2.0, 6.0), amplitude=0.8),
                   tiny, stride=2)
        rows.append([_csv_row(rec.as_row()) for rec in redo.records])
    _check(report, "identical runs give identical streams",
           rows[0] == rows[1], f"{len(rows[0])} records compared")

    dev = scaling_law_deviation(HeatKernelSpec(1.5, 2), (2.0,),
                                np.linspace(0.0, 5.0, 51))
    _check(report, "kernel scaling law", dev <= 1e-10,
           f"max abs deviation {dev:.3e}")
    anchor = normalization_constant(1, 0.5)
    _check(report, "normalization constant anchor",
           abs(anchor - 1.0 / np.pi) <= 1e-12, f"C(1, 1/2) = {anchor:.15f}")

    report["wall_time"] = time.perf_counter() - started


RUNNERS = {
    "simulate": run_simulate,
    "decay": run_decay_experiment,
    "scaled-family": run_scaled_family,
    "alpha-sweep": run_alpha_sweep,
    "filter-check": run_filter_check,
    "kernel-check": run_kernel_check,
    "selftest": run_selftest,
}
