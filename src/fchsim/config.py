"""Experiment configuration: INI files, overrides, validation.

Misconfigured physics must fail loudly: unknown sections or keys are errors,
every value is type-checked, and every scenario requirement (a [solver]
section, the grid dimension, the datum keys, exponent hypotheses, decreasing
sweep lists, resolved family members) is enforced here, before any run starts.
"""

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .integrate import SolverParams
from .spectral import helmholtz_symbol, validate_grid


class ConfigError(ValueError):
    """Bad configuration file, override, or scenario requirement."""


SCENARIOS = (
    "simulate",
    "decay",
    "scaled-family",
    "alpha-sweep",
    "filter-check",
    "kernel-check",
    "selftest",
)

# Scenarios that integrate the equations, and so need a [solver] section.
_INTEGRATING = ("simulate", "decay", "scaled-family", "alpha-sweep")

# The [datum] keys each kind takes, with their defaults: the one table that
# both the checks below and experiments.make_datum read.
DATUM_DEFAULTS = {
    "stream-bump": {"width": 1.0, "peak_speed": 1.0},
    "scaled-bump": {"width": 1.0, "peak_speed": 1.0, "epsilon": 1.0},
    "band-random": {"seed": 0, "band_lo": 2.0, "band_hi": 4.0, "amplitude": 1.0},
}


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_float_list(text):
    values = [_finite_float(piece) for piece in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return tuple(values)


_SCHEMA = {
    "experiment": {
        "scenario": str.strip,
        "output_dir": str.strip,
        "sample_stride": int,
    },
    "grid": {
        "dim": int,
        "points": int,
        "box_length": _finite_float,
    },
    "solver": {
        "nu": _finite_float,
        "beta": _finite_float,
        "alpha": _finite_float,
        "dt": _finite_float,
        "t_end": _finite_float,
        "dealias": _parse_bool,
    },
    "datum": {
        "kind": str.strip,
        "width": _finite_float,
        "peak_speed": _finite_float,
        "seed": int,
        "band_lo": _finite_float,
        "band_hi": _finite_float,
        "amplitude": _finite_float,
        "epsilon": _finite_float,
    },
    "decay": {
        "fit_t_lo": _finite_float,
        "fit_t_hi": _finite_float,
    },
    "scaled-family": {
        "epsilons": _parse_float_list,
    },
    "alpha-sweep": {
        "alphas": _parse_float_list,
        "l_exponent": _finite_float,
    },
    "kernel-check": {
        "gamma0": _finite_float,
        "dim": int,
    },
}


def read_config_file(path):
    """Parse an INI file into {section: {key: string}}, schema-checked."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            raw[section][key] = value
    return raw


def apply_overrides(raw, overrides):
    """Apply --override section.key=value pairs onto the raw string dict."""
    updated = {section: dict(items) for section, items in raw.items()}
    for entry in overrides or ():
        if "=" not in entry:
            raise ConfigError(f"override {entry!r} is not of the form section.key=value")
        dotted, value = entry.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {entry!r} is not of the form section.key=value")
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}] in override {entry!r}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in override {entry!r}")
        updated.setdefault(section, {})[key] = value
    return updated


def _typed(raw):
    typed = {}
    for section, items in raw.items():
        typed[section] = {}
        for key, value in items.items():
            converter = _SCHEMA[section][key]
            try:
                typed[section][key] = converter(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {value!r} ({exc})"
                ) from exc
    return typed


@dataclass
class ExperimentConfig:
    """Everything a scenario runner needs, validated and defaulted."""

    scenario: str
    output_dir: str = "out"
    sample_stride: int = 1
    grid: tuple = (2, 64, 2.0 * 3.141592653589793)
    params: SolverParams = None
    datum: dict = field(default_factory=dict)
    fit_window: tuple = None
    epsilons: tuple = None
    alphas: tuple = None
    l_exponent: float = None
    kernel_gamma0: float = 2.0
    kernel_dim: int = 2
    seed: int = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.sample_stride < 1:
            raise ConfigError("sample_stride must be a positive integer")
        try:
            validate_grid(*self.grid)
        except ValueError as exc:
            raise ConfigError(f"bad [grid]: {exc}") from exc
        if self.datum_kind not in DATUM_DEFAULTS:
            raise ConfigError(f"unknown datum kind {self.datum_kind!r}")
        foreign = set(self.datum) - {"kind"} - set(DATUM_DEFAULTS[self.datum_kind])
        if foreign:
            raise ConfigError(f"datum keys {sorted(foreign)} are not used by"
                              f" kind {self.datum_kind!r}")
        if self.scenario == "scaled-family":
            self._check_family()
        if self.scenario in _INTEGRATING and self.params is None:
            raise ConfigError(f"scenario {self.scenario!r} needs a [solver] section")
        if self.params is not None:
            self._check_finite_run()
        if self.scenario == "decay" and self.grid[0] != 2:
            raise ConfigError("decay fits run on two-dimensional grids")
        if self.scenario == "alpha-sweep":
            self._check_alpha_sweep()
        if self.scenario == "kernel-check":
            # imported here so that the solver's import path never loads scipy
            from .kernels import HeatKernelSpec
            try:
                HeatKernelSpec(self.kernel_gamma0, self.kernel_dim)
            except ValueError as exc:
                raise ConfigError(f"bad [kernel-check]: {exc}") from exc

    @property
    def datum_kind(self):
        default = {"alpha-sweep": "band-random",
                   "scaled-family": "scaled-bump"}.get(self.scenario, "stream-bump")
        return self.datum.get("kind", default)

    @property
    def datum_values(self):
        """The kind's [datum] keys: the set values over the table's defaults.

        Resolved here on every read, never written back, so `datum` (and the
        report's config block) holds exactly what the configuration set.
        """
        values = dict(DATUM_DEFAULTS[self.datum_kind])
        values.update((k, v) for k, v in self.datum.items() if k != "kind")
        return values

    def _check_finite_run(self):
        # an overflow here fails the run, or zeroes its energies and passes
        dim, points, length = self.grid
        with np.errstate(all="ignore"):
            k_max = np.full(1, dim * (np.pi * points / np.float64(length)) ** 2)
            for alpha in (self.params.alpha, *(self.alphas or ())):
                if not np.isfinite(helmholtz_symbol(np.float64(alpha), k_max)[0]):
                    raise ConfigError(f"alpha = {alpha:g} overflows 1 + alpha^2 max|k|^2")
        if not math.isfinite(self.params.t_end / self.params.dt):
            raise ConfigError("t_end / dt overflows a float: too many steps")

    def _check_family(self):
        if not self.epsilons:
            raise ConfigError("scaled-family needs an epsilons list")
        eps = tuple(self.epsilons)
        if any(e <= 0 for e in eps):
            raise ConfigError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])) or len(eps) < 2:
            raise ConfigError("epsilons must be strictly decreasing, length >= 2")
        if self.datum_kind != "scaled-bump":
            raise ConfigError("scaled-family runs on the scaled-bump datum")
        # each member's length scale width / eps must fit the box and stay
        # at least a few cells wide
        _, points, length = self.grid
        cells = 4.0 * (length / points)
        width = self.datum_values["width"]
        for e in eps:
            effective = width / e
            if effective > length / 6.0:
                raise ConfigError(
                    f"family member eps = {e:g} has scale {effective:g}, too close"
                    f" to the box size {length:g}")
            if effective < cells:
                raise ConfigError(
                    f"family member eps = {e:g} has scale {effective:g}, under four"
                    f" grid cells ({cells:g})")

    def _check_alpha_sweep(self):
        if not self.alphas:
            raise ConfigError("alpha-sweep needs an alphas list")
        alphas = tuple(self.alphas)
        if any(a < 0 for a in alphas):
            raise ConfigError("alphas must be nonnegative")
        positive = [a for a in alphas if a > 0]
        if any(b >= a for a, b in zip(positive, positive[1:])) or len(positive) < 3:
            raise ConfigError(
                "alphas must be strictly decreasing with at least 3 positive entries"
            )
        if self.params.alpha != 0.0:
            raise ConfigError("alpha-sweep takes its widths from [alpha-sweep]"
                              " alphas; set [solver] alpha = 0")
        n = self.grid[0]
        beta = self.params.beta
        l = self.l_exponent
        if l is None:
            raise ConfigError("alpha-sweep needs l_exponent")
        if l < 1.0:
            raise ConfigError(f"l_exponent must be >= 1 (an L^l norm), got {l}")
        if 3.0 * beta - 1.0 <= 0.0:
            raise ConfigError(
                f"convergence theory needs beta > 1/3, got beta = {beta}"
            )
        if l <= n / (3.0 * beta - 1.0):
            raise ConfigError(
                f"l_exponent must exceed n/(3 beta - 1) = {n / (3 * beta - 1):.4g}, "
                f"got {l}"
            )
        if n - l * beta <= 0.0:
            raise ConfigError(
                f"l_exponent must stay below n/beta = {n / beta:.4g}, got {l}"
            )
        s = self.s_exponent
        if s <= 2.0:
            raise ConfigError(f"derived exponent s = {s:.4g} must exceed 2")

    @property
    def s_exponent(self):
        # s = l n / (n - l beta) of the convergence statement; sweep only
        if self.scenario != "alpha-sweep":
            return None
        n, l = self.grid[0], self.l_exponent
        return l * n / (n - l * self.params.beta)

    @property
    def q_exponent(self):
        s = self.s_exponent
        return None if s is None else 2.0 * s / (s - 2.0)

    @property
    def convergence_gamma(self):
        # Sobolev-embedding loss (n/2)(1/2 - 1/q) entering the rate floor.
        if self.q_exponent is None:
            return None
        n = self.grid[0]
        return (n / 2.0) * (0.5 - 1.0 / self.q_exponent)


def build_config(scenario, raw, out=None, seed=None):
    """Assemble an ExperimentConfig from typed-or-raw sections and CLI flags."""
    typed = _typed(raw)
    declared = typed.get("experiment", {}).get("scenario")
    if declared is not None and declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was invoked"
        )

    # keys that map straight onto ExperimentConfig fields
    kwargs = {**typed.get("experiment", {}), "scenario": scenario}
    for section in ("scaled-family", "alpha-sweep"):
        kwargs.update(typed.get(section, {}))
    for key, value in typed.get("kernel-check", {}).items():
        kwargs["kernel_" + key] = value
    if "grid" in typed:
        section = typed["grid"]
        missing = {"dim", "points", "box_length"} - set(section)
        if missing:
            raise ConfigError(f"[grid] missing keys: {sorted(missing)}")
        kwargs["grid"] = (section["dim"], section["points"], section["box_length"])
    if "solver" in typed:
        section = dict(typed["solver"])
        missing = {"nu", "beta", "alpha", "dt", "t_end"} - set(section)
        if missing:
            raise ConfigError(f"[solver] missing keys: {sorted(missing)}")
        try:
            kwargs["params"] = SolverParams(**section)
        except ValueError as exc:
            raise ConfigError(f"bad solver parameters: {exc}") from exc
    if "datum" in typed:
        kwargs["datum"] = dict(typed["datum"])
    if "decay" in typed:
        section = typed["decay"]
        if set(section) != {"fit_t_lo", "fit_t_hi"}:
            raise ConfigError("[decay] needs both fit_t_lo and fit_t_hi")
        if not 0 <= section["fit_t_lo"] < section["fit_t_hi"]:
            raise ConfigError("[decay] fit window must satisfy 0 <= lo < hi")
        kwargs["fit_window"] = (section["fit_t_lo"], section["fit_t_hi"])
    if out is not None:
        kwargs["output_dir"] = out
    if seed is not None:
        kwargs["seed"] = int(seed)
    return ExperimentConfig(**kwargs)


def load_experiment_config(scenario, path=None, overrides=None, out=None, seed=None):
    """Read `path` (or start empty), apply overrides, build the config."""
    raw = read_config_file(path) if path is not None else {}
    raw = apply_overrides(raw, overrides)
    return build_config(scenario, raw, out=out, seed=seed)
