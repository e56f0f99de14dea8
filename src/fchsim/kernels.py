"""Independent oracles: fractional heat kernels, singular integrals, seminorms.

Everything here is deliberately decoupled from the spectral solver so it can
certify it.  The heat kernel of the semigroup e^{-t(-lap)^(g/2)} is evaluated
by radial quadrature of its inverse Fourier integral; the fractional Laplacian
gets a second, singular-integral definition; the Gagliardo seminorm gets both
a Fourier form and (in 1D) a direct double-integral form; and the mild-form
Picard iteration provides a time integrator that shares no code with the
Runge-Kutta stepper beyond the right-hand side itself.
"""

import math

import numpy as np
from scipy import special
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline

from .diagnostics import _parseval_sum, fit_line, mode_power
from .fields import leray_project
from .spectral import SPECTRAL, VectorField, full_size, to_spectral


class AccuracyError(RuntimeError):
    """A quadrature's self-reported error estimate exceeded tolerance."""


class HeatKernelSpec:
    """Kernel G with Fourier transform e^{-t|xi|^gamma0} in `dim` dimensions."""

    def __init__(self, gamma0, dim):
        gamma0 = float(gamma0)
        if not 0.0 < gamma0 <= 2.0:
            raise ValueError(f"kernel order must lie in (0, 2], got {gamma0}")
        if dim not in (1, 2, 3):
            raise ValueError(f"kernel dimension must be 1, 2 or 3, got {dim}")
        self.gamma0 = gamma0
        self.dim = int(dim)

    def __repr__(self):
        return f"HeatKernelSpec(gamma0={self.gamma0}, dim={self.dim})"


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Radial profile of the inverse Fourier integral in n dimensions for the k-th
# radial derivative: (power of rho beyond the symbol, oscillatory factor).
_PROFILE_TABLE = {
    (1, 0): (0, np.cos),
    (1, 1): (1, np.sin),
    (2, 0): (1, lambda z: special.j0(z)),
    (2, 1): (2, lambda z: special.j1(z)),
    (3, 0): (2, lambda z: np.sinc(z / np.pi)),
    (3, 1): (3, lambda z: special.spherical_jn(1, z)),
}
_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_ANGULAR = {1: 1.0 / np.pi, 2: 1.0 / (2.0 * np.pi), 3: 1.0 / (2.0 * np.pi**2)}


def _cutoff(t, gamma, extra):
    # Solve t*rho^gamma - extra*ln(rho) = 55 by fixed point: beyond this the
    # damped integrand is below ~1e-24 relative.
    rho = (60.0 / t) ** (1.0 / gamma)
    for _ in range(80):
        target = 55.0 + extra * max(math.log(rho), 0.0)
        fresh = (target / t) ** (1.0 / gamma)
        if abs(fresh - rho) <= 1e-12 * rho:
            break
        rho = fresh
    return rho


def _panel_nodes(rho_max, delta, refine):
    count = max(12, int(np.ceil(rho_max / delta))) * refine
    edges = np.linspace(0.0, rho_max, count + 1)
    # The symbol rho^gamma has a cusp at 0 for non-integer gamma; refine the
    # first panel geometrically toward it.
    graded = edges[1] * 2.0 ** np.arange(-18.0, 0.0)
    edges = np.concatenate([[0.0], graded, edges[1:]])
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rho = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return rho, wts


def _profile(spec, t, radii, k=0, a=0.0, refine=1):
    """Values of the radial profile of D^k Lambda^a G(t, .) at given radii."""
    gamma, n = spec.gamma0, spec.dim
    power, oscillator = _PROFILE_TABLE[(n, k)]
    radii = np.asarray(radii, dtype=float)
    rho_max = _cutoff(t, gamma, power + a)
    r_peak = max(float(np.max(np.abs(radii))), 1e-12)
    # At most a quarter oscillation per 16-node panel.
    delta = min(np.pi / (2.0 * r_peak), rho_max / 24.0)
    rho, wts = _panel_nodes(rho_max, delta, refine)
    damp = rho ** (power + a) * np.exp(-t * rho**gamma) * wts
    sign = -1.0 if k == 1 else 1.0
    out = np.empty(radii.shape)
    flat_r = radii.ravel()
    flat_out = out.ravel()
    for start in range(0, flat_r.size, 256):
        block = flat_r[start : start + 256]
        terms = oscillator(np.outer(np.abs(block), rho))
        terms *= damp
        flat_out[start : start + 256] = np.sum(terms, axis=1)
    return sign * _ANGULAR[n] * out


def heat_kernel_values(spec, t, radii):
    """Evaluate G(t, x) at |x| = radii by quadrature, with a self-check."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"kernel time must be positive, got {t}")
    coarse = _profile(spec, t, radii, refine=1)
    fine = _profile(spec, t, radii, refine=2)
    scale = float(np.max(np.abs(fine))) + 1e-300
    defect = float(np.max(np.abs(fine - coarse)))
    if defect > 1e-11 * scale:
        raise AccuracyError(
            f"kernel quadrature self-check failed: panel refinement moved "
            f"values by {defect:.3e} against scale {scale:.3e}"
        )
    return fine


def scaling_law_deviation(spec, times, radii):
    """Worst |G(t, r) - t^(-n/gamma0) G(1, t^(-1/gamma0) r)| over the times:
    the kernel is self-similar, so this is quadrature error."""
    n, gamma0 = spec.dim, spec.gamma0
    return max(float(np.max(np.abs(
        heat_kernel_values(spec, t, radii) - t ** (-n / gamma0)
        * heat_kernel_values(spec, 1.0, t ** (-1.0 / gamma0) * radii))))
        for t in times)


def kernel_lp_norm(spec, t, p, k=0, a=0.0):
    """Discrete L^p norm of D^k Lambda^a G(t, .) over R^n (radial quadrature)."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"kernel time must be positive, got {t}")
    if k not in (0, 1):
        raise ValueError(f"derivative order must be 0 or 1, got {k}")
    if a < 0.0:
        raise ValueError(f"fractional order must be nonnegative, got {a}")
    if not (p >= 1.0 or np.isinf(p)):
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    n = spec.dim
    scale = t ** (1.0 / spec.gamma0)
    if np.isinf(p):
        radii = np.linspace(0.0, 14.0 * scale, 3001)
        return float(np.max(np.abs(_profile(spec, t, radii, k, a))))

    reach = 30.0 * scale
    for _ in range(4):
        radii = np.geomspace(reach * 1e-5, reach, 2401)
        values = _profile(spec, t, radii, k, a)
        integrand = np.abs(values) ** p * radii ** (n - 1)
        core = simpson(integrand, x=radii) + integrand[0] * radii[0] / n
        window = radii >= reach / 3.0
        dropoff = np.max(np.abs(values[window][-24:])) / (
            np.max(np.abs(values[window])) + 1e-300
        )
        if dropoff < 1e-3:
            # Super-algebraic falloff; whatever lies beyond `reach` is dwarfed
            # by the already-negligible last third.
            return float((_SURFACE[n] * core) ** (1.0 / p))
        # A clean power-law fit extrapolates the remainder reliably as long as
        # it stays a modest correction; otherwise push the cutoff out.
        tail = _power_tail(radii[window], values[window], p, n, reach)
        if tail is not None and tail <= 0.05 * core:
            return float((_SURFACE[n] * (core + tail)) ** (1.0 / p))
        reach *= 4.0
    raise AccuracyError(
        "kernel L^p tail did not settle into an integrable power law within "
        f"reach {reach:.3e}"
    )


def _power_tail(radii, values, p, n, reach):
    # Fit |F| ~ c r^{-s} on the sign-stable part of the window and integrate
    # the fit beyond `reach`; None means the window is not yet asymptotic.
    signs = np.sign(values)
    stable = signs == signs[-1]
    if signs[-1] == 0.0 or np.count_nonzero(stable) < 30:
        return None
    start = len(stable) - np.argmin(stable[::-1]) if not stable.all() else 0
    r, f = radii[start:], np.abs(values[start:])
    if np.any(f <= 0.0) or len(r) < 30:
        return None
    slope, intercept = fit_line(np.log(r), np.log(f))
    residual = np.max(np.abs(np.log(f) - (intercept + slope * np.log(r))))
    s = -slope
    if residual > 0.02 or s * p <= n + 0.05:
        return None
    c = np.exp(intercept)
    return c**p * reach ** (n - s * p) / (s * p - n)


def predicted_lp_slope(spec, k, a, p):
    """Decay exponent of t -> ||D^k Lambda^a G(t)||_p predicted by scaling."""
    inv_p = 0.0 if np.isinf(p) else 1.0 / p
    return -(k + a) / spec.gamma0 - (spec.dim / spec.gamma0) * (1.0 - inv_p)


def kernel_lp_norm_slope(spec, k, a, p, times):
    """Fitted log-log slope of the kernel's L^p norm over the given times."""
    times = np.asarray(sorted(float(t) for t in times))
    if times.size < 3:
        raise ValueError(f"need at least 3 times for a slope fit, got {times.size}")
    if times[0] <= 0.0:
        raise ValueError("slope fit times must be positive")
    if times[-1] / times[0] < 10.0 * (1.0 - 1e-9):
        raise ValueError("slope fit times must span at least one decade")
    norms = [kernel_lp_norm(spec, t, p, k, a) for t in times]
    return fit_line(np.log(times), np.log(norms))[0]


def normalization_constant(n, beta):
    """C(n, beta) = 1 / integral of (1 - cos z_1)/|z|^(n+2 beta) over R^n."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(
            f"normalization integral diverges unless 0 < beta < 1, got {beta}"
        )
    # After angular reduction the integral is radial with weight 1 - w(rho),
    # where w is cos, J0 or sinc for n = 1, 2, 3.  Below delta the weight's
    # Taylor series integrates in closed form (the integrand is singular but
    # integrable there); (delta, 1) is smooth quadrature; the tail of the
    # constant 1 is explicit; and the oscillatory remainder is summed by a
    # method fitted to each weight.
    b2 = 1.0 + 2.0 * beta
    series = {
        1: (0.5, -1.0 / 24.0, 1.0 / 720.0),
        2: (0.25, -1.0 / 64.0, 1.0 / 2304.0),
        3: (1.0 / 6.0, -1.0 / 120.0, 1.0 / 5040.0),
    }[n]
    smooth = {
        1: lambda r: 2.0 * np.sin(0.5 * r) ** 2,
        2: lambda r: 1.0 - special.j0(r),
        3: lambda r: 1.0 - np.sinc(r / np.pi),
    }[n]
    delta = 1e-2
    head = sum(
        c * delta ** (2 * m - 2.0 * beta) / (2 * m - 2.0 * beta)
        for m, c in enumerate(series, start=1)
    )
    head += quad(lambda r: smooth(r) / r**b2, delta, 1.0,
                 epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    if n == 1:
        osc = _cos_tail(b2)
    elif n == 2:
        osc = _bessel_tail(beta)
    else:
        osc = _sin_tail(b2 + 1.0)
    total = _SURFACE[n] * (head + 1.0 / (2.0 * beta) - osc)
    return 1.0 / total


def _cos_tail(mu):
    # Integral of cos(r) r^-mu over (1, inf); two integrations by parts speed
    # the algebraic decay to r^-(mu+2) before the oscillatory quadrature.
    rest = quad(lambda r: r ** (-mu - 2.0), 1.0, np.inf, weight="cos",
                wvar=1.0, epsabs=1e-13, limit=300)[0]
    return -np.sin(1.0) + mu * np.cos(1.0) - mu * (mu + 1.0) * rest


def _sin_tail(mu):
    # Integral of sin(r) r^-mu over (1, inf) by one integration by parts.
    return np.cos(1.0) - mu * _cos_tail(mu + 1.0)


def _bessel_tail(beta):
    # Integral of J0(r) r^(-1-2 beta) over (1, inf), chunked between the zeros
    # of J0 so the partial sums alternate; averaging the last two partial sums
    # accelerates the convergence.
    zeros = special.jn_zeros(0, 360)
    edges = np.concatenate([[1.0], zeros[zeros > 1.0]])
    partial = 0.0
    previous = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece = quad(lambda r: special.j0(r) * r**(-1.0 - 2.0 * beta), lo, hi,
                     epsabs=1e-14, limit=60)[0]
        previous = partial
        partial += piece
    return 0.5 * (partial + previous)


def _fractional_order(beta):
    """beta as a float, which must lie in (0, 1)."""
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {beta}")
    return beta


def _uniform_samples(xs, ys):
    """Matching 1D float samples, 65 or more, on an increasing uniform mesh."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 65:
        raise ValueError("need matching 1D sample arrays with at least 65 points")
    steps = np.diff(xs)
    if np.any(steps <= 0.0) or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("samples must sit on an increasing uniform mesh")
    return xs, ys


def integral_fractional_laplacian(xs, ys, beta, point, rtol=1e-3):
    """Singular-integral fractional Laplacian of 1D samples at one point.

    Uses the symmetric second difference 2f(x) - f(x+y) - f(x-y) against
    y^(-1-2 beta), with an analytic expansion near y = 0, spline quadrature in
    the middle and an analytic far tail that assumes f has decayed.  The same
    computation on every second sample yields a self-estimate of the error.
    """
    xs, ys = _uniform_samples(xs, ys)
    beta = _fractional_order(beta)
    point = float(point)
    span = xs[-1] - xs[0]
    if not xs[0] + 0.2 * span <= point <= xs[-1] - 0.2 * span:
        raise ValueError("evaluation point too close to the edge of the mesh")

    # Half-line quadrature of the symmetric second difference carries the
    # full constant (the usual C/2 goes with the two-sided integral).
    constant = normalization_constant(1, beta)
    full = _symmetric_difference_quadrature(xs, ys, beta, point)
    decimated = _symmetric_difference_quadrature(xs[::2], ys[::2], beta, point)
    value = constant * full
    drift = constant * abs(full - decimated) / 15.0
    scale = max(abs(value), constant * float(np.max(np.abs(ys))))
    if drift > rtol * scale:
        raise AccuracyError(
            f"sample mesh too coarse: self-estimated error {drift:.3e} "
            f"exceeds {rtol:.1e} of scale {scale:.3e}"
        )
    return value


def _symmetric_difference_quadrature(xs, ys, beta, point):
    spline = CubicSpline(xs, ys)
    dx = xs[1] - xs[0]
    fx = float(spline(point))
    h0 = 2.0 * dx
    reach = min(point - xs[0], xs[-1] - point)

    # Head: 2f(x) - f(x+y) - f(x-y) = -f''(x) y^2 - f''''(x) y^4 / 12 - ...
    d2 = float(spline(point, 2))
    d4 = (
        spline(point - 2 * dx, 2)
        - 2.0 * d2
        + spline(point + 2 * dx, 2)
    ) / (4.0 * dx * dx)
    head = -d2 * h0 ** (2.0 - 2.0 * beta) / (2.0 - 2.0 * beta)
    head -= d4 / 12.0 * h0 ** (4.0 - 2.0 * beta) / (4.0 - 2.0 * beta)

    middle = quad(
        lambda y: (2.0 * fx - spline(point + y) - spline(point - y))
        / y ** (1.0 + 2.0 * beta),
        h0,
        reach,
        epsabs=1e-12,
        epsrel=1e-9,
        limit=400,
    )[0]
    # Far tail: beyond the sampled reach, take f at its edge asymptote (zero
    # for decaying samples; makes constants come out exactly zero).
    asymptote = 0.5 * (ys[0] + ys[-1])
    tail = 2.0 * (fx - asymptote) * reach ** (-2.0 * beta) / (2.0 * beta)
    return head + middle + tail


def gagliardo_seminorm_fourier(field, beta, box_length=None):
    """Gagliardo H^beta seminorm via the Fourier multiplier |k|^(2 beta).

    Accepts a VectorField on a SpectralGrid, or a raw periodic scalar array
    together with its box length.  Components of a vector field are summed.
    """
    beta = _fractional_order(beta)
    if isinstance(field, VectorField):
        grid = field.grid
        n = grid.dim
        power = mode_power(to_spectral(field).data)
        total = _parseval_sum(grid.k_squared**beta * power, grid)
    else:
        data = np.asarray(field)
        if box_length is None:
            raise ValueError("raw arrays need an explicit box_length")
        n = data.ndim
        shape = data.shape
        coeff = np.fft.fftn(data)
        power = np.abs(coeff) ** 2
        axes_k = [
            2.0 * np.pi * np.fft.fftfreq(m, d=box_length / m) for m in shape
        ]
        mesh = np.meshgrid(*axes_k, indexing="ij")
        k_sq = sum(k * k for k in mesh)
        weight = box_length**n / float(np.prod(shape)) ** 2
        total = weight * float(np.sum(k_sq**beta * power))
    constant = normalization_constant(n, beta)
    seminorm_sq = 2.0 / constant * total
    return math.sqrt(max(seminorm_sq, 0.0))


def gagliardo_seminorm_direct(xs, ys, beta):
    """1D Gagliardo seminorm by direct quadrature of the double integral.

    Splits the inner displacement h: quadratic behaviour of the L2 modulus of
    continuity below one mesh step, trapezoid sum across the sampled range,
    and the constant 2||f||^2 asymptote beyond it.  Oracle-grade, 1D only.
    """
    xs, ys = _uniform_samples(xs, ys)
    beta = _fractional_order(beta)

    dx = float(xs[1] - xs[0])
    norm_sq = float(np.sum(ys**2)) * dx
    grad_sq = float(np.sum(np.diff(ys) ** 2)) / dx
    # Beyond half the span the truncated overlap no longer sees both copies
    # of f and the sampled modulus of continuity undercounts; stop there and
    # switch to the 2||f||^2 asymptote.
    shifts = np.arange(1, xs.size // 2 + 1)
    modulus = np.array(
        [float(np.sum((ys[m:] - ys[:-m]) ** 2)) * dx for m in shifts]
    )
    h = shifts * dx
    integrand = modulus / h ** (1.0 + 2.0 * beta)
    head = grad_sq * dx ** (2.0 - 2.0 * beta) / (2.0 - 2.0 * beta)
    mid = float(np.trapezoid(integrand, h))
    tail = 2.0 * norm_sq * h[-1] ** (-2.0 * beta) / (2.0 * beta)
    return math.sqrt(max(2.0 * (head + mid + tail), 0.0))


def mild_solution_picard(initial, params, t, nodes=25, tol=1e-12,
                         max_sweeps=200):
    """Solve the mild (Duhamel) form on [0, t] by Picard iteration.

    The time integral is a trapezoid rule over equispaced nodes and the fixed
    point is iterated to `tol`; shares only the right-hand-side closure with
    the Runge-Kutta stepper, so agreement certifies both.  Returns the
    solution at time t as a spectral VectorField.
    """
    from .integrate import _rhs_filtered, prepare_initial_state

    t = float(t)
    if t <= 0.0:
        raise ValueError(f"horizon must be positive, got {t}")
    if nodes < 3:
        raise ValueError(f"need at least 3 quadrature nodes, got {nodes}")
    state = prepare_initial_state(initial, params)
    grid = state.grid
    stepper_rhs = _rhs_filtered(grid, params.alpha, params.dealias)
    axes = tuple(range(1, grid.dim + 1))

    def rhs(vh):
        return stepper_rhs([full_size(vh, axes)])

    symbol = params.nu * grid.k_squared**params.beta
    times = np.linspace(0.0, t, nodes)
    dt = times[1] - times[0]
    weights = np.full(nodes, dt)
    weights[0] = weights[-1] = 0.5 * dt
    v0 = state.v.field.data
    # e^{-symbol (t_j - t_i)} for j >= i, evaluated lazily row by row.
    decay = [np.exp(-symbol * s) for s in times]

    iterates = [v0 * decay[j] for j in range(nodes)]
    for _ in range(max_sweeps):
        forcings = [rhs(vj) for vj in iterates]
        fresh = []
        for j in range(nodes):
            acc = v0 * decay[j]
            for i in range(j + 1):
                acc = acc + weights[i] * decay[j - i] * forcings[i]
            fresh.append(acc)
        shift = max(
            float(np.max(np.abs(new - old)))
            for new, old in zip(fresh, iterates)
        )
        iterates = fresh
        scale = float(np.max(np.abs(iterates[-1]))) + 1e-300
        if shift <= tol * scale:
            break
    else:
        raise AccuracyError(
            f"Picard iteration did not contract to {tol:.1e} in "
            f"{max_sweeps} sweeps"
        )
    out = VectorField(grid, iterates[-1], SPECTRAL)
    return leray_project(out).field
