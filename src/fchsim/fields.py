"""Incompressible vector calculus on spectral grids.

Leray projection onto divergence-free fields, the filtered-advection
nonlinear term u.grad(v) + v.grad(u)^T, the symmetrization identity
behind pressure elimination, and diagnostic pressure recovery.  The module
also owns the process's one worker thread, which runs the second lane of
the nonlinear term or a share of the items of map_on_worker.

Index convention used throughout: (v.grad(u)^T)_i = sum_j v_j d_i u_j,
while (u.grad(v))_i = sum_j u_j d_j v_i.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import (
    SPECTRAL, VectorField, dealias as dealias_modes, real_forward, real_inverse,
    to_physical, to_spectral, _scalar_forward, _scalar_inverse,
)

# ch_nonlinear_term runs its second lane on a worker thread only when a
# scalar transform has at least this many points and the process may use
# two CPUs.  One RHS on a 2-core host, one thread -> two lanes, medians of
# 40 interleaved calls: 64^2 2.3 -> 2.9 ms, 128^2 10.2 -> 9.4 ms, 256^2
# 36.8 -> 31.3 ms, 512^2 151 -> 118 ms, 48^3 (alpha = 0) 88 -> 70 ms.
# Below 2^16 points the hand-off saves under a millisecond per call, or
# costs, so small grids stay on one thread; the 128^2 alpha sweep uses the
# second core through map_on_worker instead.
THREADED_MIN_POINTS = 2 ** 16
# The one worker thread, shared by the lanes and by map_on_worker, and
# whether a map holds it.
_POOL = None
_POOL_LOCK = threading.Lock()
_MAP_BUSY = False


@dataclass
class ProjectedField:
    """A spectral VectorField carrying a divergence-free certificate."""
    field: VectorField
    divergence_free: bool = True


def divergence_defect(field):
    """Normalized spectral divergence residual max|k.vhat| / max(|vhat||k|)."""
    fh = to_spectral(field)
    k = field.grid.derivative_wavenumbers
    num = np.max(np.abs(np.sum(1j * k * fh.data, axis=0)))
    den = np.max(np.abs(fh.data) * np.sqrt(np.sum(k * k, axis=0)))
    return float(num / den) if den > 0 else 0.0


def leray_project(v):
    """Per-mode projection vhat -> (I - k k^T/|k|^2) vhat.

    The zero mode is forced to zero (mean-free velocity convention), which
    also removes the 0/0 in the projector there.
    """
    vh = to_spectral(v).data
    grid = v.grid
    k = grid.derivative_wavenumbers
    # one component at a time: no (dim, N^n) temporaries
    kdotv = k[0] * vh[0]
    for i in range(1, grid.dim):
        kdotv += k[i] * vh[i]
    kdotv *= grid.inverse_k_squared
    data = np.empty_like(vh)
    for i in range(grid.dim):
        np.multiply(k[i], kdotv, out=data[i])
        np.subtract(vh[i], data[i], out=data[i])
    data[(slice(None),) + (0,) * grid.dim] = 0.0
    out = VectorField(grid, data, SPECTRAL)
    return ProjectedField(out, divergence_free=True)


def _jacobian_physical(grid, fh_data):
    """All partial derivatives d_j f_i in physical space, shape (dim, dim, ...)."""
    dim = grid.dim
    k = grid.derivative_wavenumbers
    out = np.empty((dim, dim) + grid.shape)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = _scalar_inverse(grid, 1j * k[j] * fh_data[i])
    return out


def _lanes(dim):
    """The derivative terms of N(u, v), split into two lanes by output component.

    Term (a, b, from_v) adds u_b d_b v_a into component a when from_v, else
    v_a d_b u_a into component b.  Each component keeps the order of the
    double loop over (a, b), so its sum is the same floating-point sum
    whichever lane forms it: components {0} | {1} in 2D, {0, 2} | {1} in 3D.
    """
    lanes = ([], [])
    for a in range(dim):
        for b in range(dim):
            for from_v, target in ((True, a), (False, b)):
                lanes[target % 2].append((a, b, from_v))
    return lanes


def _lane_buffers(grid):
    """One reused spectral and one reused physical buffer for a lane.

    The spectrum stays 0 past the modes the inverse reads.
    """
    return [np.zeros(grid.shape, np.complex128), np.empty(grid.shape)]


def _add_terms(job):
    """Add a lane's derivative terms into its components of `out`.

    `job` is [uh, vh, u, v, ik, terms, out, spectrum, derivative], with uh
    and vh the half spectra of u and v, and it is emptied on entry: once
    this returns, a worker thread running it holds none of the arrays.
    """
    uh, vh, u, v, ik, terms, out, spectrum, derivative = job
    job.clear()
    half = spectrum[..., :ik.shape[-1]]
    axes = range(out.ndim - 1)
    for a, b, from_v in terms:
        fh, factor, target = (vh, u[b], a) if from_v else (uh, v[a], b)
        np.multiply(ik[b], fh[a], out=half)
        real_inverse(spectrum, axes, out=derivative)
        derivative *= factor
        out[target] += derivative


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _forget_pool():
    global _POOL, _POOL_LOCK, _MAP_BUSY
    _POOL, _POOL_LOCK, _MAP_BUSY = None, threading.Lock(), False


def _start_worker():
    """The one-thread pool, started on first use; a forked child, which
    inherits the pool but not its thread, starts its own.  Call it with
    _POOL_LOCK held."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max_workers=1,
                                   thread_name_prefix="fchsim-lane")
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_forget_pool)
    return _POOL


def _lane_pool(grid):
    """The pool that runs the second lane, or None to run both lanes on the
    calling thread: on small grids, on one CPU, and while map_on_worker
    runs, since its worker may be running the caller itself."""
    if (_MAP_BUSY or grid.points_per_axis ** grid.dim < THREADED_MIN_POINTS
            or _cpu_count() < 2):
        return None
    with _POOL_LOCK:
        return _start_worker()


def _map_pool():
    """The pool, now held by a map, or None when a map already holds it."""
    global _MAP_BUSY
    with _POOL_LOCK:
        if _MAP_BUSY:
            return None
        _MAP_BUSY = True
        return _start_worker()


def map_on_worker(fn, items):
    """Yield fn(item) for every item, in item order, sharing the items
    between the calling thread and the worker.

    Whichever thread is free claims the next item, so each result is the
    one a plain loop gives, bit for bit.  The first failure in item order
    is raised where its result would be yielded, once the worker has ended
    its item; after a failure neither thread starts an item.  While the map
    runs every caller's lanes run inline (_lane_pool).  On one CPU, for
    fewer than two items, or inside a running map, this is a plain loop.
    The map ends, and frees the worker, when the iterator is exhausted or
    closed.
    """
    global _MAP_BUSY
    items = list(items)
    pool = _map_pool() if len(items) > 1 and _cpu_count() > 1 else None
    if pool is None:
        for item in items:
            yield fn(item)
        return
    state = threading.Condition()
    outcomes = [None] * len(items)       # (ok, result or exception)
    unclaimed = iter(range(len(items)))
    stop = False

    def claim():
        with state:
            return None if stop else next(unclaimed, None)

    def finish(index):
        nonlocal stop
        try:
            outcome = (True, fn(items[index]))
        except BaseException as exc:
            outcome = (False, exc)
        with state:
            outcomes[index] = outcome
            stop = stop or not outcome[0]
            state.notify_all()

    def work():
        while (index := claim()) is not None:
            finish(index)

    pending = None
    try:
        pending = pool.submit(work)
        for k in range(len(items)):
            # Items are claimed in order, so item k is claimed and ends;
            # while it runs on the worker, this thread takes the next one.
            while outcomes[k] is None:
                index = claim()
                if index is None:
                    with state:
                        state.wait_for(lambda: outcomes[k] is not None)
                else:
                    finish(index)
            ok, result = outcomes[k]
            if not ok:
                raise result
            yield result
    finally:
        with state:
            stop = True
        if pending is not None:
            pending.result()
        _MAP_BUSY = False


def ch_nonlinear_term(u, v, dealias=True):
    """N(u, v) = u.grad(v) + v.grad(u)^T, un-projected, spectral output.

    Products are formed pointwise in physical space, derivatives taken
    spectrally, and the result dealiased (2/3 rule) unless disabled.  The
    Jacobians are streamed: each derivative d_b v_a and d_b u_a goes through
    a reused spectral and physical buffer and is folded into the product at
    once, as u_b d_b v_a into component a and v_a d_b u_a into component b.
    The terms run in two lanes by output component (_lanes); on grids of at
    least THREADED_MIN_POINTS points the second lane runs on a worker thread,
    with the same result bit for bit.
    """
    if u.grid != v.grid:
        raise ValueError("u and v live on different grids")
    if u.is_spectral or v.is_spectral:
        raise ValueError("ch_nonlinear_term expects physical inputs")
    grid = u.grid
    dim = grid.dim
    axes = tuple(range(1, dim + 1))
    # The inverse reads only the modes 0 <= m <= N/2 of the last axis, so
    # the derivative spectra are formed there alone.
    uh = real_forward(u.data, axes, half=True)
    vh = real_forward(v.data, axes, half=True)
    ik = 1j * grid.derivative_wavenumbers[..., :uh.shape[-1]]
    out = np.zeros((dim,) + grid.shape)
    first, second = _lanes(dim)
    shared = [uh, vh, u.data, v.data, ik]
    pool = _lane_pool(grid)
    if pool is None:
        _add_terms(shared + [first + second, out] + _lane_buffers(grid))
    else:
        # Every buffer is allocated here; the worker writes only into the
        # components and buffers it is handed.
        pending = pool.submit(_add_terms,
                              shared + [second, out] + _lane_buffers(grid))
        try:
            _add_terms(shared + [first, out] + _lane_buffers(grid))
        finally:
            pending.result()
    del uh, vh, ik, shared
    nh = VectorField(grid, real_forward(out, axes), SPECTRAL)
    return dealias_modes(nh) if dealias else nh


def advection_term(v, dealias=True):
    """Plain self-advection v.grad(v), un-projected, spectral output."""
    if v.is_spectral:
        raise ValueError("advection_term expects a physical input")
    grid = v.grid
    dim = grid.dim
    axes = tuple(range(1, dim + 1))
    dv = _jacobian_physical(grid, real_forward(v.data, axes))
    out = np.zeros((dim,) + grid.shape)
    for i in range(dim):
        for j in range(dim):
            out[i] += v.data[j] * dv[i, j]
    nh = VectorField(grid, real_forward(out, axes), SPECTRAL)
    return dealias_modes(nh) if dealias else nh


def symmetrized_identity_check(u, v):
    """Relative max-norm residual of grad(sum_i u_i v_i) = u.grad(v)^T + v.grad(u)^T.

    Both sides are compared on the dealiased (2/3-rule) modes, where the
    quadratic products are alias-free; that is the subspace the dynamics
    lives on.  Returns 0 for identically zero inputs.
    """
    if u.is_spectral or v.is_spectral:
        raise ValueError("physical representation expected")
    grid = u.grid
    dim = grid.dim
    mask = grid.dealias_mask
    s = np.sum(u.data * v.data, axis=0)
    sh = _scalar_forward(grid, s)
    k = grid.derivative_wavenumbers
    du = _jacobian_physical(grid, to_spectral(u).data)
    dv = _jacobian_physical(grid, to_spectral(v).data)
    worst_num = 0.0
    worst_den = 0.0
    for i in range(dim):
        lhs = _scalar_inverse(grid, 1j * k[i] * sh * mask)
        rhs = np.zeros(grid.shape)
        for j in range(dim):
            rhs += u.data[j] * dv[j, i] + v.data[j] * du[j, i]
        rhs = _scalar_inverse(grid, _scalar_forward(grid, rhs) * mask)
        worst_num = max(worst_num, float(np.max(np.abs(lhs - rhs))))
        worst_den = max(worst_den, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    return worst_num / worst_den if worst_den > 0 else 0.0


def recover_pressure(u, v):
    """Diagnostic pressure from -Laplace(p + sum u_i v_i) = div(u.grad(v) - u.grad(v)^T).

    Inputs must be divergence-free.  Returns p as a zero-mean physical
    scalar array.  A non-decaying source (nonzero mean right side) is a
    contract violation and raises.
    """
    grid = u.grid
    dim = grid.dim
    k = grid.derivative_wavenumbers
    for name, f in (("u", u), ("v", v)):
        if divergence_defect(f) > 1e-6:
            raise ValueError("%s is not divergence-free; project it first" % name)
    up = to_physical(u)
    vp = to_physical(v)
    dv = _jacobian_physical(grid, to_spectral(vp).data)
    adv = np.zeros((dim,) + grid.shape)      # u.grad(v)
    advT = np.zeros((dim,) + grid.shape)     # (u.grad(v)^T)_i = sum_j u_j d_i v_j
    for i in range(dim):
        for j in range(dim):
            adv[i] += up.data[j] * dv[i, j]
            advT[i] += up.data[j] * dv[j, i]
    wh = real_forward(adv - advT, range(1, dim + 1))
    div_h = np.sum(1j * k * wh, axis=0)
    zero = (0,) * dim
    scale = np.max(np.abs(div_h)) + np.max(np.abs(wh))
    if abs(div_h[zero]) > 1e-10 * (scale + 1e-300) * grid.points_per_axis ** dim:
        raise ValueError("source term has a nonzero mean; pressure undefined")
    qh = div_h * grid.inverse_k_squared   # q = p + sum u_i v_i solves -Lap q = div w
    qh[zero] = 0.0
    s = np.sum(up.data * vp.data, axis=0)
    p = _scalar_inverse(grid, qh) - s
    return p - np.mean(p)
