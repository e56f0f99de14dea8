"""Incompressible vector calculus on spectral grids.

Leray projection onto divergence-free fields, the filtered-advection
nonlinear term u.grad(v) + v.grad(u)^T and the symmetrization identity
behind pressure elimination.  The module also owns the process's one worker
thread.  Its two users, the nonlinear term (for its forward pair and its
lanes) and map_on_worker (for each pair of items), take it through _claim,
which never waits: a caller that cannot claim it runs alone on its thread.

Index convention used throughout: (v.grad(u)^T)_i = sum_j v_j d_i u_j,
while (u.grad(v))_i = sum_j u_j d_j v_i.
"""

import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .spectral import (
    SPECTRAL, VectorField, divergence, half_buffer, half_of, inverse_buffer,
    real_forward, real_inverse, to_spectral, _drop_aliased,
)

# ch_nonlinear_term claims the worker for v's forward transform and its
# second lane only when a scalar transform has at least this many points;
# map_on_worker's pairs claim it at every size.  For the lanes alone, one RHS
# on a 2-core host, one thread -> two lanes, medians of interleaved calls
# (200 at 128^2, 60 at 256^2, 40 above) in two runs: 128^2 8.4 -> 8.1 and
# 8.1 -> 7.9 ms, 256^2 22.1 -> 22.1 and 29.4 -> 26.7 ms, 512^2 110 -> 97 and
# 132 -> 111 ms, 48^3 (alpha = 0) 125 -> 107 and 114 -> 95 ms.  Below 2^16
# points the hand-off saves under a millisecond per call, so small grids stay
# on one thread; the 128^2 alpha sweep uses map_on_worker's pairs instead.
THREADED_MIN_POINTS = 2 ** 16
# The one worker thread, and the lock its one user at a time holds.
_POOL = None
_BUSY = threading.Lock()


@dataclass
class ProjectedField:
    """A spectral VectorField that leray_project made divergence-free."""
    field: VectorField


def divergence_defect(field):
    """Normalized spectral divergence residual max|k.vhat| / max(|vhat||k|)."""
    fh = to_spectral(field)
    num = np.max(np.abs(divergence(fh)))
    k_norm = np.sqrt(sum(k * k for k in field.grid.derivative_wavenumbers))
    den = np.max(np.abs(fh.data) * k_norm)
    return float(num / den) if den > 0 else 0.0


def leray_project(v):
    """Per-mode projection vhat -> (I - k k^T/|k|^2) vhat, into a new array
    laid out as vhat.

    The zero mode is forced to zero (mean-free velocity convention), which
    also removes the 0/0 in the projector there.
    """
    vh = to_spectral(v).data
    grid = v.grid
    k = grid.derivative_wavenumbers
    # one component at a time: no (dim, N^n) temporaries
    kdotv = k[0] * vh[0]
    for i in range(1, len(vh)):
        kdotv += k[i] * vh[i]
    kdotv *= grid.inverse_k_squared
    data = np.empty_like(vh)
    for i in range(len(vh)):
        np.multiply(k[i], kdotv, out=data[i])
        np.subtract(vh[i], data[i], out=data[i])
    data[(slice(None),) + (0,) * (vh.ndim - 1)] = 0.0
    return ProjectedField(VectorField(grid, data, SPECTRAL))


def _jacobian_physical(grid, fh_data):
    """All partial derivatives d_j f_i in physical space, shape (dim, dim, ...)."""
    dim = grid.dim
    k = grid.derivative_wavenumbers
    out = np.empty((dim, dim) + grid.shape)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = real_inverse(1j * k[j] * fh_data[i], range(dim))
    return out


def _lanes(dim, count):
    """The derivative terms of N(u, v) in rounds of `count` lanes.

    Term (a, b, from_v) adds u_b d_b v_a into component a when from_v, else
    v_a d_b u_a into component b.  One lane is one round of every term in
    the order of the double loop over (a, b).  Two lanes cut each
    component's terms, in that order, into dim - 1 chunks, and every pair of
    components meets in one round, each taking its next chunk there: 0 | 1
    in 2D; 0 | 1, 0 | 2 and 1 | 2 in 3D, 9 terms per lane.  Each component
    adds its terms in loop order, so its sum is the same floating-point sum
    whichever lane forms it.
    """
    loop = [(a, b, from_v) for a in range(dim) for b in range(dim)
            for from_v in (True, False)]
    if count == 1:
        return [(loop,)]
    size = 2 * dim // (dim - 1)
    own = [[t for t in loop if (t[0] if t[2] else t[1]) == c] for c in range(dim)]
    chunks = [iter([terms[i:i + size] for i in range(0, 2 * dim, size)])
              for terms in own]
    return [(next(chunks[p]), next(chunks[q]))
            for p, q in itertools.combinations(range(dim), 2)]


def _add_terms(job):
    """Add a lane's derivative terms into its components of `out`.

    `job` is [uh, vh, u, v, ik, terms, out, spectrum, derivative], with uh
    and vh the spectra of u and v, ik the derivative multipliers, one
    broadcastable line per axis, and spectrum a transform-order buffer that
    stays 0 past the modes the inverse reads.  It is emptied on entry: once
    this returns, a worker thread running it holds none of the arrays.
    """
    uh, vh, u, v, ik, terms, out, spectrum, derivative = job
    job.clear()
    axes = range(out.ndim - 1)
    half = half_of(spectrum, axes)
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
    global _POOL, _BUSY
    _POOL, _BUSY = None, threading.Lock()


def _start_worker():
    """The one-thread pool, started on first use; a forked child, which
    inherits the pool but not its thread, starts its own.  Called by _claim
    with _BUSY held."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max_workers=1,
                                   thread_name_prefix="fchsim-lane")
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_forget_pool)
    return _POOL


@contextmanager
def _claim(points=None):
    """The worker, held until the block ends, or None below
    THREADED_MIN_POINTS points (points=None: any size), on one CPU or while
    another caller holds it.  It never waits, so a task on the worker that
    claims it gets None and cannot wait on itself."""
    if ((points is not None and points < THREADED_MIN_POINTS)
            or _cpu_count() < 2 or not _BUSY.acquire(blocking=False)):
        yield None
        return
    try:
        yield _start_worker()
    finally:
        _BUSY.release()


def _on_both(worker, first, second):
    """(first(), second()): second on a claimed worker while first runs on
    this thread, or both here, in order, when worker is None.  An error of
    first is raised once second has ended."""
    if worker is None:
        return first(), second()
    pending = worker.submit(second)
    try:
        result = first()
    finally:
        pending.exception()         # waits for second, raises nothing
    return result, pending.result()


def _outcome(fn, item):
    """(True, fn(item)), or (False, the exception it raised)."""
    try:
        return True, fn(item)
    except BaseException as exc:     # raised again by map_on_worker, in order
        return False, exc


def map_on_worker(fn, items):
    """Yield fn(item) for every item, in item order.

    The items run in pairs, with one claim of the worker per pair: the
    second of a pair runs on the worker when the claim gets it, so each
    result is the one a plain loop gives, bit for bit.  The first failure in
    item order is raised where its result would be yielded, and no item
    starts after it.  An odd last item runs alone on the calling thread,
    free to claim the worker for its own lanes.  On one CPU this is a plain
    loop.
    """
    items = list(items)
    paired = len(items) - len(items) % 2 if _cpu_count() > 1 else 0
    for k in range(0, paired, 2):
        with _claim() as worker:
            result, (ok, second) = _on_both(
                worker, partial(fn, items[k]), partial(_outcome, fn, items[k + 1]))
        yield result
        if not ok:
            raise second
        yield second
    for item in items[paired:]:
        yield fn(item)


def ch_nonlinear_term(u, v, dealias=True):
    """N(u, v) = u.grad(v) + v.grad(u)^T, un-projected, spectral output.

    Products are formed pointwise in physical space, derivatives taken
    spectrally, and the result dealiased (2/3 rule) unless disabled; the
    spectrum is held in transform order, the layout the stepper reads.  The
    Jacobians are streamed: each derivative d_b v_a and d_b u_a goes through
    a reused spectral and physical buffer and is folded into the product at
    once, as u_b d_b v_a into component a and v_a d_b u_a into component b.
    On grids of at least THREADED_MIN_POINTS points it claims the worker
    once and, holding it, runs the forward transforms of u and v, then each
    round of two lanes of terms by output component (_lanes), on both
    threads; otherwise every term runs as one lane on this thread.  Each
    lane's buffers serve all its rounds.  The bits are the same.
    """
    if u.grid != v.grid:
        raise ValueError("u and v live on different grids")
    if u.is_spectral or v.is_spectral:
        raise ValueError("ch_nonlinear_term expects physical inputs")
    grid = u.grid
    dim = grid.dim
    axes = tuple(range(1, dim + 1))
    # The spectra are held in transform order.  Every buffer is allocated on
    # this thread: allocated on the worker they came from its own malloc
    # arena, 112.5 -> 114.3 MB peak RSS at 48^3.
    uh, vh = half_buffer(u.data.shape, axes), half_buffer(v.data.shape, axes)
    with _claim(grid.points_per_axis ** dim) as worker:
        _on_both(worker, partial(real_forward, u.data, axes, uh),
                 partial(real_forward, v.data, axes, vh))
        ik = [1j * k for k in grid.derivative_wavenumbers]
        out = np.zeros((dim,) + grid.shape)
        # a lane writes only its own components, through its own buffers;
        # full-size: the benchmark pins the FFT elements of these inverses
        buffers = [(inverse_buffer(grid.shape, range(dim)), np.empty(grid.shape))
                   for _ in range(1 if worker is None else 2)]
        for terms in _lanes(dim, len(buffers)):
            lanes = [partial(_add_terms, [uh, vh, u.data, v.data, ik, t, out, *b])
                     for t, b in zip(terms, buffers)]
            if worker is None:
                lanes[0]()
            else:
                _on_both(worker, *lanes)
        del uh, vh, ik, buffers, lanes
    nh = real_forward(out, axes, dealias=dealias, out=half_buffer(out.shape, axes))
    return VectorField(grid, nh, SPECTRAL)


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
    return VectorField(grid, real_forward(out, axes, dealias=dealias), SPECTRAL)


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
    axes, n = range(dim), grid.points_per_axis
    s = np.sum(u.data * v.data, axis=0)
    sh = real_forward(s, axes)
    k = grid.derivative_wavenumbers
    du = _jacobian_physical(grid, to_spectral(u).data)
    dv = _jacobian_physical(grid, to_spectral(v).data)
    worst_num = 0.0
    worst_den = 0.0
    for i in range(dim):
        lhs = real_inverse(_drop_aliased(1j * k[i] * sh, axes, n), axes)
        rhs = np.zeros(grid.shape)
        for j in range(dim):
            rhs += u.data[j] * dv[j, i] + v.data[j] * du[j, i]
        rhs = real_inverse(_drop_aliased(real_forward(rhs, axes), axes, n), axes)
        worst_num = max(worst_num, float(np.max(np.abs(lhs - rhs))))
        worst_den = max(worst_den, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    return worst_num / worst_den if worst_den > 0 else 0.0
