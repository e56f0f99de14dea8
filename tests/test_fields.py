import os
import re
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fchsim import fields
from fchsim.helmholtz import apply_filter
from fchsim.spectral import (
    SpectralGrid, VectorField, curl, dealias, gradient, to_physical,
    to_spectral,
)
from fchsim.fields import (
    ch_nonlinear_term, divergence_defect, leray_project, map_on_worker,
    recover_pressure, symmetrized_identity_check, _jacobian_physical,
)
from fchsim.integrate import band_random
from fchsim.diagnostics import l2_inner, l2_norm_sq, gradient_norm_sq
from conftest import random_field, random_divfree


def test_leray_divfree_fixed_point(grid64):
    v = random_divfree(grid64, seed=1)
    again = leray_project(v)
    diff = np.max(np.abs(to_physical(again.field).data - v.data))
    assert diff <= 1e-12 * np.max(np.abs(v.data))


def test_leray_kills_gradients(grid64):
    phi = random_field(grid64, seed=2, band=(1, 20)).data[0]
    g = gradient(phi, grid64)
    out = leray_project(g)
    assert np.max(np.abs(out.field.data)) <= 1e-12 * np.max(np.abs(g.data))


def test_leray_output_divergence(grid32):
    v = random_field(grid32, seed=3)
    out = leray_project(v)
    from fchsim.spectral import divergence
    d = divergence(out.field)
    assert np.max(np.abs(d)) <= 1e-12 * np.max(np.abs(out.field.data)) \
        * np.max(np.abs(grid32.wavenumbers))
    assert divergence_defect(out.field) <= 1e-10
    assert out.divergence_free


def test_leray_idempotent(grid32):
    v = random_field(grid32, seed=4)
    once = leray_project(v).field
    twice = leray_project(once).field
    assert np.max(np.abs(once.data - twice.data)) <= 1e-12 * np.max(np.abs(once.data))


def test_leray_self_adjoint(grid32):
    f = random_field(grid32, seed=5)
    g = random_field(grid32, seed=6)
    pf = to_physical(leray_project(f).field)
    pg = to_physical(leray_project(g).field)
    a = l2_inner(pf, g)
    b = l2_inner(f, pg)
    assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1e-30)


def test_nonlinear_term_zero(grid32):
    z = VectorField.zeros(grid32)
    out = ch_nonlinear_term(z, z)
    assert np.max(np.abs(out.data)) == 0.0


def test_nonlinear_term_contracts(grid32):
    u = random_field(grid32, seed=7)
    g2 = SpectralGrid(2, 16, 2 * np.pi)
    with pytest.raises(ValueError):
        ch_nonlinear_term(u, random_field(g2, seed=8))
    with pytest.raises(ValueError):
        ch_nonlinear_term(to_spectral(u), u)


def _jacobian_product(u, v, use_dealias):
    """u.grad(v) + v.grad(u)^T from both full Jacobians, summed per point."""
    grid = u.grid
    dv = _jacobian_physical(grid, to_spectral(v).data)   # dv[i, j] = d_j v_i
    du = _jacobian_physical(grid, to_spectral(u).data)
    out = np.zeros((grid.dim,) + grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            out[i] += u.data[j] * dv[i, j] + v.data[j] * du[j, i]
    nh = to_spectral(VectorField(grid, out, "physical"))
    return dealias(nh) if use_dealias else nh


@pytest.mark.parametrize("use_dealias", [True, False], ids=["dealiased", "aliased"])
@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_streamed_product_matches_jacobian_formula(dim, n, use_dealias):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    u = band_random(grid, seed=31, band=(1.0, 6.0))
    v = band_random(grid, seed=32, band=(2.0, 7.0), amplitude=0.7)
    expected = _jacobian_product(u, v, use_dealias).data
    got = ch_nonlinear_term(u, v, dealias=use_dealias).data
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def _product_pair(dim, n, alpha):
    grid = SpectralGrid(dim, n, 2 * np.pi)
    v = band_random(grid, seed=33, band=(2.0, 6.0))
    return (to_physical(apply_filter(v, alpha)) if alpha else v), v


@pytest.mark.parametrize("dim, n, alpha", [(2, 256, 0.1), (3, 48, 0.0)])
def test_two_lanes_match_one_thread_bitwise(monkeypatch, dim, n, alpha):
    u, v = _product_pair(dim, n, alpha)
    on_main = []
    add_terms = fields._add_terms

    def spy(job):
        on_main.append(threading.current_thread() is threading.main_thread())
        add_terms(job)

    monkeypatch.setattr(fields, "_add_terms", spy)
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)  # even on one CPU
    threaded = ch_nonlinear_term(u, v).data
    assert sorted(on_main) == [False, True]     # one lane ran on the worker
    monkeypatch.setattr(fields, "THREADED_MIN_POINTS", n ** dim + 1)
    on_main.clear()
    serial = ch_nonlinear_term(u, v).data
    assert on_main == [True]
    assert np.array_equal(threaded, serial)


def _lane_workers():
    return {t for t in threading.enumerate() if t.name.startswith("fchsim-lane")}


def test_concurrent_callers_share_one_worker(monkeypatch):
    # more callers than cores, a short switch interval and a fresh pool that
    # all callers ask for at once: every product must still equal the
    # one-thread product, and only one worker may start
    u, v = _product_pair(2, 256, 0.1)
    with monkeypatch.context() as one_thread:
        one_thread.setattr(fields, "THREADED_MIN_POINTS", 2 ** 32)
        expected = ch_nonlinear_term(u, v).data
    barrier = threading.Barrier(4, timeout=60)

    def two_cpus_once_all_callers_arrive():
        barrier.wait()
        return 2

    monkeypatch.setattr(fields, "_cpu_count", two_cpus_once_all_callers_arrive)
    monkeypatch.setattr(fields, "_POOL", None)
    results = []
    workers_before = _lane_workers()

    def call():
        for _ in range(2):
            results.append(np.array_equal(ch_nonlinear_term(u, v).data, expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        started = _lane_workers() - workers_before
    finally:
        sys.setswitchinterval(interval)
        if fields._POOL is not None:
            fields._POOL.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert results == [True] * 8
    assert len(started) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker(monkeypatch):
    # a child inherits the pool object but not its thread
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.0)
    expected = ch_nonlinear_term(u, v).data
    pid = os.fork()
    if pid == 0:
        signal.alarm(60)
        status = 0 if np.array_equal(ch_nonlinear_term(u, v).data, expected) else 1
        os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0


def _on_worker():
    return threading.current_thread().name.startswith("fchsim-lane")


def test_map_yields_in_item_order_from_both_threads(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)   # even on one CPU
    ran_on = {}

    def square(item):
        time.sleep(0.02 * (item % 3))
        ran_on[item] = _on_worker()
        return item * item

    assert list(map_on_worker(square, range(8))) == [i * i for i in range(8)]
    assert set(ran_on.values()) == {False, True}
    assert fields._MAP_BUSY is False


@pytest.mark.parametrize("cpus", [2, 1])
def test_map_raises_the_earlier_of_two_failures(monkeypatch, cpus):
    # item 1 fails first in time, item 0 first in item order
    monkeypatch.setattr(fields, "_cpu_count", lambda: cpus)

    def fail(item):
        if item == 0:
            time.sleep(0.2)
        raise ValueError(item)

    with pytest.raises(ValueError) as info:
        list(map_on_worker(fail, [0, 1]))
    assert info.value.args == (0,)
    assert fields._MAP_BUSY is False


def test_map_starts_no_item_after_a_failure(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    started = []

    def work(item):
        started.append(item)
        if item == 1:
            raise ValueError(item)
        time.sleep(0.2)
        return item

    results = []
    with pytest.raises(ValueError):
        for result in map_on_worker(work, range(8)):
            results.append(result)
    assert results == [0]          # the items before the failure, in order
    assert sorted(started) == [0, 1]


def test_lanes_and_nested_maps_run_inline_during_a_map(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    grid = SpectralGrid(2, 256, 2 * np.pi)
    assert fields._lane_pool(grid) is not None

    def probe(item):
        nested = list(map_on_worker(lambda _: _on_worker(), range(3)))
        return fields._lane_pool(grid), nested, _on_worker()

    for pool, nested, on_worker in map_on_worker(probe, range(2)):
        assert pool is None
        assert nested == [on_worker] * 3       # a plain loop on this thread
    assert fields._lane_pool(grid) is not None
    assert fields._MAP_BUSY is False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_during_a_map_runs_lanes_on_its_own_worker(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.1)
    expected = ch_nonlinear_term(u, v).data
    lanes_on_worker = []
    add_terms = fields._add_terms

    def spy(job):
        lanes_on_worker.append(_on_worker())
        add_terms(job)

    monkeypatch.setattr(fields, "_add_terms", spy)
    barrier = threading.Barrier(2, timeout=60)   # one item on each thread

    def item(_):
        barrier.wait()
        if _on_worker():
            return None
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.alarm(60)
                lanes_on_worker.clear()
                same = np.array_equal(ch_nonlinear_term(u, v).data, expected)
                status = 0 if same and sorted(lanes_on_worker) == [False, True] else 1
            finally:
                os._exit(status)
        return os.waitpid(pid, 0)[1]

    assert fields._lane_pool(u.grid) is not None
    statuses = list(map_on_worker(item, range(2)))
    assert set(statuses) == {0, None}      # the child exited 0


_THREAD_START = re.compile(r"\b(?:ThreadPoolExecutor|Thread)\s*\(")


def test_threads_start_in_fields_only():
    # One worker thread: only fields.py constructs a pool or a thread.
    package = Path(fields.__file__).parent
    starts = {path.name: len(_THREAD_START.findall(path.read_text()))
              for path in sorted(package.glob("*.py"))}
    assert starts["fields.py"] >= 1             # the scan sees the pool
    assert {name for name, hits in starts.items() if hits} == {"fields.py"}


@pytest.mark.parametrize("seed", range(10))
def test_nonlinear_orthogonality(grid64, seed):
    # <u.grad v + v.grad u^T, u> = 0 for divergence-free pairs
    u = random_divfree(grid64, seed=100 + seed)
    v = random_divfree(grid64, seed=200 + seed)
    n = ch_nonlinear_term(u, v)
    ip = l2_inner(n, to_spectral(u))
    h1 = np.sqrt(l2_norm_sq(v) + gradient_norm_sq(v))
    denom = np.sqrt(l2_norm_sq(u)) * h1 * np.sqrt(l2_norm_sq(u))
    assert abs(ip) / denom <= 1e-9


def test_projected_nonlinearity_energy_neutral(grid64):
    u = random_divfree(grid64, seed=11)
    v = random_divfree(grid64, seed=12)
    pn = leray_project(ch_nonlinear_term(u, v)).field
    ip = l2_inner(pn, to_spectral(u))
    scale = np.sqrt(l2_norm_sq(pn) * l2_norm_sq(u)) + 1e-300
    assert abs(ip) / scale <= 1e-10


def test_vorticity_identity_3d():
    # u.grad v + sum_j v_j grad u_j = -u x curl v + grad(v.u), pointwise;
    # band-limited inputs keep every product fully resolved
    g = SpectralGrid(3, 16, 2 * np.pi)
    u = random_divfree(g, seed=21, band=(1, 3))
    v = random_divfree(g, seed=22, band=(1, 3))
    lhs = to_physical(ch_nonlinear_term(u, v, dealias=False)).data
    w = curl(v)
    uxw = np.stack([
        u.data[1] * w.data[2] - u.data[2] * w.data[1],
        u.data[2] * w.data[0] - u.data[0] * w.data[2],
        u.data[0] * w.data[1] - u.data[1] * w.data[0],
    ])
    s = np.sum(u.data * v.data, axis=0)
    rhs = -uxw + gradient(s, g).data
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


def test_symmetrized_identity_single_mode():
    g = SpectralGrid(2, 32, 2 * np.pi)
    x = g.coordinate_mesh()
    u = VectorField.from_components(g, [np.cos(x[1]), np.zeros(g.shape)])
    assert symmetrized_identity_check(u, u) <= 1e-11


def test_symmetrized_identity_random(grid64):
    u = random_divfree(grid64, seed=31)
    v = random_divfree(grid64, seed=32)
    assert symmetrized_identity_check(u, v) <= 1e-9


def test_symmetrized_identity_zero(grid32):
    z = VectorField.zeros(grid32)
    assert symmetrized_identity_check(z, z) == 0.0


def test_pressure_zero(grid32):
    z = VectorField.zeros(grid32)
    p = recover_pressure(z, z)
    assert np.max(np.abs(p)) == 0.0


def test_pressure_single_mode_oracle():
    # u = a cos(2 x2) e1, v = b cos(3 x1) e2: the source reduces to two
    # oblique modes and p has the closed form below
    g = SpectralGrid(2, 64, 2 * np.pi)
    x = g.coordinate_mesh()
    a, b = 1.3, 0.7
    u = VectorField.from_components(g, [a * np.cos(2 * x[1]), np.zeros(g.shape)])
    v = VectorField.from_components(g, [np.zeros(g.shape), b * np.cos(3 * x[0])])
    p = recover_pressure(u, v)
    expected = -(3 * a * b / 13.0) * (np.cos(3 * x[0] + 2 * x[1])
                                      - np.cos(3 * x[0] - 2 * x[1]))
    expected -= np.mean(expected)
    assert np.max(np.abs(p - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_pressure_gradient_part(grid64):
    # (I - P)[u.grad v - u.grad v^T] = -grad(p + sum u_i v_i)
    u = random_divfree(grid64, seed=41)
    v = random_divfree(grid64, seed=42)
    p = recover_pressure(u, v)
    from fchsim.fields import _jacobian_physical
    vh = np.fft.fftn(v.data, axes=(1, 2))
    dv = _jacobian_physical(grid64, vh)
    w = np.zeros((2,) + grid64.shape)
    for i in range(2):
        for j in range(2):
            w[i] += u.data[j] * (dv[i, j] - dv[j, i])
    # compare mean-free parts: the projector convention zeroes the k=0 mode
    w -= np.mean(w, axis=(1, 2), keepdims=True)
    wf = VectorField(grid64, w, "physical")
    grad_part = wf.data - to_physical(leray_project(wf).field).data
    s = np.sum(u.data * v.data, axis=0)
    q = p + s
    expected = -gradient(q - np.mean(q), grid64).data
    scale = np.max(np.abs(expected)) + np.max(np.abs(wf.data))
    assert np.max(np.abs(grad_part - expected)) / scale <= 1e-9


def test_pressure_requires_divfree(grid32):
    bad = random_field(grid32, seed=51)
    good = random_divfree(grid32, seed=52)
    with pytest.raises(ValueError):
        recover_pressure(bad, good)
