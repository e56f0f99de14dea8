import ast
import os
import re
import signal
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fchsim import fields
from fchsim.helmholtz import apply_filter
from fchsim.spectral import (
    SpectralGrid, VectorField, curl, dealias, to_physical, to_spectral,
)
from fchsim.fields import (
    ch_nonlinear_term, divergence_defect, leray_project, map_on_worker,
    _jacobian_physical,
)
from fchsim.integrate import band_random
from fchsim.diagnostics import l2_inner, l2_norm_sq, gradient_norm_sq, mode_power
from conftest import dealias_mask, dense_lattice, random_field, random_divfree, rfft_half
from oracles import gradient, hermitian_spectrum, symmetrized_identity_check


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
        * np.pi * grid32.points_per_axis / grid32.box_length
    assert divergence_defect(out.field) <= 1e-10


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


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_half_projector_is_leray_on_the_half(dim, n):
    # leray_project on the rfftn layout, in the spectrum's own (C or
    # transform-order) layout, is bit for bit the half of the same formula
    # on the mirrored full spectrum and the dense full lattice
    grid = SpectralGrid(dim, n, 2 * np.pi)
    axes = tuple(range(1, dim + 1))
    k = dense_lattice(grid)[2]
    k_squared = np.sum(k ** 2, axis=0)
    inverse_k_squared = 1.0 / np.where(k_squared == 0, 1.0, k_squared)
    v = to_spectral(random_field(grid, seed=dim + n))
    held = fields.ch_nonlinear_term(to_physical(v), to_physical(v)).data
    for spectrum in (v.data, held):
        full = hermitian_spectrum(spectrum, axes)
        kdotv = k[0] * full[0]
        for i in range(1, dim):
            kdotv += k[i] * full[i]
        kdotv *= inverse_k_squared
        expected = full - k * kdotv
        expected[(slice(None),) + (0,) * dim] = 0.0
        got = leray_project(VectorField(grid, spectrum, "spectral")).field.data
        assert got.strides == np.empty_like(spectrum).strides
        assert np.ascontiguousarray(got).tobytes() == rfft_half(expected).tobytes()


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
    # the product's forward transforms and its lanes: one of each pair on
    # the worker from THREADED_MIN_POINTS on, in one round per pair of
    # components (one in 2D, three in 3D), all inline and every term in one
    # lane below it or on one CPU, with the same bits
    u, v = _product_pair(dim, n, alpha)
    rounds = dim * (dim - 1) // 2
    on_main = {"real_forward": [], "_add_terms": []}

    def spy(name):
        original = getattr(fields, name)

        def spied(*args, **kwargs):
            on_main[name].append(threading.current_thread() is threading.main_thread())
            return original(*args, **kwargs)
        return spied

    def product():
        for seen in on_main.values():
            seen.clear()
        return ch_nonlinear_term(u, v).data

    for name in on_main:
        monkeypatch.setattr(fields, name, spy(name))
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)  # even on one CPU
    threaded = product()
    # u's and v's transforms on both threads, the output's on this one
    assert {name: sorted(seen) for name, seen in on_main.items()} == {
        "real_forward": [False, True, True],
        "_add_terms": [False] * rounds + [True] * rounds}
    threshold = fields.THREADED_MIN_POINTS
    monkeypatch.setattr(fields, "THREADED_MIN_POINTS", n ** dim + 1)
    assert np.array_equal(threaded, product())
    assert on_main == {"real_forward": [True] * 3, "_add_terms": [True]}
    monkeypatch.setattr(fields, "THREADED_MIN_POINTS", threshold)
    monkeypatch.setattr(fields, "_cpu_count", lambda: 1)
    assert np.array_equal(threaded, product())
    assert on_main == {"real_forward": [True] * 3, "_add_terms": [True]}


@pytest.mark.parametrize("dim, count, sizes", [
    (2, 1, [(8,)]), (2, 2, [(4, 4)]), (3, 1, [(18,)]),
    (3, 2, [(3, 3)] * 3)])
def test_lanes_keep_each_component_in_loop_order(dim, count, sizes):
    # every term once; a round's lanes write disjoint components; each
    # component meets its terms in the order of the double loop over (a, b),
    # so its floating-point sum is the same whatever the split
    loop = [(a, b, from_v) for a in range(dim) for b in range(dim)
            for from_v in (True, False)]

    def target(term):
        return term[0] if term[2] else term[1]

    rounds = fields._lanes(dim, count)
    assert [tuple(map(len, lanes)) for lanes in rounds] == sizes
    for lanes in rounds:
        owned = [{target(t) for t in terms} for terms in lanes]
        assert sum(map(len, owned)) == len(set().union(*owned))
    flat = [t for lanes in rounds for terms in lanes for t in terms]
    assert sorted(flat) == sorted(loop)
    for c in range(dim):
        assert [t for t in flat if target(t) == c] == \
            [t for t in loop if target(t) == c]


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
    assert not fields._BUSY.locked()


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
    assert not fields._BUSY.locked()


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


def _lane_spy(monkeypatch):
    """Record (on the worker, number of terms) for every lane run."""
    lanes = []
    add_terms = fields._add_terms

    def spy(job):
        lanes.append((_on_worker(), len(job[5])))
        add_terms(job)

    monkeypatch.setattr(fields, "_add_terms", spy)
    return lanes


def test_lanes_and_nested_maps_run_inline_during_a_map(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.1)
    lanes = _lane_spy(monkeypatch)

    def probe(item):
        ch_nonlinear_term(u, v)
        return list(map_on_worker(lambda _: _on_worker(), range(3))), _on_worker()

    ran_on = []
    for nested, on_worker in map_on_worker(probe, range(2)):
        assert nested == [on_worker] * 3       # a plain loop on this thread
        ran_on.append(on_worker)
    assert ran_on == [False, True]
    # each item ran its product as one 8-term lane on its own thread
    assert sorted(lanes) == [(False, 8), (True, 8)]
    assert not fields._BUSY.locked()
    lanes.clear()
    ch_nonlinear_term(u, v)
    assert sorted(lanes) == [(False, 4), (True, 4)]   # the worker again


def test_odd_last_item_of_a_map_runs_its_lanes_on_both_threads(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.1)
    lanes = _lane_spy(monkeypatch)

    def item(_):
        ch_nonlinear_term(u, v)
        return _on_worker()

    assert list(map_on_worker(item, range(3))) == [False, True, False]
    assert sorted(lanes[:2]) == [(False, 8), (True, 8)]
    # the last item starts once the pair has ended
    assert sorted(lanes[2:]) == [(False, 4), (True, 4)]


def _claim_spy(monkeypatch):
    """Record the points of every claim of the worker."""
    claims = []
    claim = fields._claim

    def spy(points=None):
        claims.append(points)
        return claim(points)

    monkeypatch.setattr(fields, "_claim", spy)
    return claims


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "map-pair"])
def test_inline_product_runs_one_lane_of_all_terms(monkeypatch, cpus):
    # a product that does not get the worker, on one CPU or as an item of a
    # map pair, claims it once and runs its 8 terms as one lane on its own
    # thread, with the bits of the two-lane product
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.1)
    expected = ch_nonlinear_term(u, v).data
    monkeypatch.setattr(fields, "_cpu_count", lambda: cpus)
    lanes, claims = _lane_spy(monkeypatch), _claim_spy(monkeypatch)
    products = list(map_on_worker(lambda _: ch_nonlinear_term(u, v).data,
                                  range(2)))
    assert all(np.array_equal(product, expected) for product in products)
    assert sorted(lanes) == [(False, 8), (cpus == 2, 8)]
    assert claims.count(256 ** 2) == 2          # one claim per product
    assert claims.count(None) == cpus - 1       # and one per map pair
    assert len(claims) == cpus + 1


def test_on_both_inside_the_worker_runs_inline(monkeypatch):
    # a task on the worker that claims the worker again must not wait on
    # it: its claim gets None and its pair runs inline
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    results = []

    def on_both(second):
        with fields._claim() as worker:
            return fields._on_both(worker, _on_worker, second)

    caller = threading.Thread(
        target=lambda: results.append(on_both(partial(on_both, _on_worker))),
        daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert results == [(False, (True, True))]
    assert not fields._BUSY.locked()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_during_a_map_runs_lanes_on_its_own_worker(monkeypatch):
    monkeypatch.setattr(fields, "_cpu_count", lambda: 2)
    u, v = _product_pair(2, 256, 0.1)
    expected = ch_nonlinear_term(u, v).data
    lanes = _lane_spy(monkeypatch)
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
                lanes.clear()
                same = np.array_equal(ch_nonlinear_term(u, v).data, expected)
                status = 0 if same and sorted(lanes) == [(False, 4), (True, 4)] else 1
            finally:
                os._exit(status)
        return os.waitpid(pid, 0)[1]

    statuses = list(map_on_worker(item, range(2)))
    assert set(statuses) == {0, None}      # the child exited 0


_THREAD_START = re.compile(r"\b(?:ThreadPoolExecutor|Thread)\s*\(")


def _busy_acquirers(source):
    """The innermost function around each acquisition of _BUSY in
    `source`, a call of its acquire or a with block on it."""
    tree = ast.parse(source)

    def busy(node):
        return (isinstance(node, ast.Name) and node.id == "_BUSY"
                or isinstance(node, ast.Attribute) and node.attr == "_BUSY")

    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "acquire"
             and busy(node.value)]
    lines += [item.context_expr.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.With, ast.AsyncWith))
              for item in node.items if busy(item.context_expr)]
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [getattr(max((f for f in functions if f.lineno <= line <= f.end_lineno),
                        key=lambda f: f.lineno, default=tree), "name", "<module>")
            for line in lines]


def test_threads_start_in_fields_only():
    # One worker thread: only fields.py constructs a pool or a thread, and
    # only its claim helper takes the worker's lock.
    package = Path(fields.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    starts = {name: len(_THREAD_START.findall(text))
              for name, text in sources.items()}
    assert starts["fields.py"] >= 1             # the scan sees the pool
    assert {name for name, hits in starts.items() if hits} == {"fields.py"}
    claims = {(name, function) for name, text in sources.items()
              for function in _busy_acquirers(text)}
    assert claims == {("fields.py", "_claim")}


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


@pytest.mark.parametrize("dim, n", [(2, 48), (3, 24)])
def test_pairing_is_alias_free_when_three_divides_n(dim, n):
    # data filling every kept mode: the 2/3 rule must keep 3|m| < N, or two
    # kept modes sum onto the kept mode -N/3 and <P N(u, v), u> != 0
    grid = SpectralGrid(dim, n, 2 * np.pi)
    v = band_random(grid, seed=41, band=(0.0, float(n)))
    power = mode_power(to_spectral(v).data)
    kept = rfft_half(dealias_mask(grid)) & (grid.k_squared > 0)
    assert power[kept].min() > 1e-8 * power.max()
    u = to_physical(apply_filter(v, 0.1))
    pn = leray_project(ch_nonlinear_term(u, v)).field
    ip = l2_inner(pn, to_spectral(u))
    assert abs(ip) <= 1e-14 * np.sqrt(l2_norm_sq(u) * l2_norm_sq(pn))


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
    u = VectorField(g, np.stack([np.cos(x[1]), np.zeros(g.shape)]), "physical")
    assert symmetrized_identity_check(u, u) <= 1e-11


def test_symmetrized_identity_random(grid64):
    u = random_divfree(grid64, seed=31)
    v = random_divfree(grid64, seed=32)
    assert symmetrized_identity_check(u, v) <= 1e-9


def test_symmetrized_identity_zero(grid32):
    z = VectorField.zeros(grid32)
    assert symmetrized_identity_check(z, z) == 0.0
