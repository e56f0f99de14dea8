import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fchsim.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointDimensionError,
    CheckpointError,
    CheckpointMagicError,
    CheckpointSymmetryError,
    CheckpointTruncationError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from fchsim.integrate import SolverParams, band_random, prepare_initial_state, run
from fchsim.spectral import SpectralGrid
from oracles import hermitian_spectrum


def make_state(grid=None, seed=3):
    grid = grid or SpectralGrid(2, 32, 2.0 * np.pi)
    params = SolverParams(nu=0.05, beta=0.75, alpha=0.8, dt=5e-3, t_end=0.1)
    v0 = band_random(grid, seed=seed, band=(2.0, 6.0))
    return prepare_initial_state(v0, params), params


class TestRoundTrip:
    def test_bitwise_coefficients(self, tmp_path):
        state, params = make_state()
        path = str(tmp_path / "state.chk")
        save_checkpoint(state, params, path)
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.v.field.data, state.v.field.data)
        assert loaded.v.field.data.dtype == np.complex128
        assert loaded.t == state.t
        assert meta == {"nu": params.nu, "beta": params.beta,
                        "alpha": params.alpha}

    def test_grid_reconstructed(self, tmp_path):
        grid = SpectralGrid(2, 48, 17.5)
        state, params = make_state(grid)
        path = str(tmp_path / "state.chk")
        save_checkpoint(state, params, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.v.field.grid == grid

    def test_mid_run_time_preserved(self, tmp_path):
        state, params = make_state()
        summary = run(state.v, params)
        path = str(tmp_path / "state.chk")
        save_checkpoint(summary.state, params, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.t == summary.state.t

    def test_three_dimensional_state(self, tmp_path):
        grid = SpectralGrid(3, 12, 2.0 * np.pi)
        params = SolverParams(nu=0.05, beta=0.75, alpha=0.5, dt=5e-3, t_end=0.1)
        v0 = band_random(grid, seed=5, band=(1.0, 4.0))
        state = prepare_initial_state(v0, params)
        path = str(tmp_path / "state.chk")
        save_checkpoint(state, params, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.v.field.data, state.v.field.data)

    def test_coefficients_are_read_without_a_copy_of_the_file(self, tmp_path):
        # the coefficients go straight from the file into the state's array,
        # so loading holds one coefficient block at a time, never the file's
        # bytes beside it
        grid = SpectralGrid(3, 32, 2.0 * np.pi)
        state, params = make_state(grid)
        path = str(tmp_path / "state.chk")
        save_checkpoint(state, params, path)
        block = state.v.field.data.nbytes
        tracemalloc.start()
        try:
            SpectralGrid(3, 32, 2.0 * np.pi)
            lattice = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.v.field.data, state.v.field.data)
        assert loaded.v.field.data.flags.writeable
        assert peak < lattice + 1.5 * block

    def test_coefficients_are_written_without_a_copy_of_the_block(self, tmp_path):
        # a C-ordered state's coefficients go from its array to the file
        # through the buffer protocol, with no block-sized bytes copy
        grid = SpectralGrid(3, 32, 2.0 * np.pi)
        state, params = make_state(grid)
        path = str(tmp_path / "state.chk")
        block = state.v.field.data.nbytes
        tracemalloc.start()
        try:
            save_checkpoint(state, params, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * block

    def test_file_is_the_header_and_the_little_endian_block(self, tmp_path):
        state, params = make_state()
        path = tmp_path / "state.chk"
        save_checkpoint(state, params, str(path))
        grid, data = state.v.field.grid, state.v.field.data
        header = struct.pack(
            "<4sBII5d", MAGIC, VERSION, grid.dim, grid.points_per_axis,
            grid.box_length, params.nu, params.beta, params.alpha, state.t)
        # the full spectrum: the state's half and its mirror images
        full = hermitian_spectrum(data, (1, 2))
        assert path.read_bytes() == header + full.astype("<c16").tobytes()


class TestTypedErrors:
    def corrupt(self, tmp_path, mutate):
        state, params = make_state()
        path = tmp_path / "state.chk"
        save_checkpoint(state, params, str(path))
        blob = bytearray(path.read_bytes())
        blob = mutate(blob)
        path.write_bytes(bytes(blob))
        return str(path)

    def test_magic_mismatch(self, tmp_path):
        def mutate(blob):
            blob[:4] = b"XXXX"
            return blob
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(self.corrupt(tmp_path, mutate))

    def test_version_mismatch(self, tmp_path):
        def mutate(blob):
            blob[4] = 99
            return blob
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(self.corrupt(tmp_path, mutate))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(CheckpointTruncationError):
            load_checkpoint(self.corrupt(tmp_path, lambda blob: blob[:10]))

    def test_truncated_body(self, tmp_path):
        with pytest.raises(CheckpointTruncationError):
            load_checkpoint(self.corrupt(tmp_path, lambda blob: blob[:-16]))

    def test_trailing_garbage(self, tmp_path):
        with pytest.raises(CheckpointTruncationError):
            load_checkpoint(self.corrupt(tmp_path, lambda blob: blob + b"\0" * 8))

    def test_bad_dimension(self, tmp_path):
        def mutate(blob):
            blob[5] = 7  # dim byte of the little-endian u32
            return blob
        with pytest.raises(CheckpointDimensionError):
            load_checkpoint(self.corrupt(tmp_path, mutate))

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 12)])
    def test_modes_past_the_half_that_are_not_its_mirror(self, tmp_path, dim, n):
        # the state keeps only the modes 0 <= m <= N/2 of the last axis, so
        # a stored mode past N/2 that is not conj F(-k) of its mirror in the
        # half would be dropped unseen: the reader refuses the file
        grid = SpectralGrid(dim, n, 2.0 * np.pi)
        params = SolverParams(nu=0.05, beta=0.75, alpha=0.5, dt=5e-3, t_end=0.1)
        state = prepare_initial_state(band_random(grid, seed=5, band=(1.0, 4.0)), params)
        path = tmp_path / "state.chk"
        save_checkpoint(state, params, str(path))
        blob = bytearray(path.read_bytes())
        mode = np.ravel_multi_index((dim - 1,) + (1,) * (dim - 1) + (n - 2,),
                                    (dim,) + grid.shape)
        offset = 53 + 16 * mode
        stored = struct.unpack_from("<d", blob, offset)[0]
        struct.pack_into("<d", blob, offset, stored + 1e-3)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointSymmetryError, match="mirror"):
            load_checkpoint(str(path))

    def test_full_spectrum_projected_mode_by_mode_loads(self, tmp_path):
        # a file whose full spectrum was formed mode by mode, not mirrored
        # (so its zeros past N/2 may carry either sign), loads as its half
        grid = SpectralGrid(2, 32, 2.0 * np.pi)
        state, params = make_state(grid)
        half = state.v.field.data
        full = np.ascontiguousarray(hermitian_spectrum(half, (1, 2)))
        parts = full[..., 17:].view(np.float64)
        zeros = parts == 0.0
        assert zeros.any()
        parts[zeros] = -parts[zeros]        # each zero's sign flipped
        assert full.tobytes() != hermitian_spectrum(half, (1, 2)).tobytes()
        path = tmp_path / "state.chk"
        header = struct.pack("<4sBII5d", MAGIC, VERSION, 2, 32, grid.box_length,
                             params.nu, params.beta, params.alpha, 0.0)
        path.write_bytes(header + full.astype("<c16").tobytes())
        loaded, _ = load_checkpoint(str(path))
        assert loaded.v.field.data.tobytes() == half.tobytes()

    def test_errors_share_a_base(self):
        for exc in (CheckpointMagicError, CheckpointVersionError,
                    CheckpointTruncationError, CheckpointDimensionError,
                    CheckpointSymmetryError):
            assert issubclass(exc, CheckpointError)

    def test_magic_constant(self):
        assert MAGIC == b"FCHV"

    @pytest.mark.parametrize("points, box_length", [
        (31, 1.0), (0, 1.0), (6, 1.0), (32, 0.0), (32, -2.0),
        (32, float("nan")), (32, float("inf")), (32, 1e200)])
    def test_invalid_stored_grid(self, tmp_path, points, box_length):
        path = tmp_path / "grid.chk"
        header = struct.pack("<4sBII5d", MAGIC, VERSION, 2, points, box_length,
                             0.1, 0.75, 0.5, 0.0)
        path.write_bytes(header + bytes(2 * points**2 * 16))
        with pytest.raises(CheckpointDimensionError, match="stored grid"):
            load_checkpoint(str(path))


@settings(max_examples=200, deadline=None)
@given(magic=st.sampled_from([MAGIC, b"FCHW"]),
       version=st.one_of(st.just(VERSION), st.integers(0, 255)),
       dim=st.integers(0, 4),
       points=st.one_of(st.integers(0, 24), st.just(2**32 - 1)),
       reals=st.tuples(*[st.floats()] * 5),
       exact_body=st.booleans(),
       body_shift=st.integers(-40, 40))
def test_fuzzed_file_raises_only_checkpoint_errors(
        tmp_path_factory, magic, version, dim, points, reals, exact_body,
        body_shift):
    header = struct.pack("<4sBII5d", magic, version, dim, points, *reals)
    expected = dim * points**dim * 16
    length = expected if exact_body and expected < 10**6 else max(body_shift, 0)
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.chk"
    path.write_bytes(header + bytes(length))
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


class TestRestart:
    def test_resumed_trajectory_matches(self, tmp_path):
        grid = SpectralGrid(2, 64, 2.0 * np.pi)
        params = SolverParams(nu=0.05, beta=0.75, alpha=0.6, dt=2e-3, t_end=0.4)
        v0 = band_random(grid, seed=9, band=(2.0, 8.0), amplitude=0.9)

        first = run(v0, params)
        path = str(tmp_path / "mid.chk")
        save_checkpoint(first.state, params, path)
        loaded, meta = load_checkpoint(path)
        tail = dataclasses.replace(params, t_end=0.2)
        resumed = run(loaded.v, tail)

        whole = run(v0, dataclasses.replace(params, t_end=0.6))
        a = resumed.state.v.field.data
        b = whole.state.v.field.data
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale
