"""Binary checkpoints for bit-exact restart and cross-run diffing.

Layout: magic "FCHV", version byte, then dim and points-per-axis as
little-endian u32, then box length, viscosity, dissipation order, filter
width and time as little-endian f64, then the spectral coefficients of each
velocity component in row-major order as interleaved (real, imag) f64 pairs.

The file holds the full spectrum, (dim, N, ..., N); a state holds the modes
0 <= m <= N/2 of the last axis.  The writer mirrors the rest, conj F(-k), and
the reader checks that the stored rest is that mirror, so no stored mode is
dropped unseen.  Both go one block of planes (component, first indices) at
a time, each at most a sixteenth of a component (_blocks).
"""

import os
import struct

import numpy as np

from .fields import ProjectedField
from .integrate import SimState
from .spectral import SPECTRAL, SpectralGrid, VectorField, to_spectral, validate_grid

MAGIC = b"FCHV"
VERSION = 1
_HEADER = struct.Struct("<4sBII5d")


class CheckpointError(Exception):
    """Base class for malformed checkpoint files."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncationError(CheckpointError):
    pass


class CheckpointDimensionError(CheckpointError):
    pass


class CheckpointSymmetryError(CheckpointError):
    """The stored modes past N/2 are not the mirror of the stored half."""


def _blocks(dim, n):
    """(component, rows) in file order, rows a slice of n // 16 first
    indices (one at least): each block is at most 1/16 of a component."""
    size = max(1, n // 16)
    return [(c, slice(i, min(i + size, n))) for c in range(dim)
            for i in range(0, n, size)]


def _stored_planes(half, component, rows):
    """Planes `rows` of one component as the file stores them: the half's
    modes, then the mirror images conj F(-k) of the modes 1 <= m < N/2 of
    the planes -rows in reverse, each leading index j read at -j."""
    n = half.shape[1]
    mirror = half[component]
    for axis in range(mirror.ndim - 1):
        index = np.arange(n)[rows] if axis == 0 else np.arange(n)
        mirror = mirror.take(-index % n, axis=axis)
    return np.concatenate((half[component, rows], np.conj(mirror[..., -2:0:-1])),
                          axis=-1)


def save_checkpoint(state, params, path):
    """Write a SimState and its physical parameters to `path`."""
    field = to_spectral(state.v.field)
    grid = field.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.points_per_axis,
                          grid.box_length, params.nu, params.beta, params.alpha,
                          state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        for component, rows in _blocks(grid.dim, grid.points_per_axis):
            planes = _stored_planes(field.data, component, rows)
            fh.write(planes.astype("<c16", copy=False))


def load_checkpoint(path):
    """Read a checkpoint; returns (SimState, stored physical parameters).

    The stored nu/beta/alpha come back as a dict so the caller can rebuild
    or cross-check its SolverParams; coefficients are reproduced bitwise, as
    a C-ordered half.  CheckpointSymmetryError when the stored modes past
    N/2 are not the mirror of the stored half.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CheckpointTruncationError(
                f"file holds {len(header)} bytes, shorter than the {_HEADER.size} "
                f"byte header")
        magic, version, dim, points, box_length, nu, beta, alpha, t = \
            _HEADER.unpack(header)
        if magic != MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CheckpointVersionError(
                f"unsupported version {version}, this build reads {VERSION}")
        try:
            validate_grid(dim, points, box_length)
        except ValueError as exc:
            raise CheckpointDimensionError(f"stored grid is invalid: {exc}") from exc
        expected = dim * points**dim * 16
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != expected:
            raise CheckpointTruncationError(
                f"coefficient block holds {body} bytes, expected {expected}")
        grid = SpectralGrid(dim, points, box_length)
        data = np.empty((dim,) + grid.spectral_shape, np.complex128)
        # the planes' halves first, then each whole block against its mirror
        for checking in (False, True):
            fh.seek(_HEADER.size)
            for component, rows in _blocks(dim, points):
                planes = np.empty((rows.stop - rows.start,) + grid.shape[1:], "<c16")
                if fh.readinto(memoryview(planes).cast("B")) != planes.nbytes:
                    raise CheckpointTruncationError("coefficient block ends early")
                if not checking:
                    data[component, rows] = planes[..., :points // 2 + 1]
                elif not np.array_equal(planes, _stored_planes(data, component, rows),
                                        equal_nan=True):
                    raise CheckpointSymmetryError(
                        f"stored modes past N/2 of component {component}, planes "
                        f"{rows.start}-{rows.stop - 1}, are not the mirror of the "
                        f"stored half")
    field = VectorField(grid, data, SPECTRAL)
    state = SimState(t, ProjectedField(field))
    return state, {"nu": nu, "beta": beta, "alpha": alpha}
