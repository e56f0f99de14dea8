"""Binary checkpoints for bit-exact restart and cross-run diffing.

Layout: magic "FCHV", version byte, then dim and points-per-axis as
little-endian u32, then box length, viscosity, dissipation order, filter
width and time as little-endian f64, then the spectral coefficients of each
velocity component in row-major order as interleaved (real, imag) f64 pairs.

The file holds the full spectrum, (dim, N, ..., N); a state holds the modes
0 <= m <= N/2 of the last axis.  The writer mirrors the rest, conj F(-k), and
the reader checks that the stored rest is that mirror, so no stored mode is
dropped unseen.  Both go one plane (component, first index) at a time.
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


def _stored_plane(half, component, i):
    """Plane i of one component as the file stores it: the half's modes,
    then the mirror images conj F(-k) of the modes 1 <= m < N/2 of plane -i
    in reverse, each leading index j read at -j."""
    n = half.shape[1]
    mirror = half[component, -i % n]
    for axis in range(mirror.ndim - 1):
        mirror = mirror.take(-np.arange(n) % n, axis=axis)
    return np.concatenate((half[component, i], np.conj(mirror[..., -2:0:-1])),
                          axis=-1)


def save_checkpoint(state, params, path):
    """Write a SimState and its physical parameters to `path`."""
    field = to_spectral(state.v.field)
    grid = field.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        grid.dim,
        grid.points_per_axis,
        grid.box_length,
        params.nu,
        params.beta,
        params.alpha,
        state.t,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for component, i in np.ndindex(grid.dim, grid.points_per_axis):
            plane = _stored_plane(field.data, component, i)
            fh.write(plane.astype("<c16", copy=False))


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
                f"byte header"
            )
        magic, version, dim, points, box_length, nu, beta, alpha, t = _HEADER.unpack(
            header
        )
        if magic != MAGIC:
            raise CheckpointMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise CheckpointVersionError(
                f"unsupported version {version}, this build reads {VERSION}"
            )
        try:
            validate_grid(dim, points, box_length)
        except ValueError as exc:
            raise CheckpointDimensionError(f"stored grid is invalid: {exc}") from exc
        expected = dim * points**dim * 16
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != expected:
            raise CheckpointTruncationError(
                f"coefficient block holds {body} bytes, expected {expected}"
            )
        grid = SpectralGrid(dim, points, box_length)
        data = np.empty((dim,) + grid.spectral_shape, np.complex128)
        plane = np.empty(grid.shape[1:], "<c16")
        # the planes' halves first, then each whole plane against its mirror
        for checking in (False, True):
            fh.seek(_HEADER.size)
            for component, i in np.ndindex(dim, points):
                if fh.readinto(memoryview(plane).cast("B")) != plane.nbytes:
                    raise CheckpointTruncationError("coefficient block ends early")
                if not checking:
                    data[component, i] = plane[..., :points // 2 + 1]
                elif not np.array_equal(plane, _stored_plane(data, component, i),
                                        equal_nan=True):
                    raise CheckpointSymmetryError(
                        f"stored modes past N/2 of component {component}, plane "
                        f"{i} are not the mirror of the stored half")
    field = VectorField(grid, data, SPECTRAL)
    state = SimState(t, ProjectedField(field))
    return state, {"nu": nu, "beta": beta, "alpha": alpha}
