"""Binary checkpoints for bit-exact restart and cross-run diffing.

Layout: magic "FCHV", version byte, then dim and points-per-axis as
little-endian u32, then box length, viscosity, dissipation order, filter
width and time as little-endian f64, then the spectral coefficients of each
velocity component in row-major order as interleaved (real, imag) f64 pairs.
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
    payload = np.ascontiguousarray(field.data).astype("<c16", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)       # through the buffer protocol: no copy


def load_checkpoint(path):
    """Read a checkpoint; returns (SimState, stored physical parameters).

    The stored nu/beta/alpha come back as a dict so the caller can rebuild
    or cross-check its SolverParams; coefficients are reproduced bitwise.
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
        # read straight into the coefficient array: no copy of the file
        stored = np.empty((dim,) + grid.shape, dtype="<c16")
        read = fh.readinto(memoryview(stored).cast("B"))
        if read != expected:
            raise CheckpointTruncationError(
                f"coefficient block holds {read} bytes, expected {expected}"
            )
    data = stored.astype(np.complex128, copy=False)
    field = VectorField(grid, data, SPECTRAL)
    state = SimState(t, ProjectedField(field))
    return state, {"nu": nu, "beta": beta, "alpha": alpha}
