"""Core volumetric data types and bit-exact MVOL file I/O.

A volume is a dense 3D grid with anisotropic physical spacing. Arrays are
stored in (z, y, x) index order with C layout, which makes the flat
linearization x-fastest, matching the on-disk MVOL payload byte order.

MVOL format: ``<name>.mvol.json`` is a UTF-8 JSON header with keys

* ``dims``:    ``[x, y, z]`` positive integers,
* ``spacing``: ``[sx, sy, sz]`` positive floats (micrometers per voxel),
* ``dtype``:   one of ``"u8" | "u16" | "u32" | "f32"``,
* ``data``:    relative filename of the raw payload.

The payload is raw little-endian, x-fastest, no padding. ``u32`` payloads
are segment-label volumes; the other dtypes are scalar intensities.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

HEADER_SUFFIX = ".mvol.json"

_DTYPE_CODES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "u32": np.dtype("<u4"),
    "f32": np.dtype("<f4"),
}
_LABEL_CODE = "u32"


class VolumeFormatError(ValueError):
    """Malformed or unsupported MVOL header/payload."""


class TruncatedDataError(VolumeFormatError):
    """Payload length does not match dims and dtype."""


def _check_spacing(spacing):
    s = tuple(float(c) for c in spacing)
    if len(s) != 3 or not all(np.isfinite(c) and c > 0 for c in s):
        raise ValueError(f"spacing must be three positive finite floats, got {spacing!r}")
    return s


@dataclass
class ScalarVolume:
    """Dense 3D intensity grid.

    ``data`` has shape ``(nz, ny, nx)``. Raw volumes keep their file dtype
    and value range; :func:`normalize` maps to float64 in [0, 1]. Volumes
    are treated as immutable after construction.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {self.data.shape}")
        if self.data.size == 0:
            raise ValueError("volume must be non-empty")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Extents as (nx, ny, nz)."""
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    @property
    def voxel_volume(self) -> float:
        """Physical volume of one voxel in cubic micrometers."""
        sx, sy, sz = self.spacing
        return sx * sy * sz


@dataclass
class LabelVolume:
    """Dense 3D grid of non-negative segment identifiers.

    Label 0 is reserved for background/unassigned voxels. Shares dims and
    spacing with its companion :class:`ScalarVolume`.
    """

    labels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 3:
            raise ValueError(f"label data must be 3D, got shape {self.labels.shape}")
        if self.labels.size == 0:
            raise ValueError("volume must be non-empty")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.size and int(self.labels.min()) < 0:
            raise ValueError("labels must be non-negative")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.labels.shape
        return (nx, ny, nz)

    @property
    def voxel_volume(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz


Volume = ScalarVolume | LabelVolume


def _header_path(path: str) -> str:
    path = os.fspath(path)
    if path.endswith(HEADER_SUFFIX):
        return path
    return path + HEADER_SUFFIX


def read_volume(path: str) -> Volume:
    """Read an MVOL pair; ``u32`` payloads yield a :class:`LabelVolume`.

    Raw scalar values are range-preserved, not normalized. Raises
    :class:`VolumeFormatError` for malformed headers or unknown dtypes and
    :class:`TruncatedDataError` when the payload length disagrees with the
    header.
    """
    header_path = _header_path(path)
    with open(header_path, "rb") as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as exc:
            raise VolumeFormatError(f"{header_path}: invalid JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise VolumeFormatError(f"{header_path}: header must be a JSON object")
    for key in ("dims", "spacing", "dtype", "data"):
        if key not in header:
            raise VolumeFormatError(f"{header_path}: missing header key {key!r}")
    dims = header["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(d, int) and d > 0 for d in dims)
    ):
        raise VolumeFormatError(f"{header_path}: dims must be three positive integers")
    try:
        spacing = _check_spacing(header["spacing"])
    except (ValueError, TypeError) as exc:
        raise VolumeFormatError(f"{header_path}: bad spacing: {exc}") from exc
    code = header["dtype"]
    if code not in _DTYPE_CODES:
        raise VolumeFormatError(f"{header_path}: unsupported dtype {code!r}")
    dtype = _DTYPE_CODES[code]

    nx, ny, nz = dims
    data_path = os.path.join(os.path.dirname(header_path), header["data"])
    raw = np.fromfile(data_path, dtype=dtype)
    expected = nx * ny * nz
    if raw.size != expected:
        raise TruncatedDataError(
            f"{data_path}: expected {expected} values of dtype {code}, got {raw.size}"
        )
    arr = raw.reshape(nz, ny, nx)
    if code == _LABEL_CODE:
        return LabelVolume(arr, spacing)
    return ScalarVolume(arr, spacing)


def _dtype_code(arr: np.ndarray, is_labels: bool) -> str:
    if is_labels:
        return _LABEL_CODE
    kind = arr.dtype
    if kind == np.uint8:
        return "u8"
    if kind == np.uint16:
        return "u16"
    if kind in (np.dtype(np.float32), np.dtype(np.float64)):
        return "f32"
    raise VolumeFormatError(f"no MVOL dtype for array dtype {arr.dtype}")


def write_volume(v: Volume, path: str) -> str:
    """Write an MVOL pair; returns the header path.

    Integer payloads round-trip bit-exactly. float64 data is cast to the
    ``f32`` on-disk dtype; float32 data round-trips exactly.
    """
    header_path = _header_path(path)
    base = os.path.basename(header_path)[: -len(HEADER_SUFFIX)]
    data_name = base + ".raw"
    is_labels = isinstance(v, LabelVolume)
    arr = v.labels if is_labels else v.data
    code = _dtype_code(arr, is_labels)
    out = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])

    nx, ny, nz = v.dims
    header = {
        "dims": [nx, ny, nz],
        "spacing": [float(c) for c in v.spacing],
        "dtype": code,
        "data": data_name,
    }
    dir_name = os.path.dirname(header_path)
    try:
        with open(header_path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)
            fh.write("\n")
        out.tofile(os.path.join(dir_name, data_name))
    except IsADirectoryError:
        raise
    return header_path


def normalize(v: ScalarVolume) -> ScalarVolume:
    """Min-max map intensities to [0, 1] as float64.

    Constant volumes map to all zeros. Idempotent on its own output.
    """
    data = v.data.astype(np.float64)
    if not np.isfinite(data).all():
        raise ValueError("normalize requires finite intensities")
    lo = data.min()
    hi = data.max()
    if hi > lo:
        data = (data - lo) / (hi - lo)
    else:
        data = np.zeros_like(data)
    return ScalarVolume(data, v.spacing)
