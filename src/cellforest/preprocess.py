"""Noise reduction and membrane-gap closing.

Two gentle filters prepare a normalized volume for watershed seeding: a
separable 3D Gaussian against high-frequency noise, then an iterative
grayscale morphological closing with growing ball radii that fills dark
gaps in bright membranes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import ndimage as ndi

from .parallel import concurrent_map, workers
from .volume import ScalarVolume

_CHUNK = 4  # z-slices per chunk: of 2-16, the fastest closing at 96^3


def _check_sigma(sigma) -> tuple[float, float, float]:
    sigma = tuple(float(s) for s in sigma)
    if len(sigma) != 3 or not all(math.isfinite(s) and s >= 0 for s in sigma):
        raise ValueError(f"sigma must be three finite non-negative floats, got {sigma!r}")
    return sigma


@dataclass
class PreprocessParams:
    """Smoothing sigma per axis (x, y, z, in voxels) and maximum closing radius."""

    sigma: tuple[float, float, float] = (1.0, 1.0, 1.0)
    r_cl_max: int = 3

    def __post_init__(self):
        self.sigma = _check_sigma(self.sigma)
        if self.r_cl_max < 1:
            raise ValueError(f"r_cl_max must be >= 1, got {self.r_cl_max}")


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Discretized Gaussian truncated at ceil(3*sigma), renormalized to sum 1."""
    if sigma <= 0:
        return np.ones(1)
    radius = math.ceil(3.0 * sigma)
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return w / w.sum()


def gaussian_smooth(v: ScalarVolume, sigma) -> ScalarVolume:
    """Separable Gaussian smoothing with edge-replicated borders.

    ``sigma`` is (sx, sy, sz) in voxels; a zero component is the identity
    along that axis; a negative or non-finite one raises ValueError. Output
    is clamped to [0, 1].
    """
    sigma = _check_sigma(sigma)
    data = v.data.astype(np.float64)
    # data axes are (z, y, x); sigma is given per (x, y, z)
    for axis, s in zip((2, 1, 0), sigma):
        if s > 0:
            data = ndi.convolve1d(data, gaussian_kernel_1d(s), axis=axis, mode="nearest")
    np.clip(data, 0.0, 1.0, out=data)
    return ScalarVolume(data, v.spacing)


def ball_offsets(radius: int) -> np.ndarray:
    """Boolean footprint of the discrete ball {d : ||d||_2 <= radius} in voxels."""
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    r = int(radius)
    ax = np.arange(-r, r + 1)
    dz, dy, dx = np.meshgrid(ax, ax, ax, indexing="ij")
    return (dx * dx + dy * dy + dz * dz) <= r * r


def ball_boxes(radius: int) -> np.ndarray:
    """Half-widths (cz, cy, cx) of centred boxes whose union is the ball: the
    maximal points of its positive octant (3, 4 and 6 boxes for radii 1-3)."""
    r = int(radius)
    pts = np.argwhere(ball_offsets(r)[r:, r:, r:])
    return pts[(pts[:, None] <= pts[None]).all(axis=2).sum(axis=1) == 1]


def _ax(axis: int, start=None, stop=None) -> tuple:
    return (slice(None),) * axis + (slice(start, stop),)


def _window(spans, axis, e, op, pad, alloc) -> np.ndarray:
    """``op`` over [i - e, i + e] along ``axis`` of ``spans[0]``, padded by ``pad``.
    ``spans[i]`` holds ``op`` over runs of 2**i voxels; two runs cover the window."""
    j = (2 * e + 1).bit_length() - 1
    for i in range(len(spans) - 1, j):
        p, q = spans[i][_ax(axis, None, -(1 << i))], spans[i][_ax(axis, 1 << i)]
        spans.append(op(p, q, out=alloc(p.shape)))
    n, k = spans[0].shape[axis] - 2 * pad, 1 << j
    p, q = (spans[j][_ax(axis, s, s + n)] for s in (pad - e, pad + e + 1 - k))
    return op(p, q, out=alloc(p.shape)) if k > 1 else p


def _filter_chunks(a, zs, out, boxes, op, pad, bufs) -> None:
    """``op`` over the sorted boxes into ``out[z0 : z0 + _CHUNK]`` for each z0 in ``zs``,
    over ``a`` read with a halo of ``pad``. Each box takes its windows depth first (z, y,
    then x) and is folded into the chunk when done, so only one box prefix's windows live:
    ``levels[k]`` holds the window over the first k axes and its runs. The i-th live array
    is a view of ``bufs[i]``; only the dry run grows ``bufs``."""

    def alloc(shape):
        i, size = sum(map(len, levels)), math.prod(shape)
        bufs.extend([np.empty(0)] * (i + 1 - len(bufs)))
        bufs[i] = bufs[i] if bufs[i].size >= size else np.empty(size)
        return bufs[i][:size].reshape(shape)

    nz, ny, nx = a.shape
    for z0 in zs:
        part, levels = out[z0 : z0 + _CHUNK], []
        lo, hi = max(z0 - pad, 0), min(z0 + len(part) + pad, nz)
        start, block = lo - z0 + pad, alloc((len(part) + 2 * pad, ny + 2 * pad, nx + 2 * pad))
        block[start : start + hi - lo, pad : pad + ny, pad : pad + nx] = a[lo:hi]
        for axis, (s, n) in enumerate(((start, hi - lo), (pad, ny), (pad, nx))):
            block[_ax(axis, None, s)] = block[_ax(axis, s, s + 1)]
            block[_ax(axis, s + n)] = block[_ax(axis, s + n - 1, s + n)]
        levels.append([block])
        for b, prev in zip(boxes, [(-1,) * 3] + boxes):
            del levels[next(k for k in range(3) if b[k] != prev[k]) + 1 :]
            for axis in range(len(levels) - 1, 3):
                levels.append([_window(levels[axis], axis, b[axis], op, pad, alloc)])
            w = levels.pop()[0]
            np.copyto(part, w) if b is boxes[0] else op(part, w, out=part)


def box_filter(data: np.ndarray, boxes, op, out=None) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) over the union of the centred boxes [-cz, cz] x
    [-cy, cy] x [-cx, cx], borders edge-replicated, into ``out`` (a new array if None),
    which must not share memory with ``data``. For finite data, ``ndi.grey_dilation`` or
    ``grey_erosion`` with ``mode="nearest"`` byte for byte, except that numpy returns the
    second operand where +0.0 and -0.0 tie (``normalize`` never yields -0.0). Runs in
    ``_CHUNK``-slice z-chunks through :func:`concurrent_map`; threads do not change the result."""
    if out is not None and np.shares_memory(out, data):
        raise ValueError("box_filter: out shares memory with the input")
    a = np.ascontiguousarray(data, dtype=np.float64)
    out, nz, pad = np.empty_like(a) if out is None else out, a.shape[0], int(np.max(boxes))
    boxes, chunks = sorted(set(map(tuple, np.asarray(boxes).tolist()))), range(0, nz, _CHUNK)
    # A dry run of the first chunk (an op that computes nothing) sizes the buffers here: no
    # worker allocates, and the memory, freed after the call, serves this thread's later arrays.
    _filter_chunks(a, [0], out, boxes, lambda p, q, out: out, pad, first := [])
    scratch = [first] + [list(map(np.empty_like, first)) for _ in range(workers(len(chunks)) - 1)]
    concurrent_map(partial(_filter_chunks, a, iter(chunks), out, boxes, op, pad), scratch)
    return out


def iterative_closing(v: ScalarVolume, r_cl_max: int) -> ScalarVolume:
    """Sequential grayscale closings (ball dilation, then erosion with the same ball)
    with radii 1..r_cl_max.

    Growing radii close progressively wider membrane gaps while staying
    more conservative than a single large-radius closing. The result is
    voxelwise >= the input (closing is extensive) and <= 1.
    """
    if r_cl_max < 1:
        raise ValueError(f"r_cl_max must be >= 1, got {r_cl_max}")
    data, dilated, closed = v.data, np.empty(v.data.shape), np.empty(v.data.shape)
    for boxes in map(ball_boxes, range(1, int(r_cl_max) + 1)):  # dilate, erode into the other
        data = box_filter(box_filter(data, boxes, np.maximum, dilated), boxes, np.minimum, closed)
    return ScalarVolume(data, v.spacing)
