"""Conservative over-segmentation by all-minima seeded watershed.

Seeds are every plateau-connected local minimum of the preprocessed
volume (26-connectivity), flooded with a 6-connected priority flood.
Skipping any minima suppression keeps the supervoxels conservative: they
may split cells but should never span two of them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from .volume import LabelVolume, ScalarVolume

_CUBE = np.ones((3, 3, 3), dtype=bool)


@dataclass
class MinimaSet:
    """Plateau-connected minimum regions of a volume.

    ``seed_labels`` holds component ids 1..n at minimum voxels, 0
    elsewhere; ``plateau_values`` maps component id - 1 to the plateau
    intensity. Components are ordered by first occurrence in x-fastest
    scan order.
    """

    seed_labels: np.ndarray
    plateau_values: np.ndarray

    def __len__(self) -> int:
        return len(self.plateau_values)

    def components(self) -> list[tuple[np.ndarray, float]]:
        """List of (coords, value) pairs; coords is an (m, 3) array of (x, y, z)."""
        out = []
        for comp in range(1, len(self.plateau_values) + 1):
            zyx = np.argwhere(self.seed_labels == comp)
            out.append((zyx[:, ::-1].copy(), float(self.plateau_values[comp - 1])))
        return out


def find_local_minima(v: ScalarVolume) -> MinimaSet:
    """All maximal constant-value 26-connected plateaus with no lower 26-neighbor.

    A plateau that touches any strictly lower voxel anywhere on its rim is
    not a minimum, even if parts of it are locally flat.
    """
    a = np.asarray(v.data, dtype=np.float64)
    # grey_erosion over the full 3x3x3 cube includes the center, so it is
    # < a exactly where some 26-neighbor is strictly lower. Replicated
    # borders never fabricate lower values.
    eroded = ndi.grey_erosion(a, footprint=_CUBE, mode="nearest")
    has_lower = eroded < a
    cand = ~has_lower

    # A candidate voxel adjacent to an equal-valued voxel that itself has a
    # lower neighbor sits on a larger plateau that descends somewhere, so
    # its whole component must be rejected. Adjacent candidates always have
    # equal values, hence one adjacency step decides it.
    touches_descent = np.zeros_like(cand)
    nz, ny, nx = a.shape
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dz == 0 and dy == 0 and dx == 0:
                    continue
                src = tuple(
                    slice(max(d, 0), n + min(d, 0)) for d, n in ((dz, nz), (dy, ny), (dx, nx))
                )
                dst = tuple(
                    slice(max(-d, 0), n + min(-d, 0)) for d, n in ((dz, nz), (dy, ny), (dx, nx))
                )
                equal = a[dst] == a[src]
                touches_descent[dst] |= equal & has_lower[src]

    comp_labels, n_comp = ndi.label(cand, structure=_CUBE)
    bad = np.unique(comp_labels[cand & touches_descent])
    keep = np.setdiff1d(np.arange(1, n_comp + 1), bad)

    remap = np.zeros(n_comp + 1, dtype=np.int32)
    remap[keep] = np.arange(1, len(keep) + 1, dtype=np.int32)
    seed_labels = remap[comp_labels]

    flat = a.ravel()
    seeds_flat = seed_labels.ravel()
    first = np.full(len(keep) + 1, -1, dtype=np.int64)
    nz_idx = np.flatnonzero(seeds_flat)
    # reversed scan keeps the first occurrence per component
    first[seeds_flat[nz_idx[::-1]]] = nz_idx[::-1]
    return MinimaSet(seed_labels, flat[first[1:]])


def seeded_watershed(v: ScalarVolume, seeds: MinimaSet) -> LabelVolume:
    """Priority flood from the seed components over 6-connectivity.

    Every voxel receives exactly one label (no watershed-line voxels).
    Queue discipline: entries are popped in non-decreasing intensity of
    the target voxel, FIFO among equal intensities. Insertion order is
    fixed: seed voxels in x-fastest scan order, then per popped voxel its
    unlabeled neighbors in x-, x+, y-, y+, z-, z+ order, which makes the
    result deterministic.

    A voxel is labelled at its first push and never queued twice. That
    equals labelling it at its first pop: every entry for a voxel has its
    intensity, so its first push has the smallest counter and pops first.
    An entry is one int, ``rank << 2B | counter << B | index``: ``rank``
    orders the intensities (``np.unique``, exact for finite values; others
    raise ``ValueError``), ``index`` is the voxel in the padded grid and
    ``B`` is the bit length of the padded size.
    """
    if len(seeds) == 0:
        raise ValueError("seeded_watershed requires at least one seed component")
    a = np.asarray(v.data, dtype=np.float64)
    if a.shape != seeds.seed_labels.shape:
        raise ValueError("seed array shape does not match volume")
    if not np.isfinite(a).all():
        raise ValueError("seeded_watershed requires finite intensities")
    nz, ny, nx = a.shape

    # Pad with a sentinel ring so neighbor indexing never needs bounds
    # checks: border labels are -1, so border voxels are never queued.
    rank = np.pad(np.unique(a, return_inverse=True)[1].reshape(a.shape), 1)
    lp = np.pad(seeds.seed_labels.astype(np.int32), 1, mode="constant", constant_values=-1)
    pnx, pny = nx + 2, ny + 2
    steps = (-1, 1, -pnx, pnx, -pnx * pny, pnx * pny)
    bits = lp.size.bit_length()
    mask = (1 << bits) - 1
    # rank and index of every voxel; a push ORs in the counter
    base = [r << 2 * bits | i for i, r in enumerate(rank.ravel().tolist())]
    labels = lp.ravel().tolist()

    heap: list[int] = []
    counter = 0
    # padding keeps the x-fastest scan order of the seed voxels
    for idx in np.flatnonzero(lp.ravel() > 0).tolist():
        lab = labels[idx]
        for step in steps:
            n = idx + step
            if labels[n] == 0:
                labels[n] = lab
                heap.append(base[n] | counter << bits)
                counter += 1
    heapq.heapify(heap)

    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        idx = pop(heap) & mask
        lab = labels[idx]
        for step in steps:
            n = idx + step
            if labels[n] == 0:
                labels[n] = lab
                push(heap, base[n] | counter << bits)
                counter += 1

    out = np.array(labels, dtype=np.int32).reshape(nz + 2, ny + 2, nx + 2)[1:-1, 1:-1, 1:-1]
    return LabelVolume(out.copy(), v.spacing)


def compact_labels(lv: LabelVolume) -> LabelVolume:
    """Relabel to contiguous 1..K, ordered by first occurrence in x-fastest scan.

    Label 0 stays 0.
    """
    flat = lv.labels.ravel()
    uniq, first = np.unique(flat, return_index=True)
    nonzero = uniq != 0
    uniq = uniq[nonzero]
    first = first[nonzero]
    order = np.argsort(first, kind="stable")
    remap = np.zeros(int(uniq.max(initial=0)) + 1, dtype=np.int32)
    remap[uniq[order]] = np.arange(1, len(uniq) + 1, dtype=np.int32)
    return LabelVolume(remap[lv.labels], lv.spacing)
