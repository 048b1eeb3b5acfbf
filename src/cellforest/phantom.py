"""Synthetic membrane-stained volumes with known ground truth.

Real meristem stacks come with neither labels nor redistribution rights,
so end-to-end tests run on phantoms instead: a Voronoi tessellation of
randomly seeded cell sites, bright walls where cells touch (and at the
image border, where the specimen surface would be stained), per-slice
exponential intensity decay to mimic depth attenuation, Gaussian blur
and additive noise. The pre-rendering Voronoi labels are the ground
truth; each block of voxels scans only the sites that can be nearest to
one of its voxels, so rendering is near-linear in the voxel count.

The same machinery cuts labeled 32^3 training patches for the
hypothesis classifier: whole cells ("correct"), plane-cut fragments
("over") and unions of touching cells ("under").
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from .classify import CLASS_NAMES, Patch, crop_patch, union_box
from .cnn import PATCH_SIZE, DatasetError
from .graph import face_pairs, pair_keys
from .preprocess import ball_offsets, gaussian_smooth
from .volume import (
    HEADER_SUFFIX, LabelVolume, ScalarVolume, _check_spacing, read_volume, write_volume
)

# Give up on site placement after this many consecutive rejected draws.
_MAX_REJECTS = 10_000
# Edge, in voxels, of the cubic blocks that _voronoi_labels labels one at a time.
_BLOCK = 16
# Rendered intensity of wall voxels and of cell interiors, before attenuation, blur and noise.
MEMBRANE_INTENSITY = 0.9
INTERIOR_INTENSITY = 0.15


@dataclass
class PhantomParams:
    """Knobs for one synthetic volume. Spacing in micrometres, widths in voxels."""

    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_cells: int = 30
    membrane_width: int = 1
    attenuation: float = 1.0
    noise_sigma: float = 0.0
    blur_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.spacing = _check_spacing(self.spacing)
        nx, ny, nz = self.dims
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.n_cells > nx * ny * nz:
            raise ValueError(
                f"cannot place {self.n_cells} cells in {nx * ny * nz} voxels"
            )
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError("attenuation must be in (0, 1]")
        if self.membrane_width < 1:
            raise ValueError("membrane_width must be >= 1")
        if self.noise_sigma < 0 or self.blur_sigma < 0:
            raise ValueError("noise_sigma and blur_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _place_sites(params: PhantomParams, rng: np.random.Generator) -> np.ndarray:
    """Uniform random sites (index units, (z, y, x)), rejection-sampled so
    no two sites are closer than 2 * membrane_width — cells are never
    thinner than their walls."""
    nx, ny, nz = params.dims
    extent = np.array([nz, ny, nx], dtype=np.float64)
    min_sep2 = (2.0 * params.membrane_width) ** 2
    sites = np.empty((params.n_cells, 3))
    placed = rejects = 0
    while placed < params.n_cells:
        cand = rng.random(3) * extent
        # each row sum adds in np.sum's order for a 3-vector: (dz² + dy²) + dx²
        if (((cand - sites[:placed]) ** 2).sum(axis=1) < min_sep2).any():
            rejects += 1
            if rejects >= _MAX_REJECTS:
                raise ValueError(
                    f"could not place {params.n_cells} sites at separation "
                    f"{2 * params.membrane_width} in dims {params.dims}"
                )
            continue
        rejects = 0
        sites[placed] = cand
        placed += 1
    return sites


def _voronoi_labels(sites: np.ndarray, params: PhantomParams) -> np.ndarray:
    """Nearest-site label per voxel under physical distance; ties go to the
    lowest site index.

    Per block, summing each axis's least (greatest) squared offset in the
    order ``(dz² + dy²) + dx²`` bounds every voxel's distance from below
    (above), as IEEE rounding is monotone. A site whose lower bound exceeds
    the least upper bound is strictly farther than the winner everywhere in
    the block, so skipping it keeps the labels of a full scan bit for bit.
    """
    terms = []
    for n, s, p in zip(params.dims[::-1], params.spacing[::-1], sites.T):
        t = (np.arange(n)[:, None] * s - p.astype(np.float64) * s) ** 2
        starts = np.arange(0, n, _BLOCK)
        terms.append((t, np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)))
    (tz, lz, hz), (ty, ly, hy), (tx, lx, hx) = terms
    labels = np.empty((len(tz), len(ty), len(tx)), dtype=np.uint32)
    for bz, by, bx in np.ndindex(len(lz), len(ly), len(lx)):
        bound = ((hz[bz] + hy[by]) + hx[bx]).min()
        near = np.flatnonzero((lz[bz] + ly[by]) + lx[bx] <= bound)
        z, y, x = (slice(b * _BLOCK, (b + 1) * _BLOCK) for b in (bz, by, bx))
        d2 = (tz[z, None, None, near] + ty[None, y, None, near]) + tx[None, None, x, near]
        # argmin keeps the first minimum, as a strict-< scan in site order does
        labels[z, y, x] = near[d2.argmin(axis=3)] + 1
    return labels


def membrane_mask(labels: np.ndarray, width: int = 1) -> np.ndarray:
    """Voxels whose 6-neighborhood crosses a label change, walls widened
    by dilation for ``width`` > 1. The volume border counts as a change
    (the specimen surface is stained too)."""
    mask = np.ones(labels.shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = False
    for lower, upper, differ in face_pairs(labels):
        mask[lower] |= differ
        mask[upper] |= differ
    if width > 1:
        mask = ndi.binary_dilation(mask, structure=ball_offsets(width - 1))
    return mask


def generate_phantom(params: PhantomParams) -> tuple[ScalarVolume, LabelVolume]:
    """Render one phantom; returns (intensity volume, ground-truth labels).

    Deterministic for a given seed: the same parameters always produce
    bitwise-identical outputs.
    """
    rng = np.random.default_rng(params.seed)
    sites = _place_sites(params, rng)
    labels = _voronoi_labels(sites, params)

    mem = membrane_mask(labels, params.membrane_width)
    img = np.where(mem, MEMBRANE_INTENSITY, INTERIOR_INTENSITY)
    if params.attenuation < 1.0:
        nz = img.shape[0]
        img *= params.attenuation ** np.arange(nz, dtype=np.float64)[:, None, None]
    v = ScalarVolume(img, params.spacing)
    if params.blur_sigma > 0:
        v = gaussian_smooth(v, (params.blur_sigma,) * 3)
    if params.noise_sigma > 0:
        noisy = v.data + rng.normal(0.0, params.noise_sigma, v.data.shape)
        v = ScalarVolume(np.clip(noisy, 0.0, 1.0), params.spacing)
    return v, LabelVolume(labels, params.spacing)


def _touching_pairs(labels: np.ndarray) -> list[tuple[int, int]]:
    """Sorted unique (lower, higher) label pairs that share a voxel face."""
    base = int(labels.max(initial=0)) + 1
    keys = np.unique(np.concatenate([key for *_, key in pair_keys(labels, base)]))
    return list(zip((keys // base).tolist(), (keys % base).tolist()))


def generate_patch_dataset(
    params: PhantomParams, v: ScalarVolume, gt: LabelVolume, per_class: int = 20
) -> tuple[list[Patch], list[str]]:
    """Labeled training patches cut from the phantom ``(v, gt) =
    generate_phantom(params)``, ``per_class`` of each class.

    correct = a whole ground-truth cell; over = a random proper fragment
    of a cell (cut by a plane through its centroid); under = the union
    of 2-3 touching cells. Each is cropped, as :func:`extract_patch` crops a
    node, around the union of its cells' boxes (a fragment's own box for
    "over"). Returns (patches, class names) aligned by index.
    """
    if per_class < 1:
        raise ValueError("need at least one patch per class")
    labels = gt.labels
    pairs = _touching_pairs(labels)
    if not pairs:
        raise DatasetError("phantom has no touching cell pairs; raise n_cells")
    neighbors: dict[int, set[int]] = {}
    for a, b in pairs:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    boxes = ndi.find_objects(labels)
    rng = np.random.default_rng(params.seed + 1)
    patches: list[Patch] = []
    classes: list[str] = []

    for _ in range(per_class):
        a, b = pairs[int(rng.integers(len(pairs)))]
        group = {a, b}
        if rng.random() < 0.5:
            extra = sorted((neighbors[a] | neighbors[b]) - group)
            if extra:
                group.add(extra[int(rng.integers(len(extra)))])
        patches.append(Patch(crop_patch(v.data, *union_box(boxes, sorted(group), "cell union"))))
        classes.append("under")

    for _ in range(per_class):
        c = int(rng.integers(params.n_cells)) + 1
        patches.append(Patch(crop_patch(v.data, *union_box(boxes, [c], f"truth cell {c}"))))
        classes.append("correct")

    for _ in range(per_class):
        lo, hi = _random_fragment(labels, boxes, params.n_cells, rng)
        patches.append(Patch(crop_patch(v.data, lo, hi)))
        classes.append("over")
    return patches, classes


def _random_fragment(
    labels: np.ndarray, boxes: list, n_cells: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive (lo, hi) box of a nonempty proper subset of one cell, its voxels on
    one side of a random plane through its centroid, read from the cell's box only."""
    for _ in range(100):
        c = int(rng.integers(n_cells)) + 1
        if c > len(boxes) or boxes[c - 1] is None:
            continue
        coords = np.argwhere(labels[boxes[c - 1]] == c) + [s.start for s in boxes[c - 1]]
        if len(coords) < 2:
            continue
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        side = (coords - coords.mean(axis=0)) @ normal > 0
        if not side.any() or side.all():
            continue
        keep = coords[side]
        return keep.min(axis=0), keep.max(axis=0)
    raise DatasetError("could not cut a proper cell fragment; cells too small")


def save_patch_dataset(dirpath: str, patches: list[Patch], classes: list[str]) -> None:
    """Write patches as MVOL files plus an ``index.txt`` of
    ``file,class`` lines — the layout ``load_patch_dataset`` and the
    training command read."""
    if len(patches) != len(classes):
        raise ValueError("patches and classes must align")
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for i, (patch, cls) in enumerate(zip(patches, classes)):
        if cls not in CLASS_NAMES:
            raise DatasetError(f"unknown class name {cls!r}")
        name = f"patch_{i:04d}.mvol.json"
        write_volume(
            ScalarVolume(patch.data.astype(np.float32), (1.0, 1.0, 1.0)),
            os.path.join(dirpath, name),
        )
        lines.append(f"{name},{cls}")
    with open(os.path.join(dirpath, "index.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_patch_dataset(dirpath: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a patch directory back as (patches (n,32,32,32), class indices): every
    ``index.txt`` line is parsed and checked, then each patch read into one array."""
    index = os.path.join(dirpath, "index.txt")
    if not os.path.isfile(index):
        raise DatasetError(f"no index.txt in {dirpath}")
    entries = []
    with open(index) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                name, cls = line.split(",")
            except ValueError:
                raise DatasetError(f"malformed index line {line!r}") from None
            if cls not in CLASS_NAMES:
                raise DatasetError(f"unknown class name {cls!r} in index")
            if not name.endswith(HEADER_SUFFIX):  # read_volume would add the suffix itself
                raise DatasetError(f"index line {line!r} names no {HEADER_SUFFIX} patch header")
            entries.append((name, CLASS_NAMES.index(cls)))
    if not entries:
        raise DatasetError(f"empty dataset in {dirpath}")
    x = np.empty((len(entries), PATCH_SIZE, PATCH_SIZE, PATCH_SIZE))
    for row, (name, _) in zip(x, entries):
        vol = read_volume(os.path.join(dirpath, name))
        if not isinstance(vol, ScalarVolume):
            raise DatasetError(f"{name}: a u32 label volume is not an intensity patch")
        try:
            Patch.check(vol.data)  # before the float64 copy, which goes straight into x
        except ValueError as exc:
            raise DatasetError(f"{name}: {exc}") from None
        row[...] = vol.data
    return x, np.array([cls for _, cls in entries], dtype=np.int64)
