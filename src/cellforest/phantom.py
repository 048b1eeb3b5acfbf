"""Synthetic membrane-stained volumes with known ground truth.

Real meristem stacks come with neither labels nor redistribution rights,
so end-to-end tests run on phantoms instead: a Voronoi tessellation of
randomly seeded cell sites, bright walls where cells touch (and at the
image border, where the specimen surface would be stained), per-slice
exponential intensity decay to mimic depth attenuation, Gaussian blur
and additive noise. The pre-rendering Voronoi labels are the ground
truth.

The same machinery cuts labeled 32^3 training patches for the
hypothesis classifier: whole cells ("correct"), plane-cut fragments
("over") and unions of touching cells ("under").
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from .classify import CLASS_NAMES, Patch, crop_patch
from .cnn import DatasetError
from .preprocess import ball_offsets, gaussian_smooth
from .volume import LabelVolume, ScalarVolume, read_volume, write_volume

# Give up on site placement after this many consecutive rejected draws.
_MAX_REJECTS = 10_000


@dataclass
class PhantomParams:
    """Knobs for one synthetic volume. Spacing in micrometres, widths in voxels."""

    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_cells: int = 30
    membrane_width: int = 1
    membrane_intensity: float = 0.9
    interior_intensity: float = 0.15
    attenuation: float = 1.0
    noise_sigma: float = 0.0
    blur_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        nx, ny, nz = self.dims
        if min(nx, ny, nz) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.n_cells > nx * ny * nz:
            raise ValueError(
                f"cannot place {self.n_cells} cells in {nx * ny * nz} voxels"
            )
        if not 0.0 <= self.interior_intensity < self.membrane_intensity <= 1.0:
            raise ValueError("need 0 <= interior_intensity < membrane_intensity <= 1")
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError("attenuation must be in (0, 1]")
        if self.membrane_width < 1:
            raise ValueError("membrane_width must be >= 1")
        if self.noise_sigma < 0 or self.blur_sigma < 0:
            raise ValueError("noise_sigma and blur_sigma must be >= 0")


def _place_sites(params: PhantomParams, rng: np.random.Generator) -> np.ndarray:
    """Uniform random sites (index units, (z, y, x)), rejection-sampled so
    no two sites are closer than 2 * membrane_width — cells are never
    thinner than their walls."""
    nx, ny, nz = params.dims
    extent = np.array([nz, ny, nx], dtype=np.float64)
    min_sep2 = (2.0 * params.membrane_width) ** 2
    sites: list[np.ndarray] = []
    rejects = 0
    while len(sites) < params.n_cells:
        cand = rng.random(3) * extent
        if any(np.sum((cand - s) ** 2) < min_sep2 for s in sites):
            rejects += 1
            if rejects >= _MAX_REJECTS:
                raise ValueError(
                    f"could not place {params.n_cells} sites at separation "
                    f"{2 * params.membrane_width} in dims {params.dims}"
                )
            continue
        rejects = 0
        sites.append(cand)
    return np.array(sites)


def _voronoi_labels(sites: np.ndarray, params: PhantomParams) -> np.ndarray:
    """Nearest-site label per voxel under physical distance; ties go to the
    lowest site index."""
    nx, ny, nz = params.dims
    sx, sy, sz = params.spacing
    scale = np.array([sz, sy, sx])
    zz, yy, xx = np.meshgrid(
        np.arange(nz) * sz, np.arange(ny) * sy, np.arange(nx) * sx, indexing="ij"
    )
    best_d2 = np.full((nz, ny, nx), np.inf)
    labels = np.zeros((nz, ny, nx), dtype=np.uint32)
    for k, site in enumerate(sites):
        pz, py, px = site * scale
        d2 = (zz - pz) ** 2 + (yy - py) ** 2 + (xx - px) ** 2
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        labels[closer] = k + 1
    return labels


def membrane_mask(labels: np.ndarray, width: int = 1) -> np.ndarray:
    """Voxels whose 6-neighborhood crosses a label change, walls widened
    by dilation for ``width`` > 1. The volume border counts as a change
    (the specimen surface is stained too)."""
    mask = np.zeros(labels.shape, dtype=bool)
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        neq = labels[tuple(lo)] != labels[tuple(hi)]
        mask[tuple(lo)] |= neq
        mask[tuple(hi)] |= neq
        edge = [slice(None)] * 3
        edge[axis] = 0
        mask[tuple(edge)] = True
        edge[axis] = labels.shape[axis] - 1
        mask[tuple(edge)] = True
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
    img = np.where(mem, params.membrane_intensity, params.interior_intensity)
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
    pairs = set()
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        a = labels[tuple(lo)].ravel()
        b = labels[tuple(hi)].ravel()
        neq = a != b
        for x, y in zip(a[neq], b[neq]):
            pairs.add((min(int(x), int(y)), max(int(x), int(y))))
    return sorted(pairs)


def _coords_patch(v: ScalarVolume, member: np.ndarray) -> np.ndarray:
    coords = np.argwhere(member)
    return crop_patch(v.data, coords.min(axis=0), coords.max(axis=0))


def generate_patch_dataset(
    params: PhantomParams, n_under: int = 20, n_correct: int = 20, n_over: int = 20
) -> tuple[list[Patch], list[str]]:
    """Labeled training patches cut from one phantom.

    correct = a whole ground-truth cell; over = a random proper fragment
    of a cell (cut by a plane through its centroid); under = the union
    of 2-3 touching cells. Returns (patches, class names) aligned by
    index.
    """
    if min(n_under, n_correct, n_over) < 1:
        raise ValueError("need at least one patch per class")
    v, gt = generate_phantom(params)
    labels = gt.labels
    pairs = _touching_pairs(labels)
    if not pairs:
        raise DatasetError("phantom has no touching cell pairs; raise n_cells")
    neighbors: dict[int, set[int]] = {}
    for a, b in pairs:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    rng = np.random.default_rng(params.seed + 1)
    patches: list[Patch] = []
    classes: list[str] = []

    for i in range(n_under):
        a, b = pairs[int(rng.integers(len(pairs)))]
        group = {a, b}
        if rng.random() < 0.5:
            extra = sorted((neighbors[a] | neighbors[b]) - group)
            if extra:
                group.add(extra[int(rng.integers(len(extra)))])
        member = np.isin(labels, sorted(group))
        patches.append(Patch(_coords_patch(v, member), node_id=i, volume_id="under"))
        classes.append("under")

    for i in range(n_correct):
        c = int(rng.integers(params.n_cells)) + 1
        patches.append(
            Patch(_coords_patch(v, labels == c), node_id=i, volume_id="correct")
        )
        classes.append("correct")

    for i in range(n_over):
        frag = _random_fragment(labels, params.n_cells, rng)
        patches.append(Patch(_coords_patch(v, frag), node_id=i, volume_id="over"))
        classes.append("over")
    return patches, classes


def _random_fragment(
    labels: np.ndarray, n_cells: int, rng: np.random.Generator
) -> np.ndarray:
    """Nonempty proper subset of one cell: the cell's voxels on one side
    of a random plane through its centroid."""
    for _ in range(100):
        c = int(rng.integers(n_cells)) + 1
        member = labels == c
        coords = np.argwhere(member)
        if len(coords) < 2:
            continue
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        side = (coords - coords.mean(axis=0)) @ normal > 0
        if not side.any() or side.all():
            continue
        frag = np.zeros(labels.shape, dtype=bool)
        keep = coords[side]
        frag[keep[:, 0], keep[:, 1], keep[:, 2]] = True
        return frag
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
    """Read a patch directory back as (patches (n,32,32,32), class indices)."""
    index = os.path.join(dirpath, "index.txt")
    if not os.path.isfile(index):
        raise DatasetError(f"no index.txt in {dirpath}")
    x = []
    classes = []
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
            vol = read_volume(os.path.join(dirpath, name))
            try:
                x.append(Patch(vol.data).data)
            except ValueError as exc:
                raise DatasetError(f"{name}: {exc}") from None
            classes.append(CLASS_NAMES.index(cls))
    if not x:
        raise DatasetError(f"empty dataset in {dirpath}")
    return np.stack(x), np.array(classes, dtype=np.int64)
