"""Hypothesis patches and the classifiers that score them.

Every merge-forest node can be rendered as a 32^3 intensity patch:
the node's bounding box, expanded by a small margin, either centered in
the patch (with edge-replicated padding) or trilinearly downsampled when
it is larger than the patch. The resample is scipy's order-1 interpolation
with nearest-edge extension, to the bit, in numpy: per axis the two taps
floor(c) and floor(c) + 1 are clipped into the volume (not the coordinate),
w0 = 1 - (c - floor(c)) and w1 = 1 - w0, and each sample sums v * wz * wy *
wx over the eight corners from 0.0, x fastest. Two classifiers map patches
to the three hypothesis classes *under-segmentation*, *correct cell* and
*over-segmentation*: the trained network from :mod:`cellforest.cnn`,
which sees the raw context its training patches had, and a fixed
heuristic that needs no training and sees the node's own voxels only.

Heuristic score formula (softmax over three linear scores):

    bright  = fraction of voxels above 0.5 in the central 10^3 window of
              the min-max renormalized patch
    r_small = clamp(volume / v_min, 0, 1)
    r_big   = clamp(volume / v_max, 0, 1)

    z_under   = 25 * (bright - 0.05) + r_big
    z_correct = 0.8
    z_over    = 4 * (1 - r_small) - 1

A membrane crossing the patch center raises ``bright`` and flags
under-segmentation; a volume well below ``v_min`` flags a fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage as ndi

from .cnn import PATCH_SIZE, CnnModel, predict_probs, softmax
from .merging import MergeForest, MergeParams
from .volume import LabelVolume, ScalarVolume, normalize

MARGIN = 2  # voxels of context added around a node's box on every side
CLASS_NAMES = ("under", "correct", "over")


@dataclass
class ClassProbs:
    """Probabilities for under-segmentation / correct cell / over-segmentation."""

    p_under: float
    p_correct: float
    p_over: float

    def __post_init__(self):
        total = self.p_under + self.p_correct + self.p_over
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"class probabilities must sum to 1, got {total}")


@dataclass
class Patch:
    """A validated 32^3 intensity crop."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.check(self.data)

    @staticmethod
    def check(data: np.ndarray) -> None:
        """Raise ValueError unless ``data``, of any real dtype, would make a valid patch."""
        if data.shape != (PATCH_SIZE, PATCH_SIZE, PATCH_SIZE):
            raise ValueError(f"patch must be {PATCH_SIZE}^3, got {data.shape}")
        if not (data.min() >= 0.0 and data.max() <= 1.0):  # a NaN fails both
            raise ValueError("patch values must be finite and lie in [0, 1]")


def trilinear(data: np.ndarray, axes: list) -> np.ndarray:
    """``data`` sampled at the grid of the (z, y, x) coordinate arrays ``axes``,
    in its dtype, by the rule in the module docstring. The products are formed
    in stages: the z taps of whole planes, then their y taps, then x."""
    taps = []  # per axis: the two clipped taps and their weights, broadcastable
    for a, c in enumerate(axes):
        i = np.floor(c)
        w = (1.0 - (c - i)).reshape((-1,) + (1,) * (2 - a))
        i = i.astype(np.int64)
        taps.append([(np.clip(i, 0, data.shape[a] - 1), w),
                     (np.clip(i + 1, 0, data.shape[a] - 1), 1.0 - w)])
    out = np.zeros([len(c) for c in axes])
    for iz, wz in taps[0]:
        z = data[iz] * wz
        for iy, wy in taps[1]:
            zy = z[:, iy] * wy
            for ix, wx in taps[2]:
                out += np.take(zy, ix, axis=2) * wx
    return out.astype(data.dtype, copy=False)


def crop_patch(data: np.ndarray, lo: np.ndarray, hi: np.ndarray,
               keep: Callable[[tuple], np.ndarray] | None = None) -> np.ndarray:
    """Render the box [lo, hi] (inclusive, (z, y, x) order) as a PATCH_SIZE^3 patch.

    The box is first expanded by ``MARGIN`` on every side. If the result
    fits, it is centered and out-of-volume voxels replicate the nearest
    edge; otherwise it is resampled to PATCH_SIZE^3 by :func:`trilinear` at
    pixel-center-aligned coordinates (scipy's order-1 ``nearest`` rule, to the
    bit: clipped taps, w1 = 1 - w0, corners summed x fastest). ``keep`` maps the
    window of ``data`` the rendering reads (a tuple of slices) to a mask
    of it; rejected voxels read as zeros.
    """
    lo_e = np.asarray(lo, dtype=np.int64) - MARGIN
    hi_e = np.asarray(hi, dtype=np.int64) + MARGIN
    span = hi_e - lo_e + 1
    shape = np.array(data.shape)
    fits = np.all(span <= PATCH_SIZE)
    if fits:
        starts = lo_e - (PATCH_SIZE - span) // 2
        w0, w1 = np.clip(starts, 0, shape - 1), np.clip(starts + PATCH_SIZE - 1, 0, shape - 1)
    else:  # the taps stay within one voxel of the expanded box
        w0, w1 = np.maximum(lo_e - 1, 0), np.minimum(hi_e + 1, shape - 1)
    window = tuple(slice(a, b + 1) for a, b in zip(w0, w1))
    local = data[window] if keep is None else np.where(keep(window), data[window], 0.0)
    if fits:
        idx = [np.clip(starts[a] + np.arange(PATCH_SIZE), 0, shape[a] - 1) - w0[a]
               for a in range(3)]
        return local[np.ix_(*idx)]
    return trilinear(local, [lo_e[a] + (np.arange(PATCH_SIZE) + 0.5) * span[a] / PATCH_SIZE
                             - 0.5 - w0[a] for a in range(3)])


def union_box(boxes: list, labels, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive (lo, hi) corners, (z, y, x) order, of the union of the boxes of
    ``labels``, where ``boxes = ndi.find_objects(volume)``. Labels without voxels are
    skipped; ValueError, naming ``name``, if no label has any."""
    found = [boxes[i - 1] for i in labels if 0 < i <= len(boxes) and boxes[i - 1]]
    if not found:
        raise ValueError(f"{name} covers no voxels")
    lo = np.min([[s.start for s in box] for box in found], axis=0)
    return lo, np.max([[s.stop for s in box] for box in found], axis=0) - 1


def extract_patch(
    v: ScalarVolume,
    forest: MergeForest,
    node_id: int,
    supervoxels: LabelVolume,
    boxes: list,
    mask_background: bool,
) -> Patch:
    """Patch for one forest node, cropped around its voxels.

    The node's box is the union of its leaves' boxes, where ``boxes =
    ndi.find_objects(supervoxels.labels)``. With ``mask_background`` the
    intensities outside the node's own voxels are zeroed before cropping;
    otherwise the raw surrounding context is kept.
    """
    leaves = forest.leaves_under(node_id)
    lo, hi = union_box(boxes, leaves, f"forest node {node_id}")
    member = np.bincount(leaves, minlength=len(boxes) + 1) > 0  # a table indexed by label
    keep = (lambda w: member[supervoxels.labels[w]]) if mask_background else None
    return Patch(np.ascontiguousarray(crop_patch(v.data, lo, hi, keep=keep)))


def heuristic_probs(
    patch_data: np.ndarray, volume_um3: float, v_min: float, v_max: float
) -> ClassProbs:
    """Hand-tuned logistic over interior brightness and volume ratios.

    See the module docstring for the exact formula. Works without any
    training run, which keeps the resolver testable independently of the
    network.
    """
    q = normalize(ScalarVolume(patch_data)).data
    c0 = (q.shape[0] - 10) // 2
    core = q[c0 : c0 + 10, c0 : c0 + 10, c0 : c0 + 10]
    bright = float(np.mean(core > 0.5))
    r_small = min(1.0, max(0.0, volume_um3 / v_min))
    r_big = min(1.0, max(0.0, volume_um3 / v_max))

    z = np.array([25.0 * (bright - 0.05) + r_big, 0.8, 4.0 * (1.0 - r_small) - 1.0])
    return ClassProbs(*softmax(z).tolist())


def cnn_probs(model: CnnModel, patch_data: np.ndarray) -> ClassProbs:
    probs = predict_probs(model, np.asarray(patch_data, dtype=np.float64)[None])[0]
    return ClassProbs(float(probs[0]), float(probs[1]), float(probs[2]))


def hypothesis_classifier(
    v: ScalarVolume,
    forest: MergeForest,
    supervoxels: LabelVolume,
    params: MergeParams,
    model: CnnModel | None = None,
) -> Callable[[int], ClassProbs]:
    """Bind a patch-level classifier to a concrete volume and forest.

    Returns a pure ``node_id -> ClassProbs`` callable for the resolver:
    the network when a model is given, otherwise the heuristic, fed the
    node volume against the bounds in ``params``.

    The network sees raw context, matching its training patches, while
    the heuristic sees the node's own voxels with the surroundings
    zeroed: its central-window probe would otherwise read neighbouring
    cells' walls for nodes whose bounding-box centre falls outside the
    node (flat cells cut diagonally by the tessellation).
    """
    boxes = ndi.find_objects(supervoxels.labels)

    def classify(node_id: int) -> ClassProbs:
        patch = extract_patch(v, forest, node_id, supervoxels, boxes, model is None)
        if model is not None:
            return cnn_probs(model, patch.data)
        volume = forest.nodes[node_id].volume
        return heuristic_probs(patch.data, volume, params.v_min, params.v_max)

    return classify
