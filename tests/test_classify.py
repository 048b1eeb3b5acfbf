"""Patch extraction and the two hypothesis classifiers."""

from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage as ndi

from cellforest.classify import (
    CLASS_NAMES,
    MARGIN,
    ClassProbs,
    Patch,
    cnn_probs,
    crop_patch,
    extract_patch,
    heuristic_probs,
    hypothesis_classifier,
    trilinear,
)
from cellforest.cnn import init_model
from cellforest.merging import MergeForest, MergeParams
from cellforest.volume import LabelVolume, ScalarVolume

from oracles import node_patch_reference, pixel_centers, trilinear_reference


def as_array(probs):
    return np.array(astuple(probs))


def top_class(probs):
    return CLASS_NAMES[int(np.argmax(astuple(probs)))]


def test_class_names_order():
    assert CLASS_NAMES == ("under", "correct", "over")


def test_class_probs_validation_and_argmax():
    p = ClassProbs(0.2, 0.5, 0.3)
    assert top_class(p) == "correct"
    np.testing.assert_allclose(as_array(p), [0.2, 0.5, 0.3])
    with pytest.raises(ValueError):
        ClassProbs(0.2, 0.2, 0.2)


def test_patch_validation():
    with pytest.raises(ValueError):
        Patch(np.zeros((16, 16, 16)))
    with pytest.raises(ValueError):
        Patch(np.full((32, 32, 32), 1.5))
    p = Patch(np.zeros((32, 32, 32), dtype=np.float32))
    assert p.data.dtype == np.float64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_patch_rejects_non_finite_values(bad):
    data = np.full((32, 32, 32), 0.5)
    data[3, 4, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        Patch(data)


# ---------------------------------------------------------------------------
# cropping


def test_crop_interior_box_is_a_plain_slice():
    rng = np.random.default_rng(0)
    data = rng.random((40, 40, 40))
    lo = np.array([16, 16, 16])
    hi = np.array([21, 21, 21])
    patch = crop_patch(data, lo, hi)
    # margin 2 around [16, 21] centers a 10-wide box in 32: offset 3
    np.testing.assert_array_equal(patch, data[3:35, 3:35, 3:35])


def test_crop_at_corner_replicates_edges():
    rng = np.random.default_rng(1)
    data = rng.random((8, 8, 8))
    patch = crop_patch(data, np.array([0, 0, 0]), np.array([3, 3, 3]))
    assert patch.shape == (32, 32, 32)
    # everything left of the volume replicates plane 0, beyond it plane 7
    np.testing.assert_array_equal(patch[0], patch[5])
    np.testing.assert_array_equal(patch[-1], patch[-3])
    assert set(np.unique(patch)) <= set(np.unique(data))


def test_crop_keeps_surrounding_context():
    data = np.zeros((30, 30, 30))
    data[14, 14, 14] = 1.0
    # a single-voxel box away from the bright voxel still shows it when
    # the centered window reaches it
    patch = crop_patch(data, np.array([12, 12, 12]), np.array([16, 16, 16]))
    assert patch.max() == 1.0


def test_crop_oversized_box_block_averages():
    # the box [2, 61] with its margin of 2 spans the whole 64^3 volume, so
    # the 32^3 patch downsamples by exactly 2: with pixel-center alignment
    # each voxel averages one 2x2x2 block
    rng = np.random.default_rng(2)
    data = rng.random((64, 64, 64))
    patch = crop_patch(data, np.array([2, 2, 2]), np.array([61, 61, 61]))
    expected = data.reshape(32, 2, 32, 2, 32, 2).mean(axis=(1, 3, 5))
    np.testing.assert_allclose(patch, expected, atol=1e-12)


def test_crop_oversized_constant_volume_stays_constant():
    data = np.full((50, 50, 50), 0.25)
    patch = crop_patch(data, np.array([0, 0, 0]), np.array([49, 49, 49]))
    np.testing.assert_allclose(patch, 0.25, atol=1e-12)


def test_crop_preserves_monotone_ramp_direction():
    data = np.tile(np.linspace(0.0, 1.0, 60)[:, None, None], (1, 60, 60))
    patch = crop_patch(data, np.array([0, 0, 0]), np.array([59, 59, 59]))
    assert patch.shape == (32, 32, 32)
    diffs = np.diff(patch[:, 0, 0])
    assert np.all(diffs >= 0)
    assert patch[0, 0, 0] < 0.1 and patch[-1, 0, 0] > 0.9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]),
       st.lists(st.lists(st.floats(-4.0, 70.0), min_size=1, max_size=6), min_size=3, max_size=3))
def test_trilinear_bytes_equal_scipy_order1_interpolation_at_any_coordinates(seed, dtype, axes):
    # arbitrary coordinates, inside, between and beyond the voxels: patches
    # only sample multiples of 1/64, where some rounding mistakes cancel
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(rng.integers(1, 13, size=3)).astype(dtype)
    axes = [np.array(c) for c in axes]
    ref = trilinear_reference(data, axes)
    got = trilinear(data, axes)
    assert got.dtype == data.dtype
    assert got.tobytes() == ref.tobytes()


@st.composite
def resampled_boxes(draw):
    """A float32 or float64 volume of at most 64 voxels per axis and a box in
    it whose expanded span passes PATCH_SIZE on one, two or three axes. Each
    axis's box touches the low border, the high one, both or neither, so the
    sample coordinates fall below 0 or above n - 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_big = draw(st.integers(1, 3))
    shape, lo, hi = [], [], []
    for wide in draw(st.permutations([True] * n_big + [False] * (3 - n_big))):
        n = draw(st.integers(29, 64) if wide else st.integers(1, 64))
        width = draw(st.integers(29, n) if wide else st.integers(1, min(n, 28)))
        edge = draw(st.sampled_from(["low", "high", "inside"] if width < n else ["both"]))
        start = {"low": 0, "high": n - width, "both": 0}.get(edge)
        if start is None:
            start = draw(st.integers(0, n - width))
        shape.append(n)
        lo.append(start)
        hi.append(start + width - 1)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    data = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
    keep = rng.random(shape) < draw(st.sampled_from([0.3, 0.9])) if draw(st.booleans()) else None
    return data, np.array(lo), np.array(hi), keep


@settings(max_examples=200, deadline=None)
@given(resampled_boxes())
def test_resample_bytes_equal_scipy_order1_interpolation(case):
    data, lo, hi, keep = case
    got = crop_patch(data, lo, hi, keep=None if keep is None else keep.__getitem__)
    masked = data if keep is None else np.where(keep, data, 0.0)
    ref = trilinear_reference(masked, pixel_centers(lo - MARGIN, hi - lo + 1 + 2 * MARGIN))
    assert got.dtype == data.dtype
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# patch extraction from a forest node


def two_leaf_fixture():
    rng = np.random.default_rng(3)
    values = rng.random((10, 10, 10)) * 0.5
    values[:, :, 5:] += 0.5  # right half is brighter
    labels = np.ones((10, 10, 10), dtype=np.int32)
    labels[:, :, 5:] = 2
    forest = MergeForest(2)
    forest.add_leaf(1, 500, 500.0)
    forest.add_leaf(2, 500, 500.0)
    forest.add_merge(3, 1, 2, 1000, 1000.0, 0.4)
    forest.roots = [3]
    spacing = (1.0, 1.0, 1.0)
    return ScalarVolume(values, spacing), LabelVolume(labels, spacing), forest


def test_extract_patch_leaf_and_merged_node():
    v, sv, forest = two_leaf_fixture()
    boxes = ndi.find_objects(sv.labels)
    left = extract_patch(v, forest, 1, sv, boxes, False)
    whole = extract_patch(v, forest, 3, sv, boxes, False)
    assert left.data.shape == (32, 32, 32)
    # the merged node's box spans the full volume
    assert whole.data.max() == v.data.max()


def test_extract_patch_background_masking():
    v, sv, forest = two_leaf_fixture()
    boxes = ndi.find_objects(sv.labels)
    raw = extract_patch(v, forest, 1, sv, boxes, False)
    masked = extract_patch(v, forest, 1, sv, boxes, True)
    # bright right-half context is visible raw but zeroed when masked
    assert raw.data.max() > 0.5
    assert masked.data.max() <= 0.5
    assert (masked.data == 0.0).any()


def test_extract_patch_missing_node_coverage():
    v, sv, _ = two_leaf_fixture()
    forest = MergeForest(3)
    forest.add_leaf(1, 1, 1.0)
    forest.add_leaf(2, 1, 1.0)
    forest.add_leaf(3, 1, 1.0)
    forest.roots = [1, 2, 3]
    with pytest.raises(ValueError):
        extract_patch(v, forest, 3, sv, ndi.find_objects(sv.labels), False)


@st.composite
def random_forests(draw):
    """A blocky label volume with labels 1..n, a random merge-forest over
    them and float32 or float64 intensities. One axis reaches 40 voxels,
    so large nodes take the resampling path as well as the centered one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = [draw(st.integers(1, 40)), draw(st.integers(1, 9)), draw(st.integers(1, 9))]
    shape = tuple(rng.permutation(shape))
    cell = [draw(st.integers(1, 12)) for _ in range(3)]
    n_labels = draw(st.integers(1, 12))
    coarse = rng.integers(0, n_labels, size=[-(-s // c) for s, c in zip(shape, cell)])
    for axis, c in enumerate(cell):
        coarse = np.repeat(coarse, c, axis=axis)
    labels = coarse[: shape[0], : shape[1], : shape[2]]
    labels = (np.unique(labels, return_inverse=True)[1].reshape(shape) + 1).astype(np.uint32)
    n = int(labels.max())
    forest = MergeForest(n)
    for leaf in range(1, n + 1):
        forest.add_leaf(leaf, 1, 1.0)
    roots = list(range(1, n + 1))
    for new_id in range(n + 1, n + 1 + draw(st.integers(0, n - 1))):
        a, b = (roots.pop(int(rng.integers(len(roots)))) for _ in range(2))
        forest.add_merge(new_id, a, b, 2, 2.0, 0.5)
        roots.append(new_id)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    data = rng.random(shape).astype(dtype)
    return ScalarVolume(data), LabelVolume(labels), forest


@settings(max_examples=150, deadline=None)
@given(random_forests(), st.booleans())
def test_box_bounded_extract_patch_equals_whole_volume_extraction(case, masked):
    v, sv, forest = case
    boxes = ndi.find_objects(sv.labels)
    for node_id in sorted(forest.nodes):
        got = extract_patch(v, forest, node_id, sv, boxes, masked)
        ref = node_patch_reference(v.data, sv.labels, forest.leaves_under(node_id), masked)
        assert np.array_equal(got.data.view(np.int64), ref.astype(np.float64).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(random_forests())
def test_extract_patch_mask_equals_isin(case):
    # the background mask is a lookup table indexed by label; it must keep
    # exactly the voxels np.isin keeps, over the whole volume
    v, sv, forest = case
    boxes = ndi.find_objects(sv.labels)
    keeps = []

    def spy(data, lo, hi, keep=None):
        keeps.append(keep)
        return crop_patch(data, lo, hi, keep=keep)

    with mock.patch("cellforest.classify.crop_patch", spy):
        for node_id in sorted(forest.nodes):
            extract_patch(v, forest, node_id, sv, boxes, True)
    whole = (slice(None),) * 3
    for node_id, keep in zip(sorted(forest.nodes), keeps):
        expected = np.isin(sv.labels, forest.leaves_under(node_id))
        np.testing.assert_array_equal(keep(whole), expected)


# ---------------------------------------------------------------------------
# heuristic classifier


def plane_patch():
    data = np.zeros((32, 32, 32))
    data[16, :, :] = 1.0
    return data


def shell_patch():
    data = np.zeros((32, 32, 32))
    data[0, :, :] = 1.0
    data[-1, :, :] = 1.0
    return data


# volume = v_min and a huge v_max: r_small = 1 and r_big = 1e-12, which
# leave the scores of the brightness probe alone within 1e-7
NEUTRAL_VOLUME = (1.0, 1.0, 1e12)


def test_heuristic_flags_bright_central_wall_as_under():
    probs = heuristic_probs(plane_patch(), *NEUTRAL_VOLUME)
    assert top_class(probs) == "under"
    np.testing.assert_allclose(
        as_array(probs), [0.57371445, 0.36581649, 0.06046906], atol=1e-7
    )


def test_heuristic_prefers_correct_for_dark_interior():
    probs = heuristic_probs(shell_patch(), *NEUTRAL_VOLUME)
    assert top_class(probs) == "correct"
    assert probs.p_correct > probs.p_under
    assert probs.p_correct > probs.p_over


def test_heuristic_flags_tiny_volume_as_over():
    probs = heuristic_probs(shell_patch(), 1.0, 100.0, 1000.0)
    assert top_class(probs) == "over"
    np.testing.assert_allclose(
        as_array(probs), [0.01314936, 0.1020408, 0.88480984], atol=1e-7
    )


def test_heuristic_large_volume_raises_under_score():
    small = heuristic_probs(plane_patch(), 10.0, 100.0, 1000.0)
    large = heuristic_probs(plane_patch(), 5000.0, 100.0, 1000.0)
    assert large.p_under > small.p_under


def test_heuristic_constant_patch_is_correct():
    probs = heuristic_probs(np.full((32, 32, 32), 0.3), *NEUTRAL_VOLUME)
    assert top_class(probs) == "correct"


def test_heuristic_probabilities_always_valid():
    rng = np.random.default_rng(4)
    for _ in range(10):
        probs = heuristic_probs(rng.random((32, 32, 32)), *NEUTRAL_VOLUME)
        arr = as_array(probs)
        assert np.all(arr > 0)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# network-backed classifier and the resolver-facing facade


def tiny_cnn():
    return init_model(input_size=32, conv_channels=(2, 2), fc_units=8, kernel_size=3, seed=5)


def test_cnn_probs_valid_distribution():
    model = tiny_cnn()
    probs = cnn_probs(model, np.random.default_rng(6).random((32, 32, 32)))
    assert as_array(probs).sum() == pytest.approx(1.0, abs=1e-9)


def test_cnn_probs_uniform_for_zero_weights():
    model = tiny_cnn()
    for p in model.params.values():
        p[...] = 0.0
    probs = cnn_probs(model, np.zeros((32, 32, 32)))
    np.testing.assert_allclose(as_array(probs), 1.0 / 3.0, atol=1e-12)


def test_hypothesis_classifier_heuristic_paths():
    v, sv, forest = two_leaf_fixture()
    loose = hypothesis_classifier(v, forest, sv, MergeParams(v_min=1.0, v_max=5000.0))
    strict = hypothesis_classifier(v, forest, sv, MergeParams(v_min=2000.0, v_max=5000.0))
    # the heuristic sees the node's voxels with the background masked
    patch = extract_patch(v, forest, 3, sv, ndi.find_objects(sv.labels), True)
    expect = heuristic_probs(patch.data, forest.nodes[3].volume, 2000.0, 5000.0)
    assert as_array(strict(3)) == pytest.approx(as_array(expect))
    # node volume below v_min pushes the over-segmentation score up
    assert strict(1).p_over > loose(1).p_over


def test_hypothesis_classifier_uses_network_when_given():
    v, sv, forest = two_leaf_fixture()
    model = tiny_cnn()
    classify = hypothesis_classifier(v, forest, sv, MergeParams(1.0, 5000.0), model)
    # the network sees the raw context
    patch = extract_patch(v, forest, 2, sv, ndi.find_objects(sv.labels), False)
    expect = cnn_probs(model, patch.data)
    assert as_array(classify(2)) == pytest.approx(as_array(expect), abs=1e-12)
