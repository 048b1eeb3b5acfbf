import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.preprocess import preprocess
from cellforest.volume import LabelVolume, ScalarVolume
from cellforest.watershed import (
    MinimaSet,
    compact_labels,
    find_local_minima,
    seeded_watershed,
)

from oracles import flood_reference, minima_reference


def as_volume(data):
    return ScalarVolume(np.asarray(data, dtype=np.float64))


def minima_labels(v):
    return find_local_minima(v).seed_labels


def test_monotone_ramp_single_corner_minimum():
    x = np.arange(4)
    data = x[:, None, None] + 10 * x[None, :, None] + 100 * x[None, None, :]
    m = find_local_minima(as_volume(data / data.max()))
    assert len(m) == 1
    np.testing.assert_array_equal(np.argwhere(m.seed_labels == 1), [[0, 0, 0]])


def test_constant_volume_one_component_spanning_all():
    m = find_local_minima(as_volume(np.full((3, 4, 2), 0.5)))
    assert len(m) == 1
    assert np.all(m.seed_labels == 1)
    assert m.plateau_values[0] == 0.5


def test_profile_31323_two_minima():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    assert len(m) == 2
    np.testing.assert_array_equal(m.seed_labels[0, 0], [0, 1, 0, 2, 0])
    np.testing.assert_array_equal(m.plateau_values, [1.0, 2.0])


def test_plateau_touching_descent_rejected():
    # the 2-voxel plateau of value 1 descends to 0 at the right edge
    data = np.array([3, 1, 1, 0, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    np.testing.assert_array_equal(m.seed_labels[0, 0], [0, 0, 0, 1, 0])


@pytest.mark.parametrize("seed", range(8))
def test_minima_match_reference_on_random_u8(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 6, (5, 6, 4)).astype(float) / 5.0
    np.testing.assert_array_equal(minima_labels(as_volume(data)), minima_reference(data))


def test_minima_components_accessor():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    comps = find_local_minima(as_volume(data)).components()
    assert len(comps) == 2
    coords, value = comps[0]
    np.testing.assert_array_equal(coords, [[1, 0, 0]])  # (x, y, z)
    assert value == 1.0


def test_watershed_single_seed_floods_everything():
    rng = np.random.default_rng(2)
    # sorted values in scan order: every voxel except the first has a
    # lower 26-neighbor, so the origin is the only local minimum
    data = np.sort(rng.random(64)).reshape(4, 4, 4)
    v = ScalarVolume(data)
    m = find_local_minima(v)
    assert len(m) == 1
    out = seeded_watershed(v, m)
    assert np.all(out.labels == 1)


def test_watershed_profile_fifo_tiebreak():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    v = as_volume(data)
    out = seeded_watershed(v, find_local_minima(v))
    # the central barrier voxel joins the flood queued first
    np.testing.assert_array_equal(out.labels[0, 0], [1, 1, 1, 2, 2])
    np.testing.assert_array_equal(
        out.labels, flood_reference(data, find_local_minima(v).seed_labels)
    )


def test_watershed_3x3_two_basins():
    data = np.array([[5, 1, 5], [5, 5, 5], [5, 2, 5]], dtype=float).reshape(1, 3, 3)
    v = as_volume(data)
    m = find_local_minima(v)
    assert len(m) == 2
    out = seeded_watershed(v, m)
    assert set(np.unique(out.labels)) == {1, 2}
    np.testing.assert_array_equal(out.labels, flood_reference(data, m.seed_labels))


def test_watershed_requires_seeds():
    with pytest.raises(ValueError):
        seeded_watershed(
            as_volume(np.zeros((2, 2, 2))),
            MinimaSet(np.zeros((2, 2, 2), dtype=np.int32), np.empty(0)),
        )


def test_watershed_full_coverage_and_seed_fidelity():
    rng = np.random.default_rng(17)
    data = rng.integers(0, 9, (6, 6, 6)).astype(float) / 8.0
    v = as_volume(data)
    m = find_local_minima(v)
    out = seeded_watershed(v, m)
    assert np.all(out.labels > 0)
    assert len(np.unique(out.labels)) == len(m)
    seeded = m.seed_labels > 0
    np.testing.assert_array_equal(out.labels[seeded], m.seed_labels[seeded])


@pytest.mark.parametrize("seed", range(10))
def test_watershed_matches_flood_reference_tied_values(seed):
    rng = np.random.default_rng(100 + seed)
    data = rng.integers(0, 5, (4, 5, 3)).astype(float) / 4.0
    v = as_volume(data)
    m = find_local_minima(v)
    np.testing.assert_array_equal(
        seeded_watershed(v, m).labels, flood_reference(data, m.seed_labels)
    )


@pytest.mark.parametrize("seed", range(10))
def test_watershed_matches_flood_reference_distinct_values(seed):
    rng = np.random.default_rng(200 + seed)
    data = rng.permutation(np.arange(60, dtype=np.float64)).reshape(3, 4, 5) / 59.0
    v = as_volume(data)
    m = find_local_minima(v)
    np.testing.assert_array_equal(
        seeded_watershed(v, m).labels, flood_reference(data, m.seed_labels)
    )


@st.composite
def leveled_volumes(draw):
    """Volumes up to 6^3 (singleton axes allowed) on 2-6 intensity levels."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    top = draw(st.integers(1, 5))
    levels = draw(arrays(np.int8, shape, elements=st.integers(0, top)))
    return levels.astype(np.float64) / top


@settings(max_examples=300, deadline=None)
@given(leveled_volumes())
def test_watershed_matches_flood_reference_property(data):
    v = as_volume(data)
    m = find_local_minima(v)
    np.testing.assert_array_equal(
        seeded_watershed(v, m).labels, flood_reference(data, m.seed_labels)
    )


def test_watershed_labels_pinned_on_preprocessed_phantom():
    # A 48^3 phantom has tens of thousands of tied voxels, far beyond the
    # reach of the quadratic reference; the digest was recorded with the
    # earlier flood that queued (value, counter, voxel, label) tuples and
    # labelled each voxel at its first pop.
    img, _ = generate_phantom(
        PhantomParams(
            dims=(48, 48, 48), n_cells=12, membrane_width=1,
            noise_sigma=0.05, blur_sigma=0.6, seed=11,
        )
    )
    pre = preprocess(img)
    labels = seeded_watershed(pre, find_local_minima(pre)).labels
    assert labels.dtype == np.int32 and labels.flags.c_contiguous
    digest = hashlib.sha256(labels.astype("<i4").tobytes()).hexdigest()
    assert digest == "4582f83fd335bf72b9b0afc3a75fbdcc4c6760ae8d07ee90305c0b341600651f"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_watershed_rejects_non_finite(bad):
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    data[0, 0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        seeded_watershed(as_volume(data), m)


def test_compact_labels_scan_order():
    labels = np.array([5, 9, 5, 9]).reshape(1, 1, 4)
    out = compact_labels(LabelVolume(labels))
    np.testing.assert_array_equal(out.labels[0, 0], [1, 2, 1, 2])


def test_compact_labels_identity_when_contiguous():
    labels = np.array([1, 2, 1, 3]).reshape(1, 1, 4)
    out = compact_labels(LabelVolume(labels))
    np.testing.assert_array_equal(out.labels, labels)


def test_compact_labels_background_only():
    labels = np.zeros((2, 2, 2), dtype=np.int32)
    out = compact_labels(LabelVolume(labels))
    np.testing.assert_array_equal(out.labels, labels)
    assert out.max_label() == 0
