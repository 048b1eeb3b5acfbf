import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage as ndi

from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.preprocess import PreprocessParams, gaussian_smooth, iterative_closing
from cellforest.volume import ScalarVolume, normalize
from cellforest.watershed import MinimaSet, find_local_minima, seeded_watershed

from oracles import (
    flood_heap_reference,
    flood_reference,
    minima_ndi_reference,
    minima_reference,
)


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


def test_profile_31323_two_minima():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    assert len(m) == 2
    np.testing.assert_array_equal(m.seed_labels[0, 0], [0, 1, 0, 2, 0])


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


def test_minima_seed_labels_in_zyx_index_order():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    assert len(m) == 2
    np.testing.assert_array_equal(np.argwhere(m.seed_labels == 1), [[0, 0, 1]])  # (z, y, x)


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
            MinimaSet(np.zeros((2, 2, 2), dtype=np.int32)),
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


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(*[st.integers(1, 20)] * 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2, 3, 6]),
)
def test_minima_match_ndi_reference_property(shape, seed, levels):
    # shapes past one or two chunks of the box filter; quantized values tie
    data = np.random.default_rng(seed).random(shape)
    if levels:
        data = np.round(data * levels) / levels
    m = find_local_minima(as_volume(data))
    labels = minima_ndi_reference(data)
    np.testing.assert_array_equal(m.seed_labels, labels)
    assert len(m) == labels.max(initial=0)


def test_minima_reject_non_finite():
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    for bad in (np.nan, np.inf, -np.inf):
        data[0, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            find_local_minima(as_volume(data))


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
    pre = iterative_closing(gaussian_smooth(img, (1.0, 1.0, 1.0)), 3)
    labels = seeded_watershed(pre, find_local_minima(pre)).labels
    assert labels.dtype == np.int32 and labels.flags.c_contiguous
    digest = hashlib.sha256(labels.astype("<i4").tobytes()).hexdigest()
    assert digest == "4582f83fd335bf72b9b0afc3a75fbdcc4c6760ae8d07ee90305c0b341600651f"


@pytest.fixture(scope="module")
def segment_96():
    """The benchmark's segment_96 input (phantom seed 1), preprocessed as
    ``segment`` does, and its minima."""
    img, _ = generate_phantom(
        PhantomParams(
            dims=(96, 96, 96), n_cells=90, membrane_width=2, attenuation=0.99,
            noise_sigma=0.05, blur_sigma=0.6, seed=1,
        )
    )
    p = PreprocessParams()
    pre = iterative_closing(gaussian_smooth(normalize(img), p.sigma), p.r_cl_max)
    return pre, find_local_minima(pre)


def test_watershed_labels_pinned_on_segment_96_phantom(segment_96):
    # recorded with the flood that ranked by np.unique and held 62 bytes
    # per voxel; the CLI writes the same supervoxels for this phantom
    pre, m = segment_96
    labels = seeded_watershed(pre, m).labels
    digest = hashlib.sha256(labels.astype("<i4").tobytes()).hexdigest()
    assert digest == "0a7e4b6ede63d1e3b4d845bc92b129ee3530b67374de71c07fb18493401bfd91"


def test_watershed_peak_memory_per_voxel(segment_96):
    # the flood's working arrays above its inputs, output included; it was
    # 62 bytes per voxel before the int32 ranks, blocked passes and early frees
    pre, m = segment_96
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seeded_watershed(pre, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_voxel = (peak - before) / pre.data.size
    assert per_voxel <= 24, f"flood peak {per_voxel:.1f} bytes per voxel"


@st.composite
def signed_leveled_volumes(draw):
    """Volumes up to 6^3 on levels with both signs, -0.0 next to 0.0 and the
    smallest subnormals, so ranking by the bits must fold the sign."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    tiny = np.nextafter(0.0, 1.0)
    levels = [-1e300, -1.0, -0.5, -tiny, -0.0, 0.0, tiny, 0.5, 1.0]
    return draw(arrays(np.float64, shape, elements=st.sampled_from(levels)))


@settings(max_examples=300, deadline=None)
@given(signed_leveled_volumes())
def test_watershed_matches_flood_reference_on_signed_values(data):
    v = as_volume(data)
    m = find_local_minima(v)
    np.testing.assert_array_equal(
        seeded_watershed(v, m).labels, flood_reference(data, m.seed_labels)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_watershed_rejects_non_finite(bad):
    data = np.array([3, 1, 3, 2, 3], dtype=float).reshape(1, 1, 5)
    m = find_local_minima(as_volume(data))
    data[0, 0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        seeded_watershed(as_volume(data), m)


# --- the order model: pits, hosts, generations, ties ------------------------


def flood_case(data):
    """Production labels, checked against both references, and the trace."""
    v = as_volume(data)
    m = find_local_minima(v)
    out = seeded_watershed(v, m).labels
    ref, trace = flood_heap_reference(data, m.seed_labels, trace=True)
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(out, flood_reference(data, m.seed_labels))
    return out, m, trace


def pit_hosts(trace):
    """Host (flat index) of each 6-component of pit voxels, which pop at a
    higher water level than their own rank."""
    comps, n = ndi.label(trace["level"] > trace["rank"])
    hosts = []
    for c in range(1, n + 1):
        voxels = np.flatnonzero(comps.ravel() == c)
        first = voxels[np.argmin(trace["order"].ravel()[voxels])]
        hosts.append(int(trace["parent"].ravel()[first]))
    return hosts


def plane(rows):
    return np.array(rows, dtype=float)[None] / 10.0


def test_watershed_pit_at_a_6_minimum_that_is_no_26_minimum():
    # (1, 1) has only higher face neighbours, but the seed (0, 0) is its
    # diagonal neighbour, so it is no seed. It floods from its host
    # (1, 2), the lowest voxel of its rim, which seed 2 reaches first.
    data = plane([[0, 5, 6, 6, 6],
                  [5, 1, 4, 3, 2],
                  [6, 5, 6, 6, 1],
                  [6, 6, 6, 6, 0],
                  [6, 6, 6, 6, 6]])
    out, m, trace = flood_case(data)
    assert len(m) == 2 and m.seed_labels[0, 1, 1] == 0
    assert pit_hosts(trace) == [np.ravel_multi_index((0, 1, 2), data.shape)]
    assert out[0, 1, 1] == 2


def test_watershed_nested_pit_inside_a_pit_zone():
    # The pit (1, 1..3) floods from host (0, 1) in the order 3, 4, 2: the
    # 2 is a pit inside the pit. It takes label 1, although the voxel
    # below it is a label-2 voxel of the spill plateau.
    data = plane([[0, 6, 6, 6, 6, 6],
                  [6, 3, 4, 2, 6, 6],
                  [6, 6, 6, 6, 1, 6],
                  [6, 6, 6, 6, 6, 6]])
    out, _, trace = flood_case(data)
    assert pit_hosts(trace) == [1]
    assert list(np.argsort(trace["order"][0, 1, 1:4])) == [0, 1, 2]
    assert list(trace["rank"][0, 1, 1:4]) == [3, 4, 2]
    assert out[0, 1, 3] == 1 and out[0, 2, 3] == 2


def test_watershed_two_pits_share_one_host():
    # (1, 1) and (1, 3) are separate pits, each next to its own seed by a
    # diagonal; both flood from (1, 2) in one sub-flood.
    data = plane([[1, 7, 0, 7, 1],
                  [7, 2, 6, 3, 7],
                  [7, 7, 7, 7, 7]])
    out, m, trace = flood_case(data)
    assert len(m) == 3
    host = np.ravel_multi_index((0, 1, 2), data.shape)
    assert pit_hosts(trace) == [host, host]
    np.testing.assert_array_equal(out[0, 1], [1, 2, 2, 2, 3])


def test_watershed_plateau_at_the_spill_level():
    # A corridor at the spill level 0.5 runs from seed 1 (x = 0) to seed 2
    # (x = 15) through a pit at x = 6 whose seed is a corner neighbour.
    # The pit's host x = 5 is generation 4; the sub-flood pushes x = 7 as
    # generation 5, ahead of seed 2's side, and (0, 0, 8) above the
    # corridor compares x = 8 (label 1) with the branch (0, 0, 9) (label 2)
    # by those generations.
    data = np.full((2, 3, 16), 0.9)
    data[0, 1, 1:15] = 0.5
    data[0, 1, [0, 15]] = 0.0
    data[0, 1, 6] = 0.2
    data[1, 2, 7] = 0.1
    data[0, 0, 9] = 0.5
    data[0, 0, 8] = 0.7
    out, m, trace = flood_case(data)
    assert len(m) == 3
    assert pit_hosts(trace) == [np.ravel_multi_index((0, 1, 5), data.shape)]
    np.testing.assert_array_equal(out[0, 1, 5:10], [1, 1, 1, 1, 2])
    assert out[0, 0, 9] == 2 and out[0, 0, 8] == 1


def test_watershed_tied_lowest_neighbours_with_different_labels():
    # The 0.9 voxel's two neighbours tie on level and generation (0.4,
    # gen 0) but carry different labels; the first difference along their
    # parent chains decides: a lower grandparent, else seed scan order.
    for profile, middle in (
        ([0, 1, 4, 9, 4, 2, 0], 1),
        ([0, 2, 4, 9, 4, 1, 0], 2),
        ([0, 2, 4, 9, 4, 2, 0], 1),
    ):
        out, _, _ = flood_case(np.array(profile, dtype=float).reshape(1, 1, 7) / 10)
        np.testing.assert_array_equal(out[0, 0], [1, 1, 1, middle, 2, 2, 2])


def test_watershed_constant_volume():
    out, m, _ = flood_case(np.full((3, 4, 5), 0.25))
    assert len(m) == 1 and np.all(out == 1)


@st.composite
def smoothed_volumes(draw):
    """Smoothed noise quantized to 3-40 levels, up to 24^3: pits, plateaus
    at spill levels and ties between seeds are common."""
    shape = draw(st.tuples(st.integers(1, 24), st.integers(1, 24), st.integers(1, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = ndi.gaussian_filter(rng.random(shape), draw(st.floats(0.5, 2.0)))
    levels = draw(st.integers(3, 40))
    return np.round((data - data.min()) / (np.ptp(data) or 1.0) * levels) / levels


@settings(max_examples=150, deadline=None)
@given(smoothed_volumes())
def test_watershed_matches_heap_reference_on_smoothed_volumes(data):
    v = as_volume(data)
    m = find_local_minima(v)
    np.testing.assert_array_equal(
        seeded_watershed(v, m).labels, flood_heap_reference(data, m.seed_labels)
    )
