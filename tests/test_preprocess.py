import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage as ndi

from cellforest import parallel
from cellforest import preprocess as pp
from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.preprocess import (
    PreprocessParams,
    ball_boxes,
    ball_offsets,
    box_filter,
    gaussian_kernel_1d,
    gaussian_smooth,
    iterative_closing,
)
from cellforest.volume import ScalarVolume, normalize

from checks import peak_bytes_per
from oracles import ball_ndi_reference, blur_reference, closing_ndi_reference, morph_reference

def ball_to_offsets(radius):
    return np.argwhere(ball_offsets(radius)) - radius


def ball_filter(data, radius, op):
    """``op`` (np.maximum: dilation, np.minimum: erosion) over the ball of ``radius``."""
    return box_filter(data, ball_boxes(radius), op)


def test_kernel_normalized_and_symmetric():
    k = gaussian_kernel_1d(1.0)
    assert len(k) == 7  # radius ceil(3 sigma)
    np.testing.assert_allclose(k.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(k, k[::-1])


def test_smooth_constant_preserved():
    v = ScalarVolume(np.full((6, 5, 4), 0.5))
    out = gaussian_smooth(v, (1.3, 0.7, 2.0))
    np.testing.assert_allclose(out.data, 0.5, atol=1e-12)


def test_smooth_zero_sigma_is_identity():
    rng = np.random.default_rng(1)
    v = ScalarVolume(rng.random((4, 5, 6)))
    out = gaussian_smooth(v, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(out.data, v.data)


def test_smooth_impulse_matches_dense_oracle():
    data = np.zeros((11, 11, 11))
    data[5, 5, 5] = 1.0
    out = gaussian_smooth(ScalarVolume(data), (1.0, 1.0, 1.0))
    k = gaussian_kernel_1d(1.0)
    np.testing.assert_allclose(out.data[5, 5, 5], k[3] ** 3, atol=1e-12)
    np.testing.assert_allclose(out.data, blur_reference(data, (1.0, 1.0, 1.0)), atol=1e-12)


def test_smooth_random_matches_dense_oracle():
    rng = np.random.default_rng(7)
    data = rng.random((6, 7, 5))
    out = gaussian_smooth(ScalarVolume(data), (0.8, 1.1, 0.6))
    np.testing.assert_allclose(out.data, blur_reference(data, (0.8, 1.1, 0.6)), atol=1e-12)


def test_smooth_interior_of_constant_region_unchanged():
    rng = np.random.default_rng(3)
    data = rng.random((16, 16, 16))
    data[2:14, 2:14, 2:14] = 0.37
    out = gaussian_smooth(ScalarVolume(data), (1.0, 1.0, 1.0))
    # deeper than the kernel radius (3), the constant plateau is untouched
    np.testing.assert_allclose(out.data[5:11, 5:11, 5:11], 0.37, atol=1e-6)


def test_smooth_commutes_with_intensity_shift():
    rng = np.random.default_rng(11)
    data = rng.random((5, 6, 7)) * 0.5 + 0.1
    base = gaussian_smooth(ScalarVolume(data), (1.0, 1.0, 1.0)).data
    shifted = gaussian_smooth(ScalarVolume(data + 0.2), (1.0, 1.0, 1.0)).data
    np.testing.assert_allclose(shifted, base + 0.2, atol=1e-9)


def test_ball_offsets_radius_one():
    offs = {tuple(o) for o in ball_to_offsets(1)}
    assert offs == {
        (0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0),
    }


def test_dilate_constant_unchanged():
    v = ScalarVolume(np.full((4, 4, 4), 0.3))
    np.testing.assert_array_equal(ball_filter(v.data, 2, np.maximum), v.data)


def test_closing_anti_extensive_components():
    rng = np.random.default_rng(5)
    v = ScalarVolume(rng.random((5, 5, 5)))
    closed = ball_filter(ball_filter(v.data, 1, np.maximum), 1, np.minimum)
    assert np.all(closed >= v.data - 1e-12)


def test_dilate_single_voxel_matches_oracle():
    data = np.zeros((5, 5, 5))
    data[2, 2, 2] = 1.0
    out = ball_filter(data, 1, np.maximum)
    assert out.sum() == 7.0  # the 6-neighbors plus the center
    np.testing.assert_array_equal(
        out, morph_reference(data, ball_to_offsets(1), np.max)
    )


@pytest.mark.parametrize("radius", [1, 2])
def test_morphology_matches_oracle_on_random(radius):
    rng = np.random.default_rng(radius)
    data = rng.random((6, 5, 7))
    offs = ball_to_offsets(radius)
    np.testing.assert_array_equal(
        ball_filter(data, radius, np.maximum),
        morph_reference(data, offs, np.max),
    )
    np.testing.assert_array_equal(
        ball_filter(data, radius, np.minimum),
        morph_reference(data, offs, np.min),
    )


def test_iterative_closing_constant_unchanged():
    v = ScalarVolume(np.full((5, 5, 5), 0.8))
    np.testing.assert_array_equal(iterative_closing(v, 3).data, v.data)


def test_iterative_closing_fills_plane_gap():
    data = np.zeros((3, 9, 9))
    data[1, :, :] = 1.0
    data[1, 4, 4] = 0.0  # one dark gap voxel in a bright plane
    out = iterative_closing(ScalarVolume(data), 3)
    assert out.data[1, 4, 4] == 1.0


def test_iterative_closing_extensive():
    rng = np.random.default_rng(9)
    v = ScalarVolume(rng.random((6, 6, 6)))
    out = iterative_closing(v, 3)
    assert np.all(out.data >= v.data - 1e-12)
    assert np.all(out.data <= 1.0)


def test_closing_idempotent_per_radius():
    rng = np.random.default_rng(13)
    v = ScalarVolume(rng.random((6, 6, 6)))
    for r in (1, 2):
        close = lambda a: ball_filter(ball_filter(a, r, np.maximum), r, np.minimum)
        once = close(v.data)
        np.testing.assert_allclose(close(once), once, atol=1e-12)


def test_closing_commutes_with_intensity_shift():
    rng = np.random.default_rng(15)
    data = rng.random((5, 5, 5)) * 0.5
    base = iterative_closing(ScalarVolume(data), 2).data
    shifted = iterative_closing(ScalarVolume(data + 0.3), 2).data
    np.testing.assert_allclose(shifted, base + 0.3, atol=1e-12)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_params_reject_negative_or_non_finite_sigma(bad):
    with pytest.raises(ValueError, match="finite non-negative"):
        PreprocessParams(sigma=(1.0, bad, 1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        PreprocessParams(r_cl_max=0)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_smooth_rejects_negative_or_non_finite_sigma(bad):
    v = ScalarVolume(np.full((4, 4, 4), 0.5))
    for sigma in ((bad, 0.0, 0.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite non-negative"):
            gaussian_smooth(v, sigma)


# --- the separable box filter behind dilation, erosion and minima -----------


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6])
def test_ball_is_the_union_of_its_boxes(radius):
    boxes = ball_boxes(radius)
    union = np.zeros_like(ball_offsets(radius))
    for cz, cy, cx in boxes:
        r = radius
        union[r - cz : r + cz + 1, r - cy : r + cy + 1, r - cx : r + cx + 1] = True
    np.testing.assert_array_equal(union, ball_offsets(radius))


def test_ball_box_counts():
    assert [len(ball_boxes(r)) for r in (1, 2, 3)] == [3, 4, 6]


@st.composite
def morph_volumes(draw):
    """1-20 voxels per axis, so z runs past one or two chunks or falls short
    of the radius; raw, or quantized to a few levels so that values tie."""
    shape = draw(st.tuples(*[st.integers(1, 20)] * 3))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    levels = draw(st.sampled_from([0, 1, 2, 3, 7]))
    return np.round(data * levels) / levels if levels else data


@settings(max_examples=120, deadline=None)
@given(morph_volumes(), st.integers(1, 4))
def test_ball_morphology_matches_ndi_reference_property(data, radius):
    for morph, op in ((np.maximum, "max"), (np.minimum, "min")):
        out = ball_filter(data, radius, morph)
        assert out.tobytes() == ball_ndi_reference(data, radius, op).tobytes()


@settings(max_examples=60, deadline=None)
@given(morph_volumes(), st.integers(1, 3))
def test_iterative_closing_matches_ndi_reference_property(data, r_cl_max):
    out = iterative_closing(ScalarVolume(data), r_cl_max).data
    assert out.tobytes() == closing_ndi_reference(data, r_cl_max).tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 64])
@pytest.mark.parametrize("n_cpus", [1, 2, 8])
def test_box_filter_independent_of_chunk_height_and_threads(monkeypatch, cpus, fake_blas, chunk,
                                                            n_cpus):
    # a halo of 4 slices around chunks of 1 slice reaches across several
    # chunks; 19 slices leave a short tail for every height but 1. More
    # threads than cores, switching often, share the queue of chunks.
    data = np.round(np.random.default_rng(chunk).random((19, 7, 6)) * 5) / 5
    monkeypatch.setattr(pp, "_CHUNK", chunk)
    cpus(n_cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for radius in (1, 4):
            out = box_filter(data, ball_boxes(radius), np.maximum)
            assert out.tobytes() == ball_ndi_reference(data, radius, "max").tobytes()
        cube = box_filter(data, [(1, 1, 1)], np.minimum)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(cube, ndi.grey_erosion(data, size=3, mode="nearest"))


def test_box_filter_threads_are_those_parallel_counts(monkeypatch, cpus, fake_blas):
    # with a BLAS setter the chunks run on the calling thread and a helper,
    # BLAS pinned to one thread meanwhile; without one, on the calling thread
    cpus(2)
    data = np.round(np.random.default_rng(5).random((40, 6, 5)) * 5) / 5
    n_chunks = len(range(0, len(data), pp._CHUNK))

    def threads_seen():
        seen = set()

        def op(p, q, out):
            seen.add(threading.get_ident())
            time.sleep(0.001)  # long enough for the helper to take chunks
            return np.maximum(p, q, out=out)

        out = box_filter(data, ball_boxes(2), op)
        assert out.tobytes() == ball_ndi_reference(data, 2, "max").tobytes()
        return seen

    seen = threads_seen()
    assert len(seen) == parallel.workers(n_chunks) == 2 and threading.get_ident() in seen
    assert fake_blas.log == [1, 4]
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    assert threads_seen() == {threading.get_ident()}
    assert parallel.workers(n_chunks) == 1


@settings(max_examples=60, deadline=None)
@given(morph_volumes(), st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_box_filter_independent_of_box_order(data, boxes, rnd):
    # boxes are taken sorted and once each, depth first; on data without -0.0
    # any order, repeats included, gives the footprint filter's bytes
    given_order = boxes + rnd.sample(boxes, rnd.randint(0, len(boxes)))
    rnd.shuffle(given_order)
    p = max(map(max, boxes))
    footprint = np.zeros((2 * p + 1,) * 3, dtype=bool)
    for cz, cy, cx in boxes:
        footprint[p - cz : p + cz + 1, p - cy : p + cy + 1, p - cx : p + cx + 1] = True
    for morph, ref in ((np.maximum, ndi.grey_dilation), (np.minimum, ndi.grey_erosion)):
        out = box_filter(data, given_order, morph)
        assert out.tobytes() == ref(data, footprint=footprint, mode="nearest").tobytes()


def test_box_filter_writes_into_out_that_shares_no_memory_with_its_input():
    rng = np.random.default_rng(17)
    data, wide = rng.random((6, 5, 4)), rng.random((12, 5, 4))
    boxes = ball_boxes(1)
    for src, out in ((data, data), (data, data[::-1]), (data, data.reshape(6, 20).reshape(6, 5, 4)),
                     (wide[:6], wide[3:9])):
        with pytest.raises(ValueError, match="out shares memory with the input"):
            box_filter(src, boxes, np.maximum, out=out)
    before = data.copy()
    out = np.empty_like(data)
    assert box_filter(data, boxes, np.maximum, out=out) is out
    assert out.tobytes() == box_filter(before, boxes, np.maximum).tobytes()
    np.testing.assert_array_equal(data, before)


def test_closing_peak_memory_per_voxel(segment_96, cpus):
    # two work volumes (16 bytes per voxel) plus each worker's chunk buffers,
    # which hold one box prefix's windows (about 4.6 bytes per voxel here, so
    # the CPU count is fixed). Three volumes and every box's windows at once
    # took 46 bytes per voxel.
    cpus(2)
    smoothed = segment_96.smoothed
    per_voxel = peak_bytes_per(lambda: iterative_closing(smoothed, 3), smoothed.data.size)
    assert per_voxel <= 26, f"closing peak {per_voxel:.1f} bytes per voxel"


def test_signed_zero_ties_follow_numpy_operand_order():
    # np.maximum and np.minimum return their second operand when +0.0 and
    # -0.0 tie; the footprint filter keeps the first zero it met
    assert np.signbit(np.maximum(0.0, -0.0)) and not np.signbit(np.maximum(-0.0, 0.0))
    data = np.zeros((2, 2, 2))
    data[1, 0, 1] = -0.0
    for morph, op in ((np.maximum, "max"), (np.minimum, "min")):
        out, ref = ball_filter(data, 1, morph), ball_ndi_reference(data, 1, op)
        np.testing.assert_array_equal(out, ref)  # equal values: +0.0 == -0.0
        # the z window comes last, so (0, 0, 1) takes the -0.0 below it
        assert np.argwhere(np.signbit(out)).tolist() == [[0, 0, 1], [1, 0, 1]]
        assert not np.signbit(ref).any()
    # the pipeline never meets such a tie: normalize yields no -0.0
    v = normalize(ScalarVolume(np.array([-0.0, 0.0, -0.0, 2.0]).reshape(1, 1, 4)))
    assert not np.signbit(v.data).any()


def test_preprocess_pinned_on_phantom():
    # recorded with the footprint filters (ndi.grey_dilation/grey_erosion)
    img, _ = generate_phantom(
        PhantomParams(
            dims=(48, 48, 48), n_cells=12, membrane_width=1,
            noise_sigma=0.05, blur_sigma=0.6, seed=11,
        )
    )
    pre = iterative_closing(gaussian_smooth(img, (1.0, 1.0, 1.0)), 3).data
    assert not np.signbit(pre).any()
    digest = hashlib.sha256(pre.astype("<f8").tobytes()).hexdigest()
    assert digest == "b5c610b64d46c539019af719bc0a4d5f43fd2656c31b673af3428f3ec8c09109"
