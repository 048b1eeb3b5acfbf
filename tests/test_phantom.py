"""Phantom rendering, ground truth and the training-patch cutter."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage as ndi

from cellforest.classify import Patch
from cellforest.cnn import DatasetError
from cellforest.phantom import (
    PhantomParams,
    _place_sites,
    _touching_pairs,
    _voronoi_labels,
    generate_patch_dataset,
    generate_phantom,
    load_patch_dataset,
    membrane_mask,
    save_patch_dataset,
)
from cellforest.preprocess import gaussian_smooth

from checks import peak_bytes_per
from oracles import (
    membrane_mask_reference,
    place_sites_reference,
    touching_pairs_reference,
    voronoi_reference,
    voronoi_scan_reference,
)


def small_params(**overrides):
    base = dict(dims=(24, 24, 24), n_cells=8, seed=5)
    base.update(overrides)
    return PhantomParams(**base)


def patch_dataset(params, per_class):
    return generate_patch_dataset(params, *generate_phantom(params), per_class)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        PhantomParams(dims=(2, 2, 2), n_cells=9)
    with pytest.raises(ValueError):
        PhantomParams(n_cells=0)
    with pytest.raises(ValueError):
        PhantomParams(membrane_intensity=0.2, interior_intensity=0.5)
    with pytest.raises(ValueError):
        PhantomParams(attenuation=0.0)
    with pytest.raises(ValueError):
        PhantomParams(membrane_width=0)
    with pytest.raises(ValueError):
        PhantomParams(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="spacing"):
        PhantomParams(spacing=(1.0, 0.0, 1.0))


def test_site_placement_respects_separation():
    params = small_params(membrane_width=2)
    sites = _place_sites(params, np.random.default_rng(0))
    assert sites.shape == (8, 3)
    d2 = ((sites[:, None, :] - sites[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() >= (2 * 2) ** 2


def test_site_placement_fails_when_overcrowded():
    params = PhantomParams(dims=(4, 4, 4), n_cells=60, membrane_width=2)
    with pytest.raises(ValueError, match="separation"):
        _place_sites(params, np.random.default_rng(0))


@pytest.mark.parametrize(
    "dims, n_cells, width",
    [((24, 24, 24), 8, 1), ((40, 30, 20), 60, 2), ((12, 12, 12), 25, 2), ((1, 7, 5), 4, 1)],
)
def test_site_placement_matches_looped_reference(dims, n_cells, width):
    params = PhantomParams(dims=dims, n_cells=n_cells, membrane_width=width)
    rejected = False
    for seed in range(25):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _place_sites(params, rng)
        np.testing.assert_array_equal(got, place_sites_reference(params, ref_rng))
        # the same draws were consumed, rejected ones included
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        unrejected = np.random.default_rng(seed)
        unrejected.random(3 * n_cells)
        rejected |= rng.bit_generator.state != unrejected.bit_generator.state
    if (dims, n_cells) == ((12, 12, 12), 25):
        assert rejected  # the crowded case exercises rejection


def test_failed_site_placement_matches_reference():
    params = PhantomParams(dims=(4, 4, 4), n_cells=60, membrane_width=2)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(ValueError) as got:
        _place_sites(params, rng)
    with pytest.raises(ValueError) as expect:
        place_sites_reference(params, ref_rng)
    assert str(got.value) == str(expect.value)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# ground-truth geometry


def test_voronoi_labels_match_reference():
    for seed in range(4):
        params = PhantomParams(dims=(10, 8, 6), spacing=(0.5, 1.0, 2.0), n_cells=5)
        sites = _place_sites(params, np.random.default_rng(seed))
        got = _voronoi_labels(sites, params)
        expect = voronoi_reference(sites, params.dims, params.spacing)
        np.testing.assert_array_equal(got, expect)


@st.composite
def voronoi_cases(draw):
    """Grids of 1-40 voxels per axis, mixed spacings and 1-60 sites, some
    of them copies or mirror images of others so that distances tie
    exactly."""
    dims = tuple(draw(st.integers(1, 40)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.3, 0.5, 0.7, 1.0, 2.0])) for _ in range(3))
    extent = np.array(dims[::-1], dtype=np.float64)
    sites = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["uniform", "half-grid", "copy", "mirror"]))
        if kind == "uniform" or (not sites and kind != "half-grid"):
            unit = [draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(3)]
            sites.append(np.array(unit) * extent)
        elif kind == "half-grid":
            sites.append(np.array([draw(st.integers(0, 2 * n - 1)) / 2 for n in extent]))
        else:
            site = sites[draw(st.integers(0, len(sites) - 1))].copy()
            if kind == "mirror":
                # reflect through a voxel plane: the plane's voxels tie
                axis = draw(st.integers(0, 2))
                plane = draw(st.integers(0, int(extent[axis]) - 1))
                site[axis] = 2 * plane - site[axis]
            sites.append(site)
    return dims, spacing, np.array(sites)


# every site duplicated in reverse order: each voxel ties, and the
# lower-indexed copies win
_DUPLICATED = _place_sites(PhantomParams(dims=(40, 33, 20), n_cells=12), np.random.default_rng(2))


@settings(max_examples=150, deadline=None)
@given(voronoi_cases())
@example(((40, 33, 20), (0.5, 1.0, 2.0), np.concatenate([_DUPLICATED, _DUPLICATED[::-1]])))
def test_voronoi_labels_match_full_scan_bit_for_bit(case):
    dims, spacing, sites = case
    params = PhantomParams(dims=dims, spacing=spacing, n_cells=1)
    got = _voronoi_labels(sites, params)
    expect = voronoi_scan_reference(sites, params)
    assert got.dtype == expect.dtype
    np.testing.assert_array_equal(got, expect)


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# sha256 of the image (float64) and truth (uint32) bytes, recorded from
# the all-sites Voronoi scan and the looped site placement.
PINNED_PHANTOMS = [
    (
        dict(dims=(96, 96, 96), n_cells=90, membrane_width=2, attenuation=0.99,
             noise_sigma=0.05, blur_sigma=0.6, seed=1),
        "971ca4eb2c560580cd6b6b70a61308c2bf4c37be43e9993dfe9302585f3a1d67",
        "ee8aa7dc905ae7bd488bd26c16adf50e42e154750a40ec795b9849d31cf27cd8",
    ),
    (
        dict(dims=(48, 40, 28), spacing=(0.5, 0.5, 1.5), n_cells=20, membrane_width=3,
             attenuation=0.98, noise_sigma=0.03, blur_sigma=0.8, seed=4),
        "069694dc309afa85638c2baa023105969de6c5f80240c6d2e32ed2b8ad800158",
        "4e3b613455b2530592a9f0cc7a54a1dadb7c0f296aa53a653ce848f0763d4b15",
    ),
]


@pytest.mark.parametrize("kwargs, image_sha, truth_sha", PINNED_PHANTOMS)
def test_phantom_bytes_pinned(kwargs, image_sha, truth_sha):
    v, gt = generate_phantom(PhantomParams(**kwargs))
    assert v.data.dtype == np.float64 and gt.labels.dtype == np.uint32
    assert (sha256(v.data), sha256(gt.labels)) == (image_sha, truth_sha)


def test_ground_truth_cells_are_connected_and_complete():
    _, gt = generate_phantom(small_params())
    labels = gt.labels
    assert labels.min() == 1
    assert set(np.unique(labels)) == set(range(1, 9))
    structure = ndi.generate_binary_structure(3, 1)
    for c in range(1, 9):
        _, n = ndi.label(labels == c, structure=structure)
        assert n == 1


# ---------------------------------------------------------------------------
# membranes


def split_labels(shape=(5, 5, 5), cut=3):
    labels = np.ones(shape, dtype=np.int32)
    labels[:, :, cut:] = 2
    return labels


def test_membrane_marks_both_sides_of_a_wall():
    mask = membrane_mask(split_labels(), width=1)
    assert mask[2, 2, 2] and mask[2, 2, 3]  # both sides of the 1|2 change
    assert not mask[2, 2, 1]  # interior of cell 1
    assert mask[0, 2, 1] and mask[4, 2, 1] and mask[2, 0, 1]  # volume border


def test_membrane_width_dilates_spherically():
    labels = np.ones((9, 9, 9), dtype=np.int32)
    labels[:, :, 5:] = 2
    w1 = membrane_mask(labels, width=1)
    w2 = membrane_mask(labels, width=2)
    assert not w1[4, 4, 2]
    assert w2[4, 4, 3] and not w2[4, 4, 2]  # one step of spherical growth
    assert np.all(w2 | ~w1)  # superset of the thin wall


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(*[st.integers(1, 8)] * 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@example((6, 5, 7), 1, 1, 1, 0)
@example((1, 5, 6), 3, 1, 2, 0)
@example((2, 2, 7), 2, 2, 3, 1)
@example((7, 1, 2), 4, 1, 1, 2)
def test_membrane_mask_matches_looped_reference(shape, k, block, width, seed):
    # labels constant on block^3 cubes leave interior voxels off the walls;
    # axes of length 1 or 2 are border voxels only
    coarse = np.random.default_rng(seed).integers(1, k + 1, [-(-n // block) for n in shape])
    labels = coarse.repeat(block, 0).repeat(block, 1).repeat(block, 2)
    labels = labels[: shape[0], : shape[1], : shape[2]].astype(np.uint32)
    np.testing.assert_array_equal(
        membrane_mask(labels, width), membrane_mask_reference(labels, width)
    )


def test_touching_pairs_on_split_volume():
    assert _touching_pairs(split_labels()) == [(1, 2)]


def test_touching_pairs_match_looped_reference():
    rng = np.random.default_rng(0)
    shapes = [(1, 1, 1), (1, 1, 9), (6, 1, 4), (5, 7, 3), (9, 8, 10)]
    for shape in shapes:
        for k in (1, 2, 5, 40):
            labels = rng.integers(1, k + 1, shape).astype(np.uint32)
            got = _touching_pairs(labels)
            assert got == touching_pairs_reference(labels)
            assert all(type(a) is int and type(b) is int for a, b in got)
    _, gt = generate_phantom(small_params())
    assert _touching_pairs(gt.labels) == touching_pairs_reference(gt.labels)


# ---------------------------------------------------------------------------
# rendering


def test_phantom_is_deterministic():
    params = small_params(attenuation=0.98, noise_sigma=0.05, blur_sigma=0.7)
    v1, gt1 = generate_phantom(params)
    v2, gt2 = generate_phantom(params)
    np.testing.assert_array_equal(v1.data, v2.data)
    np.testing.assert_array_equal(gt1.labels, gt2.labels)


def test_clean_phantom_has_exactly_two_intensities():
    v, _ = generate_phantom(small_params())
    assert set(np.unique(v.data)) == {0.15, 0.9}


def test_single_cell_phantom_is_wall_at_border_only():
    params = PhantomParams(dims=(8, 8, 8), n_cells=1, seed=1)
    v, gt = generate_phantom(params)
    assert np.all(gt.labels == 1)
    interior = v.data[1:-1, 1:-1, 1:-1]
    assert np.all(interior == params.interior_intensity)
    assert np.all(v.data[0] == params.membrane_intensity)


def test_attenuation_scales_slices_exponentially():
    clean, _ = generate_phantom(small_params())
    dimmed, _ = generate_phantom(small_params(attenuation=0.9))
    decay = 0.9 ** np.arange(clean.data.shape[0])[:, None, None]
    np.testing.assert_array_equal(dimmed.data, clean.data * decay)


def test_blur_equals_post_hoc_smoothing():
    clean, _ = generate_phantom(small_params())
    blurred, _ = generate_phantom(small_params(blur_sigma=1.1))
    expect = gaussian_smooth(clean, (1.1, 1.1, 1.1))
    np.testing.assert_array_equal(blurred.data, expect.data)


def test_noise_is_additive_and_clipped():
    noisy, _ = generate_phantom(small_params(noise_sigma=0.4))
    clean, _ = generate_phantom(small_params())
    assert noisy.data.min() >= 0.0 and noisy.data.max() <= 1.0
    assert not np.array_equal(noisy.data, clean.data)


# ---------------------------------------------------------------------------
# training patches


def test_patch_dataset_counts_and_classes():
    patches, classes = patch_dataset(small_params(), 3)
    assert len(patches) == 9
    assert classes == ["under"] * 3 + ["correct"] * 3 + ["over"] * 3
    for patch in patches:
        assert patch.data.shape == (32, 32, 32)
        assert 0.0 <= patch.data.min() and patch.data.max() <= 1.0


def test_patch_dataset_deterministic():
    a, _ = patch_dataset(small_params(), 2)
    b, _ = patch_dataset(small_params(), 2)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_patch_dataset_needs_touching_cells():
    with pytest.raises(DatasetError):
        patch_dataset(PhantomParams(dims=(8, 8, 8), n_cells=1), 1)


def test_patch_dataset_rejects_zero_counts():
    with pytest.raises(ValueError):
        patch_dataset(small_params(), 0)


def test_patch_dataset_round_trip(tmp_path):
    patches, classes = patch_dataset(small_params(), 2)
    save_patch_dataset(tmp_path / "ds", patches, classes)
    x, y = load_patch_dataset(tmp_path / "ds")
    assert x.shape == (6, 32, 32, 32)
    assert x.dtype == np.float64
    np.testing.assert_array_equal(y, [0, 0, 1, 1, 2, 2])
    for i, patch in enumerate(patches):
        np.testing.assert_array_equal(
            x[i], patch.data.astype(np.float32).astype(np.float64)
        )


def test_load_dataset_peak_memory(tmp_path):
    # each patch is read straight into the returned array; a list of patches
    # and np.stack peaked at 2.09 times the array
    rng = np.random.default_rng(8)
    save_patch_dataset(tmp_path, [Patch(rng.random((32, 32, 32))) for _ in range(6)],
                       ["under", "correct", "over"] * 2)
    ratio = peak_bytes_per(lambda: load_patch_dataset(tmp_path), 6 * 32**3 * 8)
    assert ratio <= 1.2, f"load peak {ratio:.2f} x the array"


def test_load_dataset_error_cases(tmp_path):
    with pytest.raises(DatasetError, match="index.txt"):
        load_patch_dataset(tmp_path)

    ds = tmp_path / "bad"
    ds.mkdir()
    (ds / "index.txt").write_text("only-one-field\n")
    with pytest.raises(DatasetError, match="malformed"):
        load_patch_dataset(ds)

    (ds / "index.txt").write_text("f.mvol.json,confused\n")
    with pytest.raises(DatasetError, match="unknown class"):
        load_patch_dataset(ds)

    save_patch_dataset(ds, [Patch(np.zeros((32, 32, 32)))], ["under"])
    (ds / "index.txt").write_text("patch_0000,under\n")  # the header without its suffix
    with pytest.raises(DatasetError, match="names no .mvol.json patch header"):
        load_patch_dataset(ds)

    (ds / "index.txt").write_text("\n\n")
    with pytest.raises(DatasetError, match="empty"):
        load_patch_dataset(ds)


def test_load_dataset_rejects_wrong_patch_shape(tmp_path):
    from cellforest.volume import ScalarVolume, write_volume

    ds = tmp_path / "ds"
    ds.mkdir()
    write_volume(
        ScalarVolume(np.zeros((16, 16, 16), dtype=np.float32), (1.0,) * 3),
        ds / "p.mvol.json",
    )
    (ds / "index.txt").write_text("p.mvol.json,correct\n")
    with pytest.raises(DatasetError, match="32"):
        load_patch_dataset(ds)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.25])
def test_load_dataset_rejects_bad_patch_values(tmp_path, bad):
    from cellforest.volume import ScalarVolume, write_volume

    data = np.full((32, 32, 32), 0.5, dtype=np.float32)
    data[0, 1, 2] = bad
    write_volume(ScalarVolume(data), tmp_path / "p.mvol.json")
    (tmp_path / "index.txt").write_text("p.mvol.json,correct\n")
    with pytest.raises(DatasetError, match=r"p\.mvol\.json: patch values must be finite"):
        load_patch_dataset(tmp_path)


def test_save_dataset_rejects_unknown_class(tmp_path):
    patches, _ = patch_dataset(small_params(), 1)
    with pytest.raises(DatasetError):
        save_patch_dataset(tmp_path / "ds", patches, ["under", "correct", "nope"])
