"""Cell-level matching, scores and report formatting."""

import json

import numpy as np
import pytest

from cellforest.metrics import (
    MatchReport,
    format_table,
    layer_report,
    match_segments,
    report_json,
)
from cellforest.volume import LabelVolume
from cellforest.watershed import seeded_watershed

from checks import peak_bytes_per
from oracles import match_reference


def lv(arr):
    return LabelVolume(np.asarray(arr, dtype=np.int64), (1.0, 1.0, 1.0))


def test_identity_labeling_is_perfect():
    labels = np.arange(1, 9).reshape(2, 2, 2)
    r = match_segments(lv(labels), lv(labels))
    assert (r.tp, r.fp, r.fn) == (8, 0, 0)
    assert r.precision == r.recall == r.f_score == 1.0
    assert len(r.matches) == 8
    for pi, ti, inter, iou in r.matches:
        assert pi == ti and inter == 1 and iou == 1.0


def test_half_half_split_matches_nothing():
    # one truth cell split into two equal predictions: both halves have
    # IoU exactly 0.5, which is not a match
    truth = np.ones((1, 1, 4), dtype=np.int64)
    pred = np.array([[[1, 1, 2, 2]]])
    r = match_segments(lv(pred), lv(truth))
    assert (r.tp, r.fp, r.fn) == (0, 2, 1)
    assert r.precision == 0.0 and r.recall == 0.0 and r.f_score == 0.0


def test_uneven_split_keeps_majority_fragment():
    truth = np.ones((1, 1, 5), dtype=np.int64)
    pred = np.array([[[1, 1, 1, 1, 2]]])
    r = match_segments(lv(pred), lv(truth))
    # 4/5 overlap: IoU 0.8 for the big fragment, 0.2 for the sliver
    assert (r.tp, r.fp, r.fn) == (1, 1, 0)
    assert r.matches == [(1, 1, 4, pytest.approx(0.8))]


def test_merged_pair_matches_nothing():
    truth = np.array([[[1, 1, 2, 2]]])
    pred = np.ones((1, 1, 4), dtype=np.int64)
    r = match_segments(lv(pred), lv(truth))
    assert (r.tp, r.fp, r.fn) == (0, 1, 2)


def test_pred_zero_is_no_segment_not_a_false_positive():
    truth = np.array([[[1, 1, 1, 2, 2, 2]]])
    pred = np.array([[[1, 1, 1, 0, 0, 0]]])
    r = match_segments(lv(pred), lv(truth))
    assert (r.tp, r.fp, r.fn) == (1, 0, 1)
    assert r.precision == 1.0
    assert r.recall == 0.5


def test_truth_zero_voxels_are_ignored():
    truth = np.array([[[0, 0, 1, 1]]])
    pred = np.array([[[7, 7, 3, 3]]])
    r = match_segments(lv(pred), lv(truth))
    # segment 7 lives entirely on unlabeled truth: invisible to scoring
    assert (r.tp, r.fp, r.fn) == (1, 0, 0)


def test_background_set_excludes_named_cells():
    truth = np.array([[[1, 1, 2, 2]]])
    pred = np.array([[[5, 5, 5, 5]]])
    r = match_segments(lv(pred), lv(truth), background_truth_labels=frozenset({2}))
    # with cell 2 removed, pred 5 covers cell 1 at IoU 1.0
    assert (r.tp, r.fp, r.fn) == (1, 0, 0)


def test_all_background_is_vacuous_success():
    truth = np.zeros((2, 2, 2), dtype=np.int64)
    pred = np.arange(8).reshape(2, 2, 2)
    r = match_segments(lv(pred), lv(truth))
    assert (r.tp, r.fp, r.fn) == (0, 0, 0)
    assert r.precision == 1.0 and r.recall == 1.0


def test_relabeling_invariance():
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 6, size=(4, 4, 4))
    pred = rng.integers(1, 6, size=(4, 4, 4))
    base = match_segments(lv(pred), lv(truth))
    shuffled = match_segments(lv(pred * 10 + 3), lv(truth))
    assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)


def test_dims_mismatch_rejected():
    with pytest.raises(ValueError):
        match_segments(lv(np.ones((2, 2, 2))), lv(np.ones((2, 2, 3))))


def test_matches_against_counting_reference():
    rng = np.random.default_rng(1)
    for _ in range(8):
        truth = rng.integers(0, 5, size=(5, 5, 5))
        pred = rng.integers(0, 5, size=(5, 5, 5))
        r = match_segments(lv(pred), lv(truth))
        matches, tp, fp, fn, precision, recall, f = match_reference(pred, truth)
        assert (r.tp, r.fp, r.fn) == (tp, fp, fn)
        assert r.precision == pytest.approx(precision)
        assert r.recall == pytest.approx(recall)
        assert r.f_score == pytest.approx(f)
        assert sorted((m[0], m[1]) for m in r.matches) == sorted(matches)


@pytest.mark.parametrize(
    "background", [frozenset(), frozenset({1}), frozenset({2, 4}), frozenset({9}), frozenset({1, 2, 3, 4})]
)
def test_matches_equal_reference_with_background_and_pred_zero(background):
    # predictions that mostly follow the truth, with label 0 on about a third
    # of the voxels; truth 0 and the background labels are never scored
    rng = np.random.default_rng(sorted(background) + [7])
    for _ in range(8):
        truth = rng.integers(0, 5, size=(6, 5, 4))
        pred = np.where(rng.random(truth.shape) < 0.7, truth, rng.integers(0, 7, truth.shape))
        pred[rng.random(truth.shape) < 0.33] = 0
        r = match_segments(lv(pred), lv(truth), background)
        got = (r.matches, r.tp, r.fp, r.fn, r.precision, r.recall, r.f_score)
        assert got == match_reference(pred, truth, background)


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_match_segments_leaves_label_arrays_unchanged(dtype):
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 5, size=(5, 6, 7)).astype(dtype)
    pred = rng.integers(0, 5, size=(5, 6, 7)).astype(dtype)
    before = pred.copy(), truth.copy()
    match_segments(LabelVolume(pred), LabelVolume(truth), frozenset({2}))
    assert pred.dtype == truth.dtype == dtype
    assert pred.tobytes() == before[0].tobytes() and truth.tobytes() == before[1].tobytes()


def test_match_segments_peak_memory_per_voxel(segment_96):
    # one int64 key per voxel, sorted in place, and a byte per voxel for a
    # mask; masked copies of both volumes and np.unique took 35 bytes per voxel
    s = segment_96
    pred = LabelVolume(seeded_watershed(s.pre, s.minima).labels.astype(np.uint32), s.truth.spacing)
    per_voxel = peak_bytes_per(lambda: match_segments(pred, s.truth), pred.labels.size)
    assert per_voxel <= 16, f"match_segments peak {per_voxel:.1f} bytes per voxel"


def test_matches_are_one_to_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        truth = rng.integers(0, 6, size=(6, 6, 6))
        pred = rng.integers(0, 6, size=(6, 6, 6))
        r = match_segments(lv(pred), lv(truth))
        pred_ids = [m[0] for m in r.matches]
        truth_ids = [m[1] for m in r.matches]
        assert len(pred_ids) == len(set(pred_ids))
        assert len(truth_ids) == len(set(truth_ids))


# ---------------------------------------------------------------------------
# layers


def test_single_layer_equals_plain_matching():
    rng = np.random.default_rng(3)
    truth = rng.integers(1, 5, size=(4, 4, 4))
    pred = rng.integers(1, 5, size=(4, 4, 4))
    layers = np.ones((4, 4, 4), dtype=np.int64)
    per_layer = layer_report(lv(pred), lv(truth), lv(layers))
    whole = match_segments(lv(pred), lv(truth))
    assert list(per_layer) == [1]
    assert (per_layer[1].tp, per_layer[1].fp, per_layer[1].fn) == (
        whole.tp,
        whole.fp,
        whole.fn,
    )


def test_two_layer_partition_of_identity_is_perfect_everywhere():
    truth = np.array([[[1, 1, 2, 2]]])
    layers = np.array([[[1, 1, 2, 2]]])
    reports = layer_report(lv(truth), lv(truth), lv(layers))
    assert set(reports) == {1, 2}
    for r in reports.values():
        assert (r.tp, r.fp, r.fn) == (1, 0, 0)
        assert r.f_score == 1.0


def test_layer_zero_is_skipped_and_empty_layer_vacuous():
    truth = np.array([[[1, 1, 0, 0]]])
    pred = np.array([[[1, 1, 2, 2]]])
    layers = np.array([[[1, 1, 0, 3]]])  # layer 3 holds no truth cells
    reports = layer_report(lv(pred), lv(truth), lv(layers))
    assert set(reports) == {1, 3}
    assert reports[1].tp == 1
    assert (reports[3].tp, reports[3].fp, reports[3].fn) == (0, 0, 0)
    assert reports[3].precision == 1.0 and reports[3].recall == 1.0


@pytest.mark.parametrize("other_id", [2, 0])
def test_layer_mask_that_splits_a_cell_is_rejected(other_id):
    # cell 1 in layers 1 and 2 used to score as a true positive in both
    truth = np.ones((4, 4, 4), dtype=np.int64)
    truth[:, :, 2:] = 2
    layers = truth.copy()
    layers[0, 0, 0] = other_id  # 0 counts as an id
    with pytest.raises(ValueError, match="truth cell 1 more than one layer id"):
        layer_report(lv(truth), lv(truth), lv(layers))
    # a background cell is not scored, so it may span layers
    reports = layer_report(lv(truth), lv(truth), lv(layers), frozenset({1}))
    assert (reports[2].tp, reports[2].fp, reports[2].fn) == (1, 0, 0)


def test_layer_mask_dims_must_match():
    with pytest.raises(ValueError):
        layer_report(
            lv(np.ones((2, 2, 2))), lv(np.ones((2, 2, 2))), lv(np.ones((2, 2, 3)))
        )


def test_layer_report_checks_pred_dims_with_no_layer_to_score():
    # a mask of zeros used to return no reports without looking at the pred
    truth = np.ones((1, 1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"mismatch: pred \(1, 1, 3\), layer_mask \(1, 1, 2\)"):
        layer_report(lv(np.ones((1, 1, 3))), lv(truth), lv(np.zeros_like(truth)))


def test_layer_mask_of_zeros_names_no_layer():
    # used to return no reports, which eval printed as a table with no rows
    truth = np.array([[[1, 1, 2, 2]]])
    with pytest.raises(ValueError, match="names no layer"):
        layer_report(lv(truth), lv(truth), lv(np.zeros_like(truth)))


# ---------------------------------------------------------------------------
# report rendering


def test_format_table_alignment_and_values():
    rows = [
        ("watershed", MatchReport([], 6, 2, 2, 0.75, 0.75, 0.75)),
        ("fusion", MatchReport([], 9, 1, 1, 0.9, 0.9, 0.9)),
    ]
    text = format_table(rows)
    lines = text.strip().split("\n")
    assert lines[0].split() == ["Algorithm", "Precision", "Recall", "F-Score"]
    assert set(lines[1]) == {"-"}
    assert "watershed" in lines[2] and "0.750" in lines[2]
    assert "fusion" in lines[3] and "0.900" in lines[3]


def test_report_json_round_trips():
    r = MatchReport([(1, 2, 10, 0.8)], 1, 0, 2, 1.0, 1 / 3, 0.5)
    data = json.loads(report_json("fusion", r))
    assert data["algorithm"] == "fusion"
    assert data["tp"] == 1 and data["fp"] == 0 and data["fn"] == 2
    assert data["recall"] == pytest.approx(1 / 3)
    assert data["n_matches"] == 1


# ---------------------------------------------------------------------------
# large label ids


def test_ids_near_the_u32_maximum_do_not_wrap():
    # the int64 key pred * (max truth + 1) + truth wrapped for pred 2**31 against
    # truth 2**32 - 1, and those voxels were dropped as background: F 1.000
    big = LabelVolume(np.full((1, 1, 2), 2**31, dtype=np.uint32))
    truth = LabelVolume(np.array([[[2**32 - 1, 1]]], dtype=np.uint32))
    small = match_segments(lv([[[7, 7]]]), lv([[[9, 1]]]))
    r = match_segments(big, truth)
    assert (r.tp, r.fp, r.fn, r.f_score) == (small.tp, small.fp, small.fn, small.f_score)
    assert (r.tp, r.fp, r.fn) == (0, 1, 2)
    # each layer holds one of the cells, which the pred covers alone there
    reports = layer_report(big, truth, truth)
    counts = {k: (v.tp, v.fp, v.fn) for k, v in reports.items()}
    assert counts == dict.fromkeys([1, 2**32 - 1], (1, 0, 0))


@pytest.mark.parametrize("score", ["match", "layers"])
def test_scoring_memory_follows_voxels_not_the_largest_id(score):
    # one id 2**24 in 8 voxels made tables indexed by id: a 33.6 MB peak in
    # match_segments and 50.3 MB in layer_report
    labels = np.arange(1, 9, dtype=np.uint32).reshape(2, 2, 2)
    labels[1, 1, 1] = 2**24
    vol = LabelVolume(labels)
    call = {"match": lambda: match_segments(vol, vol),
            "layers": lambda: layer_report(vol, vol, vol)}[score]
    assert peak_bytes_per(call) < 100_000


def test_pair_keys_that_would_wrap_are_refused():
    # u32 ids never wrap; wider library labels that could are an error, not a wrong score
    pred = LabelVolume(np.array([[[2**40, 1]]], dtype=np.int64))
    truth = LabelVolume(np.array([[[2**30, 1]]], dtype=np.int64))
    with pytest.raises(ValueError, match="too large"):
        match_segments(pred, truth)
