"""Cell-level segmentation scoring against ground truth.

A predicted segment counts as a true positive when it overlaps some
truth cell with IoU > 0.5; because > 0.5 overlap is exclusive on both
sides, such matches are automatically one-to-one. Truth label 0 and any
explicitly listed background labels are excluded from every count, so
predictions over background are neither rewarded nor punished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .volume import LabelVolume


@dataclass
class MatchReport:
    """Match list plus the derived precision / recall / F-score."""

    matches: list[tuple[int, int, int, float]] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 1.0
    recall: float = 1.0
    f_score: float = 1.0


def _finish(matches, tp, fp, fn) -> MatchReport:
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MatchReport(matches, tp, fp, fn, precision, recall, f)


def match_segments(
    pred: LabelVolume,
    truth: LabelVolume,
    background_truth_labels: frozenset[int] = frozenset(),
) -> MatchReport:
    """Score a predicted labeling against truth by IoU > 0.5 matching.

    Segment sizes and intersections are measured over foreground truth
    voxels only. Predicted label 0 is treated as "no segment": its
    voxels can cost recall but never count as a false-positive segment.
    """
    if pred.labels.shape != truth.labels.shape:
        raise ValueError(
            f"dims mismatch: pred {pred.labels.shape} vs truth {truth.labels.shape}"
        )
    # one int64 (pred, truth) key per voxel, sorted in place; truth background sorts first as -1
    t, t_span = truth.labels.ravel(), int(truth.labels.max(initial=0)) + 1
    keys = np.multiply(pred.labels.ravel(), t_span, dtype=np.int64)
    keys += t
    for bg in {0, *background_truth_labels}:
        np.copyto(keys, -1, where=t == bg)
    keys.sort()
    keys = keys[np.searchsorted(keys, 0) :]
    if keys.size == 0:
        return _finish([], 0, 0, 0)

    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    inter = np.diff(np.r_[starts, keys.size])
    pk, tk = np.divmod(keys[starts], t_span)
    pred_sizes, truth_sizes = np.bincount(pk, inter), np.bincount(tk, inter)  # exact float counts
    n_truth, n_pred = int(np.count_nonzero(truth_sizes)), int(np.count_nonzero(pred_sizes[1:]))

    matches = []
    for pi, ti, n in zip(pk, tk, inter):
        if pi == 0:
            continue
        iou = n / (pred_sizes[pi] + truth_sizes[ti] - n)
        if iou > 0.5:
            matches.append((int(pi), int(ti), int(n), float(iou)))
    tp = len(matches)
    return _finish(matches, tp, n_pred - tp, n_truth - tp)


def layer_report(
    pred: LabelVolume,
    truth: LabelVolume,
    layer_mask: LabelVolume,
    background_truth_labels: frozenset[int] = frozenset(),
) -> dict[int, MatchReport]:
    """Per-layer scores: truth cells outside a layer become background,
    so predicted segments are measured only within that layer.

    ``layer_mask`` must paint each foreground truth cell with a single
    layer id, else ValueError; id 0 means unassigned and is never scored.
    """
    if layer_mask.labels.shape != truth.labels.shape:
        raise ValueError("layer_mask dims must match truth")
    t, m = truth.labels.ravel(), layer_mask.labels.ravel()
    fg = (t != 0) & ~np.isin(t, list(background_truth_labels))
    layer_of = np.zeros(int(t.max()) + 1, dtype=m.dtype)
    layer_of[t[fg]] = m[fg]  # one of each cell's ids: any other one differs from it
    split = t[fg & (layer_of[t] != m)]
    if split.size:
        raise ValueError(f"layer_mask gives truth cell {split[0]} more than one layer id")
    reports = {}
    for layer in np.unique(layer_mask.labels):
        if layer == 0:
            continue
        restricted = np.where(layer_mask.labels == layer, truth.labels, 0)
        reports[int(layer)] = match_segments(
            pred,
            LabelVolume(restricted.astype(np.uint32), truth.spacing),
            background_truth_labels,
        )
    return reports


def format_table(rows: list[tuple[str, MatchReport]]) -> str:
    """Plain-text table: Algorithm, Precision, Recall, F-Score."""
    name_w = max([len("Algorithm")] + [len(name) for name, _ in rows])
    header = f"{'Algorithm':<{name_w}}  Precision  Recall  F-Score"
    lines = [header, "-" * len(header)]
    for name, r in rows:
        lines.append(
            f"{name:<{name_w}}  {r.precision:>9.3f}  {r.recall:>6.3f}  {r.f_score:>7.3f}"
        )
    return "\n".join(lines) + "\n"


def report_json(name: str, report: MatchReport) -> str:
    """One evaluation as a single JSON object (machine-readable twin of
    the text table)."""
    return json.dumps(
        {
            "algorithm": name,
            "precision": report.precision,
            "recall": report.recall,
            "f_score": report.f_score,
            "tp": report.tp,
            "fp": report.fp,
            "fn": report.fn,
            "n_matches": len(report.matches),
        }
    )
