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


def _runs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (a, b) pairs over the voxels of two label arrays, sorted, and their
    voxel counts, from one uint64 key ``a * (max b + 1) + b`` per voxel sorted in place."""
    span = np.uint64(int(b.max(initial=0)) + 1)
    if (int(a.max(initial=0)) + 1) * int(span) > 2**64:  # never for u32 ids
        raise ValueError("label ids too large for 64-bit pair keys")
    keys = np.multiply(a.ravel(), span, dtype=np.uint64, casting="unsafe")
    np.add(keys, b.ravel(), out=keys, dtype=np.uint64, casting="unsafe")
    keys.sort()
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return *np.divmod(keys[starts], span), np.diff(np.r_[starts, keys.size])


def _foreground(ids: np.ndarray, background: frozenset[int]) -> np.ndarray:
    """Which of the uint64 ``ids`` are neither 0 nor listed in ``background``."""
    return ~np.isin(ids, np.array([b for b in {0, *background} if 0 <= b < 2**64], np.uint64))


def match_segments(pred: LabelVolume, truth: LabelVolume,
                   background_truth_labels: frozenset[int] = frozenset()) -> MatchReport:
    """Score a predicted labeling against truth by IoU > 0.5 matching.

    Segment sizes and intersections are measured over foreground truth
    voxels only. Predicted label 0 is treated as "no segment": its
    voxels can cost recall but never count as a false-positive segment.
    Any u32 ids are scored, in memory that follows the voxel count: sizes,
    IoUs and matches come from the runs of sorted (pred, truth) keys.
    """
    if pred.labels.shape != truth.labels.shape:
        raise ValueError(f"dims mismatch: pred {pred.labels.shape} vs truth {truth.labels.shape}")
    pk, tk, inter = _runs(pred.labels, truth.labels)
    fg = _foreground(tk, background_truth_labels)
    pk, tk, inter = pk[fg], tk[fg], inter[fg]
    p_ids, p_of = np.unique(pk, return_inverse=True)
    t_ids, t_of = np.unique(tk, return_inverse=True)
    iou = inter / (np.bincount(p_of, inter)[p_of] + np.bincount(t_of, inter)[t_of] - inter)
    hit = (pk != 0) & (iou > 0.5)  # the sizes are exact float counts
    matches = list(zip(pk[hit].tolist(), tk[hit].tolist(), inter[hit].tolist(), iou[hit].tolist()))
    tp = len(matches)
    return _finish(matches, tp, int(np.count_nonzero(p_ids)) - tp, t_ids.size - tp)


def layer_report(pred: LabelVolume, truth: LabelVolume, layer_mask: LabelVolume,
                 background_truth_labels: frozenset[int] = frozenset()) -> dict[int, MatchReport]:
    """Per-layer scores: :func:`match_segments` with the truth cells of the other
    layers (0 included) added to the background, so predicted segments are measured
    only within the layer.

    ``layer_mask`` must paint each foreground truth cell with a single
    layer id, else ValueError, as is a mask of 0s only; id 0 means unassigned
    and is never scored.
    """
    if not pred.labels.shape == layer_mask.labels.shape == truth.labels.shape:
        raise ValueError(f"dims mismatch: pred {pred.labels.shape}, layer_mask "
                         f"{layer_mask.labels.shape} vs truth {truth.labels.shape}")
    cell, layer, _ = _runs(truth.labels, layer_mask.labels)
    fg = _foreground(cell, background_truth_labels)
    cells, layers = cell[fg], layer[fg]
    split = cells[1:][cells[1:] == cells[:-1]]
    if split.size:
        raise ValueError(f"layer_mask gives truth cell {split[0]} more than one layer id")
    others = {n: frozenset(cells[layers != n].tolist()) for n in np.unique(layer) if n != 0}
    if not others:
        raise ValueError("layer_mask names no layer: every id is 0")
    return {int(n): match_segments(pred, truth, background_truth_labels | others[n])
            for n in others}


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
