"""The three workloads: their inputs, their operation and its gates.

Every operation is one in-process call to ``cellforest.cli.main``, so it
runs exactly what a user runs. Set-up writes the generated inputs to
disk; see ``inputs.py``.

* ``segment_96``: the user's main job. Full ``segment`` with the
  heuristic classifier on a 96^3 phantom (the F-score ladder's cell size
  and volume bounds, scaled up); watershed-bound.
* ``recut_cnn_96``: the paper's point that correction is only a choice
  of tree cut. ``segment`` resumed from stage artifacts with the CNN
  classifier; bypasses preprocess, watershed, graph and merging, and
  spends its time in batch-1 CNN inference and patch extraction.
* ``train_cnn``: one epoch of ``train`` on a 12-patch set; isolates the
  CNN forward/backward, the ADAM step and the loss trace.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from cellforest.cnn import load_model
from cellforest.merging import forest_to_labels, load_forest
from cellforest.metrics import match_segments
from cellforest.volume import read_volume

WORKLOADS = ("segment_96", "recut_cnn_96", "train_cnn")

# Command-line arguments per input. FULL is what the benchmark measures;
# TINY is the self-test's stand-in with the same structure.
FULL = {
    "phantom": ["--dims", "96", "--n-cells", "90", "--membrane-width", "2",
                "--attenuation", "0.99", "--noise-sigma", "0.05", "--blur-sigma", "0.6"],
    "bounds": ["--v-min-um3", "5000", "--v-max-um3", "24000"],
    "patches": ["--dims", "48", "--n-cells", "12", "--membrane-width", "1",
                "--blur-sigma", "0.5", "--patches-per-class", "2"],
    "train": ["--epochs", "1", "--batch-size", "2", "--keep-prob", "0.5",
              "--learning-rate", "5e-3"],
    # A floor, not a target: the heuristic cut scores 0.973 on seed 1.
    "min_f_score": 0.85,
}
TINY = {
    "phantom": ["--dims", "32", "--n-cells", "8", "--membrane-width", "2",
                "--attenuation", "0.99", "--noise-sigma", "0.05", "--blur-sigma", "0.6"],
    "bounds": ["--v-min-um3", "1000", "--v-max-um3", "8000"],
    "patches": ["--dims", "32", "--n-cells", "8", "--membrane-width", "1",
                "--blur-sigma", "0.5", "--patches-per-class", "1"],
    "train": ["--epochs", "1", "--batch-size", "3", "--keep-prob", "0.5",
              "--learning-rate", "5e-3"],
    "min_f_score": 0.0,
}


# recut_cnn_96 re-cuts one fixed forest. Its cost is about 0.15 s per
# queried node, and how many nodes there are to query is a property of
# the phantom: over five phantom seeds the operation took 5.7 to 8.4 s.
# Holding the forest fixed keeps the work per operation constant; the
# workload seed varies the model, which moves the query count only
# between 30 and 35 on this forest.
RECUT_PHANTOM_SEED = 1


def setup_steps(workload: str, seed: int, d: str, cfg: dict) -> list:
    """The set-up as a list of ``cli.main`` argument lists, plus the
    string ``"model"`` where ``init_model(seed)`` is saved."""
    if workload == "train_cnn":
        return [["synth", "--output-prefix", f"{d}/tp", "--seed", str(seed),
                 "--patches-dir", f"{d}/patches", *cfg["patches"]]]
    phantom_seed = RECUT_PHANTOM_SEED if workload == "recut_cnn_96" else seed
    steps = [["synth", "--output-prefix", f"{d}/ph", "--seed", str(phantom_seed),
              *cfg["phantom"]]]
    if workload == "recut_cnn_96":
        steps.append(["segment", f"{d}/ph.image.mvol.json", "--output-prefix", f"{d}/art",
                      "--dump-stages", *cfg["bounds"]])
        steps.append("model")
    return steps


def op_argv(workload: str, seed: int, d: str, out: str, cfg: dict) -> list[str]:
    """The measured operation, reading the set-up's files in ``d``."""
    if workload == "segment_96":
        return ["segment", f"{d}/ph.image.mvol.json", "--output-prefix", f"{out}/seg",
                "--classifier", "heuristic", "--dump-stages", *cfg["bounds"]]
    if workload == "recut_cnn_96":
        return ["segment", "--preprocessed-in", f"{d}/art.pre.mvol.json",
                "--supervoxels-in", f"{d}/art.sv.mvol.json",
                "--forest-in", f"{d}/art.forest.txt", "--output-prefix", f"{out}/seg",
                "--classifier", "cnn", "--model-path", f"{d}/model.bin", *cfg["bounds"]]
    return ["train", "--dataset", f"{d}/patches", "--model-out", f"{out}/model.bin",
            "--seed", str(seed), *cfg["train"]]


def digest(out: str) -> str:
    """SHA-256 over the names and bytes of every file in ``out``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _report_selection(path: str) -> tuple[list[int], int]:
    """Selected node ids listed in ``report.txt``, and its segment count."""
    selected = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("root "):
            parts = line.split(": ", 1)[1].split(", ")
            selected.extend(int(p.split(" ", 1)[0]) for p in parts)
    return selected, int(lines[-1].split(" ", 1)[0])


def check_segment(out: str, sv_path: str, truth_path: str) -> tuple[list[str], dict]:
    """Exact-cover gate for one ``segment`` output, and its F-score.

    The label file must equal ``forest_to_labels(forest, sv, selected)``
    for the selection the report lists, and hold as many segments as the
    report says. The F-score and the time ``match_segments`` took are
    returned as quality numbers.
    """
    labels = read_volume(f"{out}/seg.labels.mvol.json")
    forest = load_forest(f"{out}/seg.forest.txt")
    selected, n_report = _report_selection(f"{out}/seg.report.txt")
    expected = forest_to_labels(forest, read_volume(sv_path), selected)
    failures = []
    if not np.array_equal(labels.labels, expected.labels):
        failures.append("labels differ from forest_to_labels(forest, sv, selected)")
    n_labels = len(np.unique(labels.labels))
    if not n_report == len(selected) == n_labels:
        failures.append(
            f"segment counts disagree: report {n_report}, listed {len(selected)}, labels {n_labels}"
        )
    truth = read_volume(truth_path)
    t0 = time.perf_counter()
    f_score = match_segments(labels, truth).f_score
    return failures, {"f_score": f_score, "match_s": time.perf_counter() - t0}


def check_train(out: str, cfg: dict) -> tuple[list[str], float]:
    """Loss-trace gate: finite, ``epochs + 1`` entries; the model loads.
    Returns the failures and ``trace[-1] / trace[0]``."""
    with open(f"{out}/model.bin.loss.txt") as fh:
        trace = [float(line) for line in fh if line.strip()]
    epochs = int(cfg["train"][cfg["train"].index("--epochs") + 1])
    failures = []
    if len(trace) != epochs + 1:
        failures.append(f"loss trace has {len(trace)} entries, expected {epochs + 1}")
    if not all(math.isfinite(v) for v in trace):
        failures.append("loss trace is not finite")
    load_model(f"{out}/model.bin")
    ratio = trace[-1] / trace[0] if trace and trace[0] else float("nan")
    return failures, ratio


def check(workload: str, d: str, out: str, cfg: dict) -> tuple[list[str], dict]:
    """Run the workload's gates on ``out``; returns the failures and the
    quality numbers ``f_score``, ``loss_ratio`` and ``match_s`` (0 where
    the workload has none)."""
    if workload == "train_cnn":
        failures, ratio = check_train(out, cfg)
        return failures, {"f_score": 0.0, "loss_ratio": ratio, "match_s": 0.0}
    sv = f"{out}/seg.sv.mvol.json" if workload == "segment_96" else f"{d}/art.sv.mvol.json"
    failures, quality = check_segment(out, sv, f"{d}/ph.truth.mvol.json")
    # The untrained CNN's cut is a fingerprint, not a quality claim.
    if workload == "segment_96" and quality["f_score"] < cfg["min_f_score"]:
        failures.append(f"F-score {quality['f_score']:.4f} below {cfg['min_f_score']}")
    return failures, {**quality, "loss_ratio": 0.0}
