"""End-to-end output hashes pinned to recorded values.

The CNN correction pass and the training step promise bit-identical
outputs across kernel rewrites. These tests run both through the CLI on
small fixed inputs and compare sha256 digests recorded from an earlier,
independently written implementation (whole-matrix im2col convolution,
transpose/argmax pooling, whole-volume patch extraction), so any drift
in a later kernel change shows up here instead of silently.

The digests hold for float64 numpy on x86-64 with OpenBLAS; another BLAS
may round differently.
"""

import hashlib

import numpy as np
import pytest

from cellforest.classify import hypothesis_classifier
from cellforest.cli import main
from cellforest.cnn import init_model, save_model
from cellforest.merging import MergeParams, load_forest
from cellforest.volume import read_volume

SEG_FLAGS = ["--v-min-um3", "3000", "--v-max-um3", "16000"]

RECUT_LABELS_SHA256 = "b125f37c44b1c40c8e58eaebc2be520d3df97100e03f2e4ecb363047376fdc26"
RECUT_REPORT_SHA256 = "03ab2ef335dcb5a0a100cfb4a3d5f5e519da07f7abe15d9507bc28a21c23f176"
RECUT_PROBS_SHA256 = "1a7181244987c56f50660521fad5698ca7f9c8e3a456539f2874fc4008314f6a"
RECUT_HEURISTIC_PROBS_SHA256 = "78867cde2593f798ffc1c2b5b53067f6ce2e268d8dfa1c97256b049528f9eff9"
TRAIN_MODEL_SHA256 = "742482eebc6229f39b83b92876d988dd780dc8012dab41ac0a3e92fe98dd0a4d"
TRAIN_LOSS_SHA256 = "d04dc65dfae9681a062d500ec15b627b23b45e74c8cd6631cc26a663f7c9be31"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Stage artifacts of a 40^3 phantom, a patch set and a seeded model."""
    root = tmp_path_factory.mktemp("pinned")
    assert main(["synth", "--output-prefix", str(root / "ph"), "--dims", "40",
                 "--n-cells", "24", "--membrane-width", "2", "--noise-sigma", "0.05",
                 "--blur-sigma", "0.6", "--seed", "3", "--patches-dir", str(root / "ds"),
                 "--patches-per-class", "1"]) == 0
    assert main(["segment", str(root / "ph.image.mvol.json"), "--output-prefix",
                 str(root / "art"), "--dump-stages", *SEG_FLAGS]) == 0
    save_model(init_model(seed=5), str(root / "model.bin"))
    return root


def test_cnn_recut_outputs_pinned(artifacts, tmp_path):
    a = artifacts
    rc = main(["segment", "--preprocessed-in", str(a / "art.pre.mvol.json"),
               "--supervoxels-in", str(a / "art.sv.mvol.json"),
               "--forest-in", str(a / "art.forest.txt"),
               "--output-prefix", str(tmp_path / "seg"),
               "--classifier", "cnn", "--model-path", str(a / "model.bin"), *SEG_FLAGS])
    assert rc == 0
    assert sha256((tmp_path / "seg.labels.raw").read_bytes()) == RECUT_LABELS_SHA256
    assert sha256((tmp_path / "seg.report.txt").read_bytes()) == RECUT_REPORT_SHA256

    # the report rounds probabilities to 3 places; pin every bit of them
    # for every node, one batch-1 forward pass each as the resolver runs it
    # (and those of the heuristic, which sees background-masked patches)
    forest = load_forest(str(a / "art.forest.txt"))
    pre, sv = read_volume(str(a / "art.pre.mvol.json")), read_volume(str(a / "art.sv.mvol.json"))
    for model, pinned in ((init_model(seed=5), RECUT_PROBS_SHA256),
                          (None, RECUT_HEURISTIC_PROBS_SHA256)):
        classify = hypothesis_classifier(pre, forest, sv, MergeParams(3000.0, 16000.0), model)
        probs = np.array([classify(n).as_array() for n in sorted(forest.nodes)])
        assert sha256(probs.astype("<f8").tobytes()) == pinned


def test_two_step_training_pinned(artifacts, tmp_path):
    # 3 patches at batch size 2: two ADAM steps, two loss evaluations
    model_out = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(artifacts / "ds"), "--model-out", str(model_out),
               "--epochs", "1", "--batch-size", "2", "--seed", "7"])
    assert rc == 0
    assert sha256(model_out.read_bytes()) == TRAIN_MODEL_SHA256
    assert sha256((tmp_path / "model.bin.loss.txt").read_bytes()) == TRAIN_LOSS_SHA256
