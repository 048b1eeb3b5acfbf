"""End-to-end output hashes pinned to recorded values.

The CNN correction pass and the training step promise bit-identical
outputs across kernel rewrites. These tests run both through the CLI on
small fixed inputs and compare sha256 digests recorded from an earlier,
independently written implementation (whole-matrix im2col convolution,
transpose/argmax pooling, whole-volume patch extraction), so any drift
in a later kernel change shows up here instead of silently. The
fixture's phantom image and truth payloads are pinned too, so a change
to the renderer fails there rather than in every digest downstream.

The digests hold for float64 numpy on x86-64 with OpenBLAS; another BLAS
may round differently.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import cellforest

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
SYNTH_IMAGE_SHA256 = "9ea4209e0304b339b6f7249ed03047f89d5d3c3215ed2a7354d69ad1ba730b87"
SYNTH_TRUTH_SHA256 = "201b2216c14530d34b9b05793dc39670c26264715c8cc11df1ee52c37b2d00ff"


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
    assert sha256((root / "ph.image.raw").read_bytes()) == SYNTH_IMAGE_SHA256
    assert sha256((root / "ph.truth.raw").read_bytes()) == SYNTH_TRUTH_SHA256
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
        probs = np.array([astuple(classify(n)) for n in sorted(forest.nodes)])
        assert sha256(probs.astype("<f8").tobytes()) == pinned


def test_two_step_training_pinned(artifacts, tmp_path):
    # 3 patches at batch size 2: two ADAM steps, two loss evaluations
    model_out = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(artifacts / "ds"), "--model-out", str(model_out),
               "--epochs", "1", "--batch-size", "2", "--seed", "7"])
    assert rc == 0
    assert sha256(model_out.read_bytes()) == TRAIN_MODEL_SHA256
    assert sha256((tmp_path / "model.bin.loss.txt").read_bytes()) == TRAIN_LOSS_SHA256


@pytest.mark.parametrize("threads", ["1", "2"])
def test_two_step_training_pinned_at_each_blas_thread_count(artifacts, tmp_path, threads):
    # a fresh process, so the thread count OpenBLAS starts with is the one asked for
    model_out = tmp_path / "model.bin"
    src = str(Path(cellforest.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import sys; from cellforest.cli import main; from cellforest.cnn import _openblas; "
              "blas = _openblas(); print('threads', blas and blas[0]()); sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", script, "train", "--dataset", str(artifacts / "ds"), "--model-out",
         str(model_out), "--epochs", "1", "--batch-size", "2", "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] in (f"threads {threads}", "threads None")
    assert sha256(model_out.read_bytes()) == TRAIN_MODEL_SHA256
    assert sha256((tmp_path / "model.bin.loss.txt").read_bytes()) == TRAIN_LOSS_SHA256
