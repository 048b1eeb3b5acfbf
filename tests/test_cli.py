"""Command-line behavior: exit codes, config handling, artifacts."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import locale
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import cellforest.classify as classify_module
import cellforest.cnn as cnn_module
from cellforest import cli, parallel
from cellforest.classify import CLASS_NAMES
from cellforest.cli import CliError, load_config, main, segment
from cellforest.cnn import TrainConfig
from cellforest.merging import MergeForest, MergeParams, load_forest, save_forest
from cellforest.metrics import match_segments
from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.preprocess import PreprocessParams
from cellforest.volume import LabelVolume, ScalarVolume, read_volume, write_volume
from checks import peak_bytes_per
from oracles import layer_reference, match_reference
from test_volume import MISTYPED_HEADER_VALUES


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def phantom(tmp_path_factory):
    """One small phantom shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("phantom")
    prefix = root / "ph"
    rc = main(
        [
            "synth",
            "--output-prefix",
            str(prefix),
            "--dims",
            "24",
            "--n-cells",
            "6",
            "--noise-sigma",
            "0.02",
            "--blur-sigma",
            "0.5",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return prefix


SEG_FLAGS = ["--v-min-um3", "200", "--v-max-um3", "4000"]


# ---------------------------------------------------------------------------
# exit codes and stage names


def test_module_entry_point_imports_cli_once():
    # cellforest/__init__.py resolves ``segment`` lazily; an eager import of
    # .cli made ``python -m cellforest.cli`` warn and run a second copy
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cellforest.cli", "eval", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def test_missing_input_is_io_failure(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        str(tmp_path / "nope.mvol.json"),
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
    )
    assert rc == 3
    assert err.startswith("error [stage io]:")


def test_missing_volume_bounds_is_config_failure(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
    )
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert "v-min" in err or "r-min" in err


def test_inverted_volume_bounds_is_config_failure(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        "--v-min-um3",
        "100",
        "--v-max-um3",
        "10",
    )
    assert rc == 2
    assert "[stage config]" in err


def test_cnn_classifier_requires_model_path(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
        "--classifier",
        "cnn",
    )
    assert rc == 2
    assert "model-path" in err


def test_bad_phantom_parameters_is_config_failure(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "synth",
        "--output-prefix",
        str(tmp_path / "p"),
        "--dims",
        "2",
        "--n-cells",
        "100",
    )
    assert rc == 2
    assert "[stage config]" in err


@pytest.mark.parametrize("spacing", ["0", "-1", "nan", "1,1,inf"])
def test_bad_phantom_spacing_is_config_failure(tmp_path, capsys, spacing):
    # used to render the whole Voronoi first and exit 4 in stage synth
    rc, _, err = run(capsys, "synth", "--output-prefix", str(tmp_path / "p"),
                     "--dims", "8", "--n-cells", "2", "--spacing", spacing)
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not list(tmp_path.iterdir())


# sha256 over the names and bytes of a ``synth --patches-dir`` directory
# (seed 2), recorded when the patch cutter rendered its own phantom.
PATCH_DIR_SHA256 = "2d435e71e8c8052c6ae9cdc15c42820a4ad7e25b2024e7ab3dcc6f458e082277"


def test_synth_with_patches_renders_the_phantom_once(tmp_path, capsys, monkeypatch):
    from cellforest import phantom as phantom_module

    renders = Counter()
    for module in (cli, phantom_module):
        def counted(*args, _fn=module.generate_phantom, **kwargs):
            renders["phantom"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, "generate_phantom", counted)
    rc, _, _ = run(capsys, "synth", "--output-prefix", str(tmp_path / "tp"), "--seed", "2",
                   "--dims", "32", "--n-cells", "8", "--blur-sigma", "0.5",
                   "--patches-dir", str(tmp_path / "patches"), "--patches-per-class", "1")
    assert rc == 0
    assert renders["phantom"] == 1
    h = hashlib.sha256()
    for path in sorted((tmp_path / "patches").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == PATCH_DIR_SHA256


@pytest.mark.parametrize(
    "option, value",
    [("sigma", "-1"), ("sigma", "nan"), ("sigma", "1,inf,1"), ("r-cl-max", "0"),
     ("sigma", "")],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_preprocess_parameters_is_config_failure(
    phantom, tmp_path, capsys, option, value, source
):
    # a negative or non-finite sigma used to skip smoothing on that axis
    # silently (exit 0), an empty one was ignored, and --r-cl-max 0 failed
    # later in stage preprocess
    extra = [f"--{option}", value]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        extra = ["--config", str(cfg)]
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
        *extra,
    )
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "option, value", [("r-cl-max", "abc"), ("v-min-um3", "x"), ("classifier", "bogus")]
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unparsable_value_is_config_failure(phantom, tmp_path, capsys, option, value, source):
    # a bad flag value used to print argparse's usage text instead of naming the stage
    extra = [f"--{option}", value]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        extra = ["--config", str(cfg)]
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--v-max-um3", "4000", *extra)
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert f"--{option}" in err
    assert not list(tmp_path.glob("out*"))


def test_synth_zero_patches_per_class_fails_before_rendering(tmp_path, capsys):
    # used to write the image and truth volumes, then exit 4 in stage synth
    rc, _, err = run(capsys, "synth", "--output-prefix", str(tmp_path / "p"), "--dims", "16",
                     "--n-cells", "4", "--patches-dir", str(tmp_path / "pd"),
                     "--patches-per-class", "0")
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not list(tmp_path.iterdir())


def test_synth_defaults_are_phantom_params_defaults(tmp_path, capsys):
    # the flags declare no defaults of their own; PhantomParams owns them
    (tmp_path / "cli").mkdir()
    (tmp_path / "lib").mkdir()
    rc, _, _ = run(capsys, "synth", "--output-prefix", str(tmp_path / "cli" / "ph"), "--dims", "24")
    assert rc == 0
    img, truth = generate_phantom(PhantomParams(dims=(24, 24, 24)))
    write_volume(img, str(tmp_path / "lib" / "ph.image.mvol.json"))
    write_volume(truth, str(tmp_path / "lib" / "ph.truth.mvol.json"))
    for name in ("image.raw", "image.mvol.json", "truth.raw", "truth.mvol.json"):
        cli_bytes = (tmp_path / "cli" / f"ph.{name}").read_bytes()
        assert cli_bytes == (tmp_path / "lib" / f"ph.{name}").read_bytes(), name


FIELD_COMMANDS = [
    ("synth", PhantomParams, ["--output-prefix"], {"--patches-dir", "--patches-per-class"}),
    ("train", TrainConfig, ["--dataset", "--model-out"], set()),
    ("segment", PreprocessParams, ["--output-prefix", "--v-min-um3", "--v-max-um3"],
     {"--config", "--r-min-um", "--classifier", "--model-path", "--dump-stages",
      "--preprocessed-in", "--supervoxels-in", "--forest-in"}),
]


def field_flags(params):
    return [f"--{f.name.replace('_', '-')}" for f in fields(params)]


@pytest.mark.parametrize("command, params, required, optional", FIELD_COMMANDS)
def test_synth_and_train_flags_are_the_parameter_fields(command, params, required, optional):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices[command]._actions for s in a.option_strings} - {"-h", "--help"}
    assert flags == set(field_flags(params)) | set(required) | optional


@pytest.mark.parametrize(
    "command, flag",
    [(c, flag) for c, params, *_ in FIELD_COMMANDS for flag in field_flags(params)],
)
def test_unparsable_field_flag_is_config_failure(tmp_path, capsys, command, flag):
    required = {"synth": ["--output-prefix", str(tmp_path / "p")],
                "train": ["--dataset", str(tmp_path / "ds"), "--model-out", str(tmp_path / "m")],
                "segment": ["--output-prefix", str(tmp_path / "out"), *SEG_FLAGS]}
    rc, _, err = run(capsys, command, *required[command], flag, "x")
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# config files


def test_load_config_parses_comments_and_hyphens(tmp_path):
    path = tmp_path / "seg.cfg"
    path.write_text(
        "# pipeline settings\n"
        "v-min-um3 = 150   # tuned by hand\n"
        "seed = 9\n"
        "\n"
        "dump_stages = yes\n"
    )
    cfg = load_config(path)
    assert cfg == {"v_min_um3": "150", "seed": "9", "dump_stages": "yes"}


def test_config_supplies_missing_options(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("v_min_um3 = 200\nv_max_um3 = 4000\nclassifier = heuristic\n")
    out = tmp_path / "out"
    rc, _, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(cfg),
        "--output-prefix",
        str(out),
    )
    assert rc == 0
    assert "classifier: heuristic" in (tmp_path / "out.report.txt").read_text()


def test_command_line_overrides_config(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("v_min_um3 = 200\nv_max_um3 = 4000\nclassifier = heuristic\n")
    rc, _, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(cfg),
        "--output-prefix",
        str(tmp_path / "out"),
        "--classifier",
        "none",
    )
    assert rc == 0
    assert "classifier: none" in (tmp_path / "out.report.txt").read_text()


def test_config_input_runs_segment(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"input = {phantom}.image.mvol.json\nv_min_um3 = 200\nv_max_um3 = 4000\n"
                   f"output_prefix = {tmp_path / 'file'}\ndump_stages = yes\n")
    rc, _, _ = run(capsys, "segment", "--config", str(cfg))
    assert rc == 0
    assert (tmp_path / "file.labels.mvol.json").exists()
    assert (tmp_path / "file.pre.mvol.json").exists()
    # an input on the command line beats the file's, as does --output-prefix
    cfg.write_text(f"input = {tmp_path / 'absent.mvol.json'}\nv_min_um3 = 200\n"
                   f"v_max_um3 = 4000\noutput_prefix = {tmp_path / 'file2'}\ndump_stages = no\n")
    rc, _, _ = run(capsys, "segment", "--config", str(cfg), f"{phantom}.image.mvol.json",
                   "--output-prefix", str(tmp_path / "flag"))
    assert rc == 0
    assert (tmp_path / "flag.labels.raw").read_bytes() == (tmp_path / "file.labels.raw").read_bytes()
    assert not list(tmp_path.glob("file2*"))
    assert not (tmp_path / "flag.pre.mvol.json").exists()


@pytest.mark.parametrize("option, in_file", [("r-cl-max", "2"), ("v-min-um3", "200")])
def test_explicit_zero_flag_beats_config(phantom, tmp_path, capsys, option, in_file):
    # 0 == False, so a zero flag used to count as unset and lose to the file
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"{option} = {in_file}\n")
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                     "--output-prefix", str(tmp_path / "out"), *SEG_FLAGS, f"--{option}", "0")
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not list(tmp_path.glob("out*"))


def test_unknown_config_key_rejected(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("v_min_um3 = 200\nvmax = 4000\n")
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(cfg),
        "--output-prefix",
        str(tmp_path / "out"),
    )
    assert rc == 2
    assert "vmax" in err
    # segment has no seed: nothing it computes is random
    cfg.write_text("seed = 9\n")
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                     "--output-prefix", str(tmp_path / "out"), *SEG_FLAGS)
    assert rc == 2
    assert "unknown config key 'seed'" in err


def test_malformed_config_line_rejected(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("just some words\n")
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(cfg),
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
    )
    assert rc == 2
    assert "[stage config]" in err


def test_missing_config_file_is_io_failure(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(tmp_path / "absent.cfg"),
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
    )
    assert rc == 3
    assert "[stage io]" in err


@pytest.mark.parametrize("value", ["ture", "on", "2", ""])
def test_dump_stages_not_a_switch_word_is_config_failure(phantom, tmp_path, capsys, value):
    # any value but 1/true/yes used to run without stage artifacts, exit 0
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"v_min_um3 = 200\ndump_stages = {value}\n")
    out = tmp_path / "out"
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                     "--output-prefix", str(out), "--v-max-um3", "4000")
    assert rc == 2
    assert err.startswith(f"error [stage config]: {cfg}:2: dump_stages")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("value", ["0", "false", "No"])
def test_dump_stages_off_words_run_without_artifacts(phantom, tmp_path, capsys, value):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"dump_stages = {value}\n")
    out = tmp_path / "out"
    rc, _, _ = run(capsys, "segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                   "--output-prefix", str(out), *SEG_FLAGS)
    assert rc == 0
    assert (tmp_path / "out.labels.raw").exists()
    assert not list(tmp_path.glob("out.pre.*")) and not list(tmp_path.glob("out.sv.*"))


@pytest.mark.parametrize("first", ["v_min_um3", "v-min-um3"])
def test_repeated_config_key_is_config_failure(phantom, tmp_path, capsys, first):
    # the last value used to win without a word: 5000 then 6000 segmented at 6000
    cfg = tmp_path / "seg.cfg"
    cfg.write_text(f"v_max_um3 = 24000\n{first} = 5000\n# later\nv_min_um3 = 6000\n")
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                     "--output-prefix", str(tmp_path / "out"))
    assert rc == 2
    assert err.startswith(f"error [stage config]: {cfg}:4: 'v_min_um3' is already set")
    assert not list(tmp_path.glob("out*"))


# The lines of a valid config file, and what an edit may put in a line: every
# key here fails in stage config on a bad value, and the values stay small
# enough for a 24^3 run.
CONFIG_LINES = ["v_min_um3 = 200", "v_max_um3 = 4000", "sigma = 1", "r_cl_max = 2",
                "classifier = heuristic", "dump_stages = yes"]
CONFIG_KEYS = ["v_min_um3", "v-max-um3", "sigma", "r_cl_max", "r_min_um", "classifier",
               "dump_stages", "dump-stages", "seed", "Sigma", "", "v_min_um3 v_max_um3"]
CONFIG_VALUES = ["", "0", "-1", "1", "2", "0.5", "3", "200", "4000", "1e-300", "nan", "inf",
                 "-inf", "1,2", "1,2,3", "1 0 1", "1,nan,1", "yes", "no", "true", "ture",
                 "TRUE", "heuristic", "none", "cnn", "x", "=", "# 5", "0x10", "1_0"]


@st.composite
def edited_config(draw):
    """The text of CONFIG_LINES with one line edited."""
    lines = list(CONFIG_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[i].partition(" = ")
    kind = draw(st.sampled_from(["key", "value", "duplicate", "drop", "no_equals", "text"]))
    if kind == "key":
        lines[i] = f"{draw(st.sampled_from(CONFIG_KEYS))} = {value}"
    elif kind == "value":
        lines[i] = f"{key} = {draw(st.sampled_from(CONFIG_VALUES))}"
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[i]
    elif kind == "no_equals":
        lines[i] = lines[i].replace("=", draw(st.sampled_from(["", ":", " "])))
    else:
        lines[i] = draw(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="\r\n"), max_size=16))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(edited_config())
def test_edited_config_runs_or_is_named_config_failure(phantom, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "seg.cfg"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["segment", f"{phantom}.image.mvol.json", "--config", str(cfg),
                       "--output-prefix", str(Path(tmp) / "out")])
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error [stage config]: "), err.getvalue()


def test_explicit_v_min_beats_radius_derivation(phantom, tmp_path, capsys):
    # r-min 10 um would derive v_min ~ 4189 um^3 > v_max and fail; the
    # explicit v-min must win so this run succeeds
    rc, _, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        "--v-min-um3",
        "200",
        "--r-min-um",
        "10",
        "--v-max-um3",
        "4000",
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# synth determinism


def test_synth_same_seed_identical_bytes(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        rc, _, _ = run(
            capsys,
            "synth",
            "--output-prefix",
            str(tmp_path / sub / "ph"),
            "--dims",
            "16",
            "--n-cells",
            "4",
            "--noise-sigma",
            "0.05",
            "--seed",
            "11",
        )
        assert rc == 0
    for name in ("ph.image.mvol.json", "ph.image.raw", "ph.truth.mvol.json", "ph.truth.raw"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_different_seed_differs(tmp_path, capsys):
    outs = []
    for seed in ("1", "2"):
        prefix = tmp_path / f"s{seed}"
        prefix.mkdir()
        run(
            capsys,
            "synth",
            "--output-prefix",
            str(prefix / "ph"),
            "--dims",
            "16",
            "--n-cells",
            "4",
            "--seed",
            seed,
        )
        outs.append((prefix / "ph.truth.raw").read_bytes())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------------------
# the full pipeline


def test_segment_writes_all_artifacts(phantom, tmp_path, capsys):
    out = tmp_path / "seg"
    rc, stdout, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(out),
        *SEG_FLAGS,
        "--dump-stages",
    )
    assert rc == 0
    assert "segments)" in stdout
    for suffix in (
        ".labels.mvol.json",
        ".forest.txt",
        ".report.txt",
        ".pre.mvol.json",
        ".sv.mvol.json",
    ):
        assert (tmp_path / f"seg{suffix}").exists(), suffix
    report = (tmp_path / "seg.report.txt").read_text()
    assert "classifier: none" in report
    assert "supervoxels:" in report

    labels = read_volume(f"{out}.labels.mvol.json")
    truth = read_volume(f"{phantom}.truth.mvol.json")
    assert labels.labels.shape == truth.labels.shape
    # sanity: the segmentation is at least loosely related to the truth
    assert match_segments(labels, truth).f_score > 0.2


def test_segment_resume_from_artifacts_is_equivalent(phantom, tmp_path, capsys):
    direct = tmp_path / "direct"
    rc, _, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(direct),
        *SEG_FLAGS,
        "--dump-stages",
    )
    assert rc == 0

    resumed = tmp_path / "resumed"
    rc, _, _ = run(
        capsys,
        "segment",
        "--preprocessed-in",
        f"{direct}.pre.mvol.json",
        "--supervoxels-in",
        f"{direct}.sv.mvol.json",
        "--output-prefix",
        str(resumed),
        *SEG_FLAGS,
    )
    assert rc == 0
    assert (tmp_path / "direct.labels.raw").read_bytes() == (
        tmp_path / "resumed.labels.raw"
    ).read_bytes()
    assert (tmp_path / "direct.forest.txt").read_text() == (
        tmp_path / "resumed.forest.txt"
    ).read_text()

    from_forest = tmp_path / "fromforest"
    rc, _, _ = run(
        capsys,
        "segment",
        "--preprocessed-in",
        f"{direct}.pre.mvol.json",
        "--supervoxels-in",
        f"{direct}.sv.mvol.json",
        "--forest-in",
        f"{direct}.forest.txt",
        "--output-prefix",
        str(from_forest),
        *SEG_FLAGS,
    )
    assert rc == 0
    assert (tmp_path / "direct.labels.raw").read_bytes() == (
        tmp_path / "fromforest.labels.raw"
    ).read_bytes()


def test_segment_resume_from_all_three_artifacts_is_byte_identical(
    phantom, tmp_path, capsys
):
    flags = [*SEG_FLAGS, "--classifier", "heuristic"]
    direct = tmp_path / "direct"
    rc, _, _ = run(
        capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix", str(direct),
        *flags, "--dump-stages",
    )
    assert rc == 0
    resumed = tmp_path / "resumed"
    rc, _, _ = run(
        capsys, "segment", "--preprocessed-in", f"{direct}.pre.mvol.json",
        "--supervoxels-in", f"{direct}.sv.mvol.json", "--forest-in", f"{direct}.forest.txt",
        "--output-prefix", str(resumed), *flags,
    )
    assert rc == 0
    for suffix in (".labels.raw", ".forest.txt", ".report.txt"):
        assert (tmp_path / f"direct{suffix}").read_bytes() == (
            tmp_path / f"resumed{suffix}"
        ).read_bytes(), suffix


def test_resume_dependency_validation(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "segment",
        "--supervoxels-in",
        f"{phantom}.truth.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
    )
    assert rc == 2
    assert "preprocessed-in" in err
    # --forest-in needs --supervoxels-in, which needs --preprocessed-in
    rc, _, err = run(capsys, "segment", "--supervoxels-in", "a", "--forest-in", "b",
                     "--classifier", "heuristic", "--output-prefix", str(tmp_path / "out"),
                     *SEG_FLAGS)
    assert rc == 2
    assert "--supervoxels-in requires --preprocessed-in" in err


def benchmark_hooks():
    """The ``(module, attr)`` names that ``perfbench/tracing.py`` wraps to time stages."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


def test_benchmark_hooks_see_each_stage_once(phantom, tmp_path, capsys, monkeypatch):
    # every wrapped name must exist: a missing one makes the tracer fail on entry
    hooks = benchmark_hooks()
    assert [(m, a) for m, a in hooks if not hasattr(importlib.import_module(m), a)] == []
    names = [attr for module, attr in hooks if module == "cellforest.cli"]
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    rc, _, _ = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                   str(tmp_path / "out"), "--classifier", "heuristic", *SEG_FLAGS)
    assert rc == 0
    stages = ["normalize", "gaussian_smooth", "iterative_closing", "find_local_minima",
              "seeded_watershed", "build_region_graph", "agglomerate", "resolve", "finalize"]
    assert {n: calls[n] for n in stages} == dict.fromkeys(stages, 1)


def test_benchmark_selftest_passes():
    # a change that breaks a benchmark hook, an output file or a gate fails here
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_segment_with_heuristic_classifier(phantom, tmp_path, capsys):
    out = tmp_path / "heur"
    rc, stdout, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(out),
        *SEG_FLAGS,
        "--classifier",
        "heuristic",
    )
    assert rc == 0
    assert "classifier: heuristic" in (tmp_path / "heur.report.txt").read_text()


def test_supervoxel_labels_passed_as_scalar_is_data_error(phantom, tmp_path, capsys):
    # handing the intensity image to --supervoxels-in must be refused
    rc, _, err = run(
        capsys,
        "segment",
        "--preprocessed-in",
        f"{phantom}.image.mvol.json",
        "--supervoxels-in",
        f"{phantom}.image.mvol.json",
        "--output-prefix",
        str(tmp_path / "out"),
        *SEG_FLAGS,
    )
    assert rc == 4
    assert "[stage data]" in err


@pytest.mark.parametrize(
    "flag,bad", [("input", np.nan), ("--preprocessed-in", np.inf)]
)
def test_non_finite_intensity_is_data_error(phantom, tmp_path, capsys, flag, bad):
    # one non-finite voxel has no rank in the flood order; it must not
    # silently collapse the volume into a single segment
    v = read_volume(f"{phantom}.image.mvol.json")
    data = v.data.astype(np.float32)
    data[3, 4, 5] = bad
    path = write_volume(ScalarVolume(data, v.spacing), str(tmp_path / "bad.mvol.json"))
    source = [path] if flag == "input" else [flag, path]
    rc, _, err = run(
        capsys, "segment", *source, "--output-prefix", str(tmp_path / "out"), *SEG_FLAGS
    )
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "finite" in err
    assert not (tmp_path / "out.labels.mvol.json").exists()


# ---------------------------------------------------------------------------
# resuming from a bad forest file

FOREST_FLAGS = ["--v-min-um3", "2500", "--v-max-um3", "12000"]


def forest_run(root, seed):
    """Stage artifacts of a 24^3 phantom whose forest holds merges."""
    assert main(["synth", "--output-prefix", str(root / f"ph{seed}"), "--dims", "24",
                 "--n-cells", "6", "--noise-sigma", "0.02", "--blur-sigma", "0.5",
                 "--seed", str(seed)]) == 0
    prefix = root / f"run{seed}"
    assert main(["segment", str(root / f"ph{seed}.image.mvol.json"), "--output-prefix",
                 str(prefix), "--dump-stages", *FOREST_FLAGS]) == 0
    return prefix


@pytest.fixture(scope="module")
def forest_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("forests")
    return forest_run(root, 3), forest_run(root, 4)


def resume(capsys, run_prefix, forest_path, out):
    return run(capsys, "segment", "--preprocessed-in", f"{run_prefix}.pre.mvol.json",
               "--supervoxels-in", f"{run_prefix}.sv.mvol.json", "--forest-in",
               str(forest_path), "--output-prefix", str(out), *FOREST_FLAGS)


def cut_node_lines(lines, n_nodes):
    return lines[: 2 + n_nodes - 2]  # the file ends two node lines early


def cut_leaf_map(lines, n_nodes):
    return lines[:-2]


def shifted_leaf_map(lines, n_nodes):
    head = lines[: 3 + n_nodes]
    return head + [f"{k},{k + 7}" for k in range(1, len(lines) - len(head) + 1)]


def no_leaf_map_line(lines, n_nodes):
    return [ln for ln in lines if ln != "leaf_map"]


def unknown_child(lines, n_nodes):
    merge = next(i for i in range(2, 2 + n_nodes) if lines[i].split(",")[1] != "-")
    f = lines[merge].split(",")
    f[2] = str(n_nodes + 50)
    return lines[:merge] + [",".join(f)] + lines[merge + 1 :]


def leaf_id_outside_range(lines, n_nodes):
    f = lines[2].split(",")
    assert f[0] == "1" and f[1] == "-"
    f[0] = str(n_nodes + 50)
    return lines[:2] + [",".join(f)] + lines[3:]


def voxel_count_off_by_one(lines, n_nodes):
    last = lines[1 + n_nodes].split(",")
    assert last[1] != "-"
    last[3] = str(int(last[3]) + 1)
    return lines[: 1 + n_nodes] + [",".join(last)] + lines[2 + n_nodes :]


def nan_merge_score(lines, n_nodes):
    # agglomerate merges only below 1; such a file used to resume with exit 0
    last = lines[1 + n_nodes].split(",")
    last[5] = "nan"
    return lines[: 1 + n_nodes] + [",".join(last)] + lines[2 + n_nodes :]


@pytest.mark.parametrize(
    "edit",
    [cut_node_lines, cut_leaf_map, shifted_leaf_map, no_leaf_map_line, unknown_child,
     leaf_id_outside_range, voxel_count_off_by_one, nan_merge_score],
)
def test_inconsistent_forest_file_is_io_failure(forest_runs, tmp_path, capsys, edit):
    good = forest_runs[0]
    lines = open(f"{good}.forest.txt").read().splitlines()
    n_nodes = int(lines[1].split()[1])
    assert n_nodes > int(lines[1].split()[3])  # the forest holds merges
    bad = tmp_path / "bad.forest.txt"
    bad.write_text("\n".join(edit(lines, n_nodes)) + "\n")
    rc, _, err = resume(capsys, good, bad, tmp_path / "out")
    assert rc == 3
    assert err.startswith("error [stage io]:")
    assert not (tmp_path / "out.labels.mvol.json").exists()


@pytest.mark.parametrize("fault, message", [("short", "expected 6 comma-separated fields"),
                                            ("letter", "invalid literal for int()")])
def test_malformed_forest_node_line_names_file_and_line(forest_runs, tmp_path, capsys, fault,
                                                         message):
    # the error used to read "list index out of range" or "invalid literal ...: 'x'" alone
    good = forest_runs[0]
    lines = open(f"{good}.forest.txt").read().splitlines()
    merge = next(i for i in range(2, len(lines)) if lines[i].split(",")[1] != "-")
    lines[merge] = lines[merge].rsplit(",", 1)[0] if fault == "short" else "x" + lines[merge]
    bad = tmp_path / "bad.forest.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, _, err = resume(capsys, good, bad, tmp_path / "out")
    assert rc == 3
    assert err.startswith(f"error [stage io]: {bad}:{merge + 1}: {message}")
    assert not (tmp_path / "out.labels.mvol.json").exists()


def test_forest_from_another_run_is_data_error(forest_runs, tmp_path, capsys):
    run3, run4 = forest_runs
    rc, _, _ = resume(capsys, run3, f"{run3}.forest.txt", tmp_path / "same")
    assert rc == 0
    rc, _, err = resume(capsys, run4, f"{run3}.forest.txt", tmp_path / "other")
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "leaf voxel counts" in err
    assert not (tmp_path / "other.labels.mvol.json").exists()


def test_forest_of_another_spacing_is_data_error(forest_runs, tmp_path, capsys):
    # the stage volumes rewritten at 2 um spacing keep the forest's voxel
    # counts, so only the node volumes, 8x off, tell the forest apart
    run3 = forest_runs[0]
    pre, sv = read_volume(f"{run3}.pre.mvol.json"), read_volume(f"{run3}.sv.mvol.json")
    write_volume(ScalarVolume(pre.data, (2.0,) * 3), str(tmp_path / "run.pre.mvol.json"))
    write_volume(LabelVolume(sv.labels, (2.0,) * 3), str(tmp_path / "run.sv.mvol.json"))
    rc, _, err = resume(capsys, tmp_path / "run", f"{run3}.forest.txt", tmp_path / "out")
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "node volumes" in err
    assert not (tmp_path / "out.labels.mvol.json").exists()


def test_config_accepts_every_segment_option(forest_runs, tmp_path, capsys):
    run3 = forest_runs[0]
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        f"input = {run3.parent / 'ph3.image.mvol.json'}\noutput_prefix = {tmp_path / 'out'}\n"
        "v_min_um3 = 2500\nv_max_um3 = 12000\nr_min_um = 50\nsigma = 1\nr_cl_max = 3\n"
        f"classifier = none\nmodel_path = {tmp_path / 'unused.bin'}\ndump_stages = yes\n"
        f"preprocessed_in = {run3}.pre.mvol.json\nsupervoxels_in = {run3}.sv.mvol.json\n"
        f"forest_in = {run3}.forest.txt\n"
    )
    rc, _, _ = run(capsys, "segment", "--config", str(cfg))
    assert rc == 0
    assert (tmp_path / "out.labels.raw").read_bytes() == Path(f"{run3}.labels.raw").read_bytes()


def small_run(root):
    """Stage artifacts of a 20^3 phantom, to resume a 24^3 run from."""
    assert main(["synth", "--output-prefix", str(root / "ph20"), "--dims", "20",
                 "--n-cells", "5", "--seed", "4"]) == 0
    assert main(["segment", str(root / "ph20.image.mvol.json"), "--output-prefix",
                 str(root / "run20"), "--dump-stages", *FOREST_FLAGS]) == 0
    return root / "run20"


@pytest.mark.parametrize("classifier", ["none", "heuristic"])
def test_supervoxels_of_another_shape_are_data_error(forest_runs, tmp_path, capsys, classifier):
    # under none this exited 0 with 3 segments; under heuristic it failed in
    # stage resolve with a numpy broadcast error
    other = small_run(tmp_path)
    rc, _, err = run(capsys, "segment", "--preprocessed-in", f"{forest_runs[0]}.pre.mvol.json",
                     "--supervoxels-in", f"{other}.sv.mvol.json", "--forest-in",
                     f"{other}.forest.txt", "--output-prefix", str(tmp_path / "out"),
                     "--classifier", classifier, *FOREST_FLAGS)
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "supervoxels" in err
    assert not (tmp_path / "out.labels.mvol.json").exists()


def tiny_cnn(path):
    """A model file with the patch size but few channels and units: fast to query."""
    cnn_module.save_model(cnn_module.init_model(conv_channels=(2, 4), fc_units=8, seed=1), path)
    return str(path)


def test_cnn_failure_in_a_helper_thread_is_resolve_failure(forest_runs, tmp_path, capsys,
                                                           monkeypatch, two_cpus):
    # the resolver's queries run on helper threads too; a query that raises
    # there (here with a numpy broadcast error) must still exit 4 in stage
    # resolve with one message line, not a thread's traceback
    run3 = forest_runs[0]
    forest = load_forest(f"{run3}.forest.txt")
    assert sum(bool(forest.nodes[r].children) for r in forest.roots) >= 2
    real, helper_failed = classify_module.cnn_probs, threading.Event()

    def cnn_probs(model, patch):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            return np.ones(3) + np.ones(2)
        helper_failed.wait(10)  # leave the other root to the helper
        return real(model, patch)

    monkeypatch.setattr(classify_module, "cnn_probs", cnn_probs)
    rc, _, err = run(capsys, "segment", "--preprocessed-in", f"{run3}.pre.mvol.json",
                     "--supervoxels-in", f"{run3}.sv.mvol.json", "--forest-in",
                     f"{run3}.forest.txt", "--output-prefix", str(tmp_path / "out"),
                     "--classifier", "cnn", "--model-path", tiny_cnn(tmp_path / "m.bin"),
                     *FOREST_FLAGS)
    assert helper_failed.is_set()
    assert rc == 4
    assert err.startswith("error [stage resolve]: classifier failed on node ")
    assert "could not be broadcast" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert two_cpus.log == [1, 4]
    assert not (tmp_path / "out.labels.mvol.json").exists()


def test_cnn_recut_starts_no_pool_in_a_helper_thread(forest_runs, tmp_path, capsys,
                                                     monkeypatch, two_cpus):
    # a wave's batch-1 forwards run on helper threads; their convolutions
    # must take the in-thread path instead of nesting a second pool
    run3 = forest_runs[0]
    pools, forwards = [], []

    class Pool(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(threading.current_thread())
            super().__init__(*args, **kwargs)

    def conv3d_forward(x, w, b):
        forwards.append((threading.current_thread(), len(x)))
        return real(x, w, b)

    real = cnn_module.conv3d_forward
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(cnn_module, "conv3d_forward", conv3d_forward)
    rc, _, _ = run(capsys, "segment", "--preprocessed-in", f"{run3}.pre.mvol.json",
                   "--supervoxels-in", f"{run3}.sv.mvol.json", "--forest-in",
                   f"{run3}.forest.txt", "--output-prefix", str(tmp_path / "out"),
                   "--classifier", "cnn", "--model-path", tiny_cnn(tmp_path / "m.bin"),
                   *FOREST_FLAGS)
    assert rc == 0
    assert pools and set(pools) == {threading.main_thread()}
    assert {n for _, n in forwards} == {1}
    assert {t for t, _ in forwards} - {threading.main_thread()}  # helpers ran forwards


@pytest.mark.parametrize("fails", [False, True])
def test_train_restores_blas_threads(patch_dir, tmp_path, capsys, monkeypatch, cpus, fails):
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter among the loaded libraries")
    get, put = blas
    cpus(2)
    if fails:  # a gradient factor of the wrong width: ADAM's block products raise
        real = cnn_module.backward

        def backward(*args):
            grads = real(*args)
            grads["fc1_w"] = cnn_module.OuterProduct(grads["fc1_w"].a, grads["fc1_w"].b[:, 1:])
            return grads

        monkeypatch.setattr(cnn_module, "backward", backward)
    old = get()
    try:
        put(2)
        rc, _, err = run(capsys, "train", "--dataset", str(patch_dir), "--model-out",
                         str(tmp_path / "m"), "--epochs", "1", "--batch-size", "3")
        assert get() == 2
    finally:
        put(old)
    assert rc == (4 if fails else 0)
    assert (tmp_path / "m").exists() != fails
    if fails:
        assert err.startswith("error [stage train]:")


def test_cnn_segment_restores_blas_threads(forest_runs, tmp_path, capsys):
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter among the loaded libraries")
    get, put = blas
    run3, old = forest_runs[0], get()
    try:
        put(2)
        rc, _, _ = run(capsys, "segment", "--preprocessed-in", f"{run3}.pre.mvol.json",
                       "--supervoxels-in", f"{run3}.sv.mvol.json", "--forest-in",
                       f"{run3}.forest.txt", "--output-prefix", str(tmp_path / "out"),
                       "--classifier", "cnn", "--model-path", tiny_cnn(tmp_path / "m.bin"),
                       *FOREST_FLAGS)
        assert rc == 0
        assert get() == 2
    finally:
        put(old)


def test_cnn_model_of_another_input_size_is_data_error(phantom, tmp_path, capsys):
    # such a model exited 0 here, where no node gets queried, and on a larger
    # phantom failed in stage resolve with a matmul shape error
    path = tmp_path / "m16.bin"
    small = cnn_module.init_model(input_size=16, conv_channels=(2, 4), fc_units=8, seed=1)
    cnn_module.save_model(small, path)
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--classifier", "cnn", "--model-path", str(path),
                     *SEG_FLAGS)
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "16^3" in err and "32^3" in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("model, code, stage_name", [("absent", 3, "io"), ("16^3", 4, "data")])
def test_cnn_model_is_checked_before_preprocessing(phantom, tmp_path, capsys, monkeypatch,
                                                   model, code, stage_name):
    # the model used to be read and checked in stage resolve, after the whole pipeline
    path = tmp_path / "m.bin"
    if model == "16^3":
        small = cnn_module.init_model(input_size=16, conv_channels=(2, 4), fc_units=8, seed=1)
        cnn_module.save_model(small, path)
    smoothed = []
    monkeypatch.setattr(cli, "gaussian_smooth", lambda *a: smoothed.append(a))
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--classifier", "cnn", "--model-path", str(path),
                     *SEG_FLAGS)
    assert (rc, smoothed) == (code, [])
    assert err.startswith(f"error [stage {stage_name}]:")
    assert not list(tmp_path.glob("out*"))


def test_cnn_model_of_another_class_count_is_io_error(phantom, tmp_path, capsys):
    path = Path(tiny_cnn(tmp_path / "m.bin"))
    header, _, payload = path.read_bytes().partition(b"\n")
    assert b'"n_classes": 3,' in header
    path.write_bytes(header.replace(b'"n_classes": 3,', b'"n_classes": 4,') + b"\n" + payload)
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--classifier", "cnn", "--model-path", str(path),
                     *SEG_FLAGS)
    assert rc == 3
    assert err.startswith(f"error [stage io]: {path}: header n_classes: expected 3")
    assert not list(tmp_path.glob("out*"))


def test_cnn_model_header_without_params_names_file_and_key(phantom, tmp_path, capsys):
    # the error used to read "'params'" alone
    path = Path(tiny_cnn(tmp_path / "m.bin"))
    header, _, payload = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    del meta["params"]
    path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--classifier", "cnn", "--model-path", str(path),
                     *SEG_FLAGS)
    assert rc == 3
    assert err.startswith(f'error [stage io]: {path}: header params[0].name: expected "conv1_w"')
    assert not list(tmp_path.glob("out*"))


BAD_SHAPES = {"string shape": (0, ["a"]), "negative shape": (1, [-1]), "8 TiB shape": (4, [2**40])}


@pytest.mark.parametrize("fault", ["list header", "entry without shape", *BAD_SHAPES,
                                   "precision f32", "raw payload", "24 TiB architecture"])
def test_malformed_cnn_model_header_is_io_failure(phantom, tmp_path, capsys, fault):
    # the error used to read "'list' object has no attribute 'get'" or "'shape'" alone;
    # the bad shapes named neither file nor entry, and 8 TiB was a MemoryError; precision
    # f32 ran and exited 0, and a volume payload failed with a bare UnicodeDecodeError;
    # a self-consistent header for 24 TiB of tensors was a MemoryError naming no file
    path = Path(tiny_cnn(tmp_path / "m.bin"))
    header, _, payload = path.read_bytes().partition(b"\n")
    meta, raw = json.loads(header), None
    if fault == "list header":
        meta, message = [meta], "not a cellforest model file"
    elif fault == "entry without shape":
        del meta["params"][0]["shape"]
        message = "header params[0].shape: expected [5, 5, 5, 1, 2]"
    elif fault == "precision f32":
        meta["precision"], message = "f32", 'header precision: expected "f64"'
    elif fault == "raw payload":
        raw, message = Path(f"{phantom}.image.raw").read_bytes(), "not a cellforest model file"
    elif fault == "24 TiB architecture":
        raw = cnn_module._model_header(4, (2, 3), 2**40, 3, 1) + b"\0" * 64
        message = "payload length mismatch"
    else:
        i, shape = BAD_SHAPES[fault]
        meta["params"][i]["shape"] = shape
        message = f"header params[{i}].shape: expected "
    path.write_bytes(raw or json.dumps(meta).encode() + b"\n" + payload)
    rc, _, err = run(capsys, "segment", f"{phantom}.image.mvol.json", "--output-prefix",
                     str(tmp_path / "out"), "--classifier", "cnn", "--model-path", str(path),
                     *SEG_FLAGS)
    assert rc == 3
    assert err.startswith(f"error [stage io]: {path}: {message}")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("fault", [*MISTYPED_HEADER_VALUES, "binary header"])
def test_mistyped_volume_header_is_io_failure(phantom, tmp_path, capsys, fault):
    # two spacings ran as (1, 2, 3) and exited 0; the others exited 3 with a bare
    # error (TypeError, OverflowError, UnicodeDecodeError) naming neither header nor key
    shutil.copy(f"{phantom}.image.raw", tmp_path)
    path = tmp_path / "in.mvol.json"
    if fault == "binary header":
        path.write_bytes(bytes(range(128, 256)))
        key = "invalid JSON header"
    else:
        key, value = MISTYPED_HEADER_VALUES[fault]
        header = json.loads(Path(f"{phantom}.image.mvol.json").read_text())
        path.write_text(json.dumps({**header, key: value}))
    rc, _, err = run(capsys, "segment", str(path), "--output-prefix", str(tmp_path / "out"),
                     *SEG_FLAGS)
    assert rc == 3
    assert err.startswith(f"error [stage io]: {path}: ") and key in err
    assert not list(tmp_path.glob("out*"))


def test_oversized_volume_payload_is_io_failure_without_a_read(phantom, tmp_path, capsys,
                                                              monkeypatch):
    header = json.loads(Path(f"{phantom}.image.mvol.json").read_text())
    path = tmp_path / "in.mvol.json"
    path.write_text(json.dumps({**header, "data": "in.raw"}))
    (tmp_path / "in.raw").touch()
    os.truncate(tmp_path / "in.raw", 50 << 20)  # sparse: an 8-voxel read took all 50 MiB
    monkeypatch.setattr(np, "fromfile", lambda *a, **k: pytest.fail("read a wrong-size payload"))
    rc, _, err = run(capsys, "segment", str(path), "--output-prefix", str(tmp_path / "out"),
                     *SEG_FLAGS)
    assert rc == 3
    assert err.startswith(f"error [stage io]: {tmp_path / 'in.raw'}: expected ")
    assert not list(tmp_path.glob("out*"))


# header values an edit may put in: the written ones, their neighbours and wrong JSON types
MVOL_VALUES = {
    "dims": [[24, 24, 24], [12, 48, 24], [24, 24, 12], [24, 24, 25], [0, 24, 24],
             [-24, 24, 24], [24.0, 24, 24], [24, 24], [24, 24, 24, 1], [True, 24, 24],
             ["24", 24, 24], [2**40, 2**40, 2**40], None, 24],
    "spacing": [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [0, 1, 1], [-1, 1, 1], [math.nan, 1, 1],
                [math.inf, 1, 1], [1e-320, 1, 1], [10**400, 1, 1], [1, 1], [1, 1, 1, 1],
                ["1", 1, 1], [True, 1, 1], None, "1"],
    "dtype": ["u8", "u16", "u32", "f32", "f64", "i4", "", "U32", None, ["f32"], 4],
    "data": ["run3.pre.raw", "run3.sv.raw", "", ".", "..", "nothing.raw", "run3.pre.raw/",
             "a\x00b", "\ud800", "sub/../run3.sv.raw", 5, None, ["run3.sv.raw"]],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4), max_leaves=6)


@st.composite
def mvol_edits(draw):
    """One to three edits of the preprocessed and the supervoxel MVOL pair, each
    (part, kind, what): a header key set to a value or dropped, one header byte
    replaced by zero to two bytes, or the payload cut or grown by zero bytes (2304
    bytes is one 24^2 slice of 4-byte values)."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        part, kind = draw(st.sampled_from(["pre", "sv"])), draw(st.sampled_from(
            ["value", "value", "drop", "byte", "payload"]))
        key = draw(st.sampled_from([*MVOL_VALUES, "extra"]))
        if kind == "value":  # a pooled value three times in four
            pool = st.sampled_from(MVOL_VALUES.get(key, [0]))
            what = (key, draw(pool if draw(st.integers(0, 3)) else JSON_VALUES))
        elif kind == "drop":
            what = key
        elif kind == "byte":
            what = (draw(st.integers(0, 10**6)), draw(st.binary(max_size=2)))
        else:
            what = draw(st.sampled_from([2304, -2304, 24**3]) | st.integers(-9, 9))
        edits.append((part, kind, what))
    return edits


def apply_mvol_edit(root, part, kind, what):
    header = root / f"run3.{part}.mvol.json"
    raw = header.read_bytes()
    if kind == "byte":
        at, new = what
        header.write_bytes(raw[: at % len(raw)] + new + raw[at % len(raw) + 1 :])
        return
    if kind == "payload":
        payload = root / f"run3.{part}.raw"
        os.truncate(payload, max(0, payload.stat().st_size + what))  # grows by zeros
        return
    try:
        fields_ = json.loads(raw)
    except ValueError:
        return  # an earlier byte edit left no JSON object to edit
    if not isinstance(fields_, dict):
        return
    if kind == "drop":
        fields_.pop(what, None)
    else:
        fields_[what[0]] = what[1]
    header.write_text(json.dumps(fields_))


def named_files(header):
    """The header path and, if its header names one, the payload path."""
    names = [str(header)]
    with contextlib.suppress(ValueError):
        fields_ = json.loads(header.read_bytes())
        if isinstance(fields_, dict) and isinstance(fields_.get("data"), str):
            names.append(os.path.join(header.parent, fields_["data"]))
    return names


@settings(max_examples=300, deadline=None)
@given(mvol_edits())
def test_edited_mvol_pair_reads_as_a_volume_or_is_named_io_failure(forest_runs,
                                                                   tmp_path_factory, edits):
    # each resumed volume either reads, and segment then runs or refuses it as
    # data (exit 0 or 4), or is refused as io naming its header or payload
    root = tmp_path_factory.mktemp("mvol")
    for part, suffix in itertools.product(("pre", "sv"), (".mvol.json", ".raw")):
        shutil.copy(f"{forest_runs[0]}.{part}{suffix}", root)
    for edit in edits:
        apply_mvol_edit(root, *edit)
    headers = [root / f"run3.{part}.mvol.json" for part in ("pre", "sv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["segment", "--preprocessed-in", str(headers[0]), "--supervoxels-in",
                   str(headers[1]), "--output-prefix", str(root / "out"), *FOREST_FLAGS])
    err = err.getvalue()
    for header, kind in zip(headers, (ScalarVolume, LabelVolume)):  # segment's read order
        try:
            vol = read_volume(str(header))
        except Exception:
            assert rc == 3 and err.startswith("error [stage io]: "), err
            assert any(name in err for name in named_files(header)), err
            break
        if not isinstance(vol, kind) or not np.isfinite(getattr(vol, "data", 0)).all():
            assert rc == 4 and err.startswith(f"error [stage data]: {header}: "), err
            break
    else:
        assert rc == 0 or re.match(r"error \[stage (data|merge)\]: ", err), err
    assert (root / "out.labels.mvol.json").exists() == (rc == 0)


def test_supervoxels_of_another_spacing_are_data_error(forest_runs, tmp_path, capsys):
    run3 = forest_runs[0]
    sv = read_volume(f"{run3}.sv.mvol.json")
    path = write_volume(LabelVolume(sv.labels, (2.0, 1.0, 1.0)), str(tmp_path / "sv.mvol.json"))
    rc, _, err = run(capsys, "segment", "--preprocessed-in", f"{run3}.pre.mvol.json",
                     "--supervoxels-in", path, "--output-prefix", str(tmp_path / "out"),
                     *FOREST_FLAGS)
    assert rc == 4
    assert err.startswith("error [stage data]:")


@pytest.mark.parametrize("forest", [True, False], ids=["forest_in", "merged"])
def test_supervoxels_with_label_zero_are_refused(tmp_path, capsys, forest):
    # two label-0 voxels used to pass a given forest whose leaf counts matched the
    # labels 1 and 2 (exit 0, labels {0, 1, 2}); merging from them fails in merge
    labels = np.ones((8, 8, 8), np.uint32)
    labels[4:] = 2
    labels[0, 0, :2] = 0
    pre = write_volume(ScalarVolume(np.full(labels.shape, 0.5, np.float32)), str(tmp_path / "pre"))
    sv = write_volume(LabelVolume(labels), str(tmp_path / "sv"))
    leaves = MergeForest(2)
    for leaf in (1, 2):
        leaves.add_leaf(leaf, int((labels == leaf).sum()), float((labels == leaf).sum()))
    save_forest(leaves, str(tmp_path / "forest.txt"))
    given = ["--forest-in", str(tmp_path / "forest.txt")] if forest else []
    rc, _, err = run(capsys, "segment", "--preprocessed-in", pre, "--supervoxels-in", sv,
                     *given, "--output-prefix", str(tmp_path / "out"), *FOREST_FLAGS)
    assert rc == 4
    assert err.startswith(f"error [stage {'data' if forest else 'merge'}]:"), err
    assert not (tmp_path / "out.labels.mvol.json").exists()


@pytest.mark.parametrize("classifier", ["none", "heuristic"])
def test_preprocessed_volume_outside_unit_range_is_data_error(
    phantom, tmp_path, capsys, classifier
):
    # a raw u16 stack handed to --preprocessed-in used to exit 0 under none
    img = read_volume(f"{phantom}.image.mvol.json")
    stack = ScalarVolume(np.round(img.data * 3000 + 200).astype(np.uint16), img.spacing)
    path = write_volume(stack, str(tmp_path / "u16.mvol.json"))
    rc, _, err = run(capsys, "segment", "--preprocessed-in", path, "--output-prefix",
                     str(tmp_path / "out"), "--classifier", classifier, *SEG_FLAGS)
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "[0, 1]" in err
    assert not (tmp_path / "out.labels.mvol.json").exists()


def test_library_segment_checks_resumed_artifacts(forest_runs):
    run3 = forest_runs[0]
    pre = read_volume(f"{run3}.pre.mvol.json")
    sv = read_volume(f"{run3}.sv.mvol.json")
    params = MergeParams(v_min=2500.0, v_max=12000.0)
    assert segment(None, params, pre=pre, sv=sv, forest=load_forest(f"{run3}.forest.txt"))
    bad = [
        {"pre": ScalarVolume(pre.data * 2, pre.spacing)},
        {"pre": ScalarVolume(pre.data - 0.5, pre.spacing)},
        {"pre": pre, "sv": LabelVolume(sv.labels[1:], sv.spacing)},
        {"pre": pre, "sv": LabelVolume(sv.labels, (1.0, 1.0, 3.0))},
    ]
    for given in bad:
        with pytest.raises(CliError) as exc:
            segment(None, params, **given)
        assert (exc.value.stage, exc.value.code) == ("data", 4)


@pytest.mark.parametrize("classifier", ["none", "heuristic"])
def test_whole_run_peak_memory_per_voxel(cpus, classifier):
    # the segment_96 kind at 64^3 (27 cells), input f32 as read from MVOL, above
    # which the run measured 39.0-39.6 bytes per voxel under either classifier:
    # one more f64 volume kept alive through the run fails
    cpus(2)
    img, _ = generate_phantom(PhantomParams(dims=(64, 64, 64), n_cells=27, membrane_width=2,
                                            attenuation=0.99, noise_sigma=0.05,
                                            blur_sigma=0.6, seed=1))
    vol = ScalarVolume(img.data.astype(np.float32), img.spacing)
    params = MergeParams(v_min=5000.0, v_max=24000.0)
    per_voxel = peak_bytes_per(lambda: segment(vol, params, classifier=classifier), vol.data.size)
    assert per_voxel <= 40.5, f"segment peak {per_voxel:.1f} bytes per voxel"


def test_resumed_supervoxel_id_above_the_leaves_fails_before_counting(tmp_path):
    # one id 2**24 in 8 supervoxels sized a 134 MB bincount before the check failed
    labels = np.arange(1, 9, dtype=np.uint32).reshape(2, 2, 2)
    labels[1, 1, 1] = 2**24
    forest = MergeForest(8)
    for leaf in range(1, 9):
        forest.add_leaf(leaf, 1, 1.0)
    forest.roots = list(range(1, 9))
    pre, sv = ScalarVolume(np.full((2, 2, 2), 0.5)), LabelVolume(labels)
    errors = []

    def resume():
        try:
            segment(None, MergeParams(v_min=1.0, v_max=8.0), pre=pre, sv=sv, forest=forest)
        except CliError as exc:
            errors.append(exc)

    assert peak_bytes_per(resume) < 1_000_000
    assert [(e.stage, e.code) for e in errors] == [("data", 4)]
    assert "leaf voxel counts disagree" in str(errors[0])


# ---------------------------------------------------------------------------
# evaluation command


def test_eval_self_comparison_is_perfect(phantom, tmp_path, capsys):
    rc, out, _ = run(
        capsys,
        "eval",
        f"{phantom}.truth.mvol.json",
        f"{phantom}.truth.mvol.json",
        "--name",
        "self",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["Algorithm", "Precision", "Recall", "F-Score"]
    assert "self" in lines[2]
    assert "1.000" in lines[2]


def test_eval_json_output(phantom, tmp_path, capsys):
    import json

    json_path = tmp_path / "scores.json"
    rc, _, _ = run(
        capsys,
        "eval",
        f"{phantom}.truth.mvol.json",
        f"{phantom}.truth.mvol.json",
        "--json-out",
        str(json_path),
    )
    assert rc == 0
    data = json.loads(json_path.read_text().strip())
    assert data["f_score"] == 1.0


def test_eval_rejects_scalar_volume(phantom, tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "eval",
        f"{phantom}.image.mvol.json",
        f"{phantom}.truth.mvol.json",
    )
    assert rc == 4
    assert "label volume" in err


def test_eval_layer_mask_rows(phantom, capsys, tmp_path):
    rc, out, _ = run(
        capsys,
        "eval",
        f"{phantom}.truth.mvol.json",
        f"{phantom}.truth.mvol.json",
        "--layer-mask",
        f"{phantom}.truth.mvol.json",
        "--name",
        "lmtest",
    )
    assert rc == 0
    assert "lmtest[layer 1]" in out
    assert out.count("[layer") >= 2


def test_eval_layer_mask_that_splits_a_cell_is_eval_error(tmp_path, capsys):
    # cell 1 in layers 1 and 2 used to score as a true positive in both (exit 0)
    truth = np.ones((4, 4, 4), dtype=np.uint32)
    truth[:, :, 2:] = 2
    layers = truth.copy()
    layers[0, 0, 0] = 2
    write_volume(LabelVolume(truth), str(tmp_path / "truth.mvol.json"))
    write_volume(LabelVolume(layers), str(tmp_path / "layers.mvol.json"))
    rc, out, err = run(capsys, "eval", str(tmp_path / "truth.mvol.json"),
                       str(tmp_path / "truth.mvol.json"), "--layer-mask",
                       str(tmp_path / "layers.mvol.json"))
    assert rc == 4
    assert err.startswith("error [stage eval]:")
    assert "truth cell 1 " in err
    assert out == ""


@pytest.mark.parametrize("pair", ["pred", "layer_mask"])
def test_eval_spacing_mismatch_is_eval_error(phantom, tmp_path, capsys, pair):
    # a pred at 1 um against a truth at 2 um of the same dims used to score F 1.000,
    # and so did a layer mask at 3 um
    truth = read_volume(f"{phantom}.truth.mvol.json")
    paths = {name: write_volume(LabelVolume(truth.labels, (s, s, s)), str(tmp_path / name))
             for name, s in (("pred", 1.0), ("truth", 2.0), ("layer_mask", 3.0))}
    paths["pred" if pair == "layer_mask" else "layer_mask"] = paths["truth"]
    rc, out, err = run(capsys, "eval", paths["pred"], paths["truth"], "--layer-mask",
                       paths["layer_mask"])
    assert rc == 4
    assert err.startswith("error [stage eval]: spacing mismatch: ")
    assert paths[pair] in err and paths["truth"] in err
    assert out == ""


def test_eval_ids_near_the_u32_maximum(tmp_path, capsys):
    # pred 2**31 against truth (2**32 - 1, 1) exited 0 with F 1.000, because its int64
    # keys wrapped; the same shape with ids 7 against (9, 1) scores 0.000
    scores = []
    for pred, truth in (([2**31] * 2, [2**32 - 1, 1]), ([7, 7], [9, 1])):
        paths = [write_volume(LabelVolume(np.array([[ids]], dtype=np.uint32)), str(tmp_path / n))
                 for n, ids in (("pred", pred), ("truth", truth))]
        rc, out, err = run(capsys, "eval", *paths, "--json-out", str(tmp_path / "s.json"))
        assert (rc, err) == (0, "")
        scores.append(json.loads((tmp_path / "s.json").read_text()))
    assert scores[0] == scores[1]
    assert [scores[0][k] for k in ("tp", "fp", "fn", "f_score")] == [0, 1, 2, 0.0]


U32_IDS = st.sampled_from([0, 1, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@st.composite
def eval_inputs(draw):
    """Pred, truth and an optional layer mask for ``eval``, each (array, spacing),
    an array of float32 standing for a scalar payload, plus a ``--background`` list.
    At most one file of a case has another dims, spacing or payload kind."""
    dims3 = st.tuples(*[st.integers(1, 3)] * 3)
    shape = draw(dims3)
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 2.0)]))
    ids = draw(st.lists(U32_IDS, min_size=1, max_size=4))
    fault = draw(st.sampled_from([None, None, None, "dims", "spacing", "scalar"]))
    odd = draw(st.sampled_from(["pred", "truth", "mask"]))

    def volume(name, palette, arr=None):
        mine = fault if name == odd else None
        dims = draw(dims3) if mine == "dims" else shape
        if arr is None or arr.shape != dims:
            arr = np.array(draw(st.lists(st.sampled_from(palette), min_size=math.prod(dims),
                                         max_size=math.prod(dims))), np.uint32).reshape(dims)
        kind = np.float32 if mine == "scalar" else np.uint32
        return arr.astype(kind), (0.5, 0.5, 0.5) if mine == "spacing" else spacing

    truth = volume("truth", ids)
    pred = volume("pred", ids + draw(st.lists(U32_IDS, max_size=2)))
    mask = None
    if draw(st.booleans()):
        layers = draw(st.lists(st.sampled_from([0, 1, 2, 2**32 - 1]), min_size=1, max_size=3))
        of = {i: draw(st.sampled_from(layers)) for i in ids}
        # a scalar truth fails before the mask is read, and its ids need not round-trip
        per_cell = np.vectorize(lambda i: of.get(i, 0), otypes=[np.uint32])(truth[0].astype(int))
        # one layer per truth id, or one per voxel, which may split a cell
        mask = volume("mask", layers, per_cell if draw(st.booleans()) else None)
    background = draw(st.lists(st.sampled_from(ids) | st.integers(-2, 2**32 + 1), max_size=3))
    return pred, truth, mask, background


def expected_eval_failure(pred, truth, mask, background):
    """The (stage, exit code) that ``eval`` must fail with, or None."""
    vols = [v for v in (pred, truth, mask) if v is not None]
    if any(arr.dtype != np.uint32 for arr, _ in vols):
        return "data"
    if any(v[1] != truth[1] for v in vols) or any(v[0].shape != truth[0].shape for v in vols):
        return "eval"
    if mask is not None:
        for cell in np.unique(truth[0]):
            if cell != 0 and int(cell) not in background:
                if np.unique(mask[0][truth[0] == cell]).size > 1:
                    return "eval"
    return None


@settings(max_examples=150, deadline=None)
@given(eval_inputs())
def test_eval_fuzz_scores_equal_reference_or_fails_with_its_stage(case):
    # ids over the whole u32 range, mismatched dims and spacings, scalar payloads,
    # masks that split a cell and --background lists
    pred, truth, mask, background = case
    with tempfile.TemporaryDirectory() as root:
        argv = ["eval"]
        for name, vol in (("pred", pred), ("truth", truth), ("mask", mask)):
            if vol is not None:
                kind = LabelVolume if vol[0].dtype == np.uint32 else ScalarVolume
                argv += ["--layer-mask"] * (name == "mask") + [
                    write_volume(kind(vol[0], vol[1]), os.path.join(root, name))]
        json_out = os.path.join(root, "scores.json")
        argv += ["--json-out", json_out, f"--background={','.join(map(str, background))}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        failure = expected_eval_failure(pred, truth, mask, frozenset(background))
        event(f"{'no mask' if mask is None else 'mask'}, {failure or 'scored'}")
        if failure is not None:
            assert (rc, out.getvalue()) == (4, "")
            assert err.getvalue().startswith(f"error [stage {failure}]: "), err.getvalue()
            return
        assert (rc, err.getvalue()) == (0, "")
        with open(json_out) as fh:
            rows = [json.loads(line) for line in fh]
    bg = frozenset(background)
    if mask is None:
        expect = {"segmentation": match_reference(pred[0], truth[0], bg)}
    else:
        expect = {f"segmentation[layer {layer}]": ref
                  for layer, ref in layer_reference(pred[0], truth[0], mask[0], bg).items()}
    assert [row["algorithm"] for row in rows] == list(expect)
    for row, (matches, tp, fp, fn, precision, recall, f) in zip(rows, expect.values()):
        assert (row["tp"], row["fp"], row["fn"], row["n_matches"]) == (tp, fp, fn, len(matches))
        assert (row["precision"], row["recall"], row["f_score"]) == (precision, recall, f)


def test_eval_bad_background_is_config_failure(phantom, capsys):
    # used to exit 1 with a ValueError traceback
    rc, _, err = run(capsys, "eval", f"{phantom}.truth.mvol.json", f"{phantom}.truth.mvol.json",
                     "--background", "x")
    assert rc == 2
    assert err.startswith("error [stage config]:")


# ---------------------------------------------------------------------------
# training command (kept minimal: one ADAM step at full patch size)


@pytest.fixture(scope="module")
def patch_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("patches")
    rc = main(
        [
            "synth",
            "--output-prefix",
            str(root / "ph"),
            "--dims",
            "24",
            "--n-cells",
            "6",
            "--noise-sigma",
            "0.02",
            "--seed",
            "3",
            "--patches-dir",
            str(root / "ds"),
            "--patches-per-class",
            "1",
        ]
    )
    assert rc == 0
    return root / "ds"


def test_train_writes_model_and_loss_trace(patch_dir, tmp_path, capsys):
    model_out = tmp_path / "net.model"
    rc, stdout, _ = run(
        capsys,
        "train",
        "--dataset",
        str(patch_dir),
        "--model-out",
        str(model_out),
        "--epochs",
        "1",
        "--batch-size",
        "3",
        "--seed",
        "0",
    )
    assert rc == 0
    assert "wrote" in stdout
    assert model_out.exists()
    trace = (tmp_path / "net.model.loss.txt").read_text().strip().split("\n")
    assert len(trace) == 2
    float(trace[0]), float(trace[1])

    from cellforest.cnn import load_model

    model = load_model(model_out)
    assert model.input_size == 32


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--keep-prob", "0"),
        ("--keep-prob", "nan"),
        ("--batch-size", "0"),
        ("--epochs", "0"),
        ("--learning-rate", "-1"),
        ("--learning-rate", "0"),
        ("--learning-rate", "nan"),
        ("--learning-rate", "inf"),
    ],
)
def test_train_bad_setting_is_config_error(patch_dir, tmp_path, capsys, flag, value):
    model_out = tmp_path / "m"
    rc, _, err = run(
        capsys, "train", "--dataset", str(patch_dir), "--model-out", str(model_out), flag, value
    )
    assert rc == 2
    assert err.startswith("error [stage config]:")
    assert not model_out.exists()


def test_train_missing_dataset_is_data_error(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "train",
        "--dataset",
        str(tmp_path / "absent"),
        "--model-out",
        str(tmp_path / "m"),
    )
    assert rc == 4
    assert "[stage data]" in err


def never(*args, **kwargs):
    raise AssertionError("a stage ran before the output directory was checked")


@pytest.mark.parametrize("command", ["train", "segment", "synth"])
def test_missing_output_directory_fails_before_any_stage(
    command, patch_dir, phantom, tmp_path, capsys, monkeypatch
):
    # training took 4.5 s, and a 256^3 segment about 27 s, before failing to write
    out = tmp_path / "absent" / "out"
    argv, stage_fn = {
        "train": (["--dataset", str(patch_dir), "--model-out", str(out)], "train"),
        "segment": ([f"{phantom}.image.mvol.json", "--output-prefix", str(out), *SEG_FLAGS],
                    "segment"),
        "synth": (["--output-prefix", str(out), "--dims", "24"], "generate_phantom"),
    }[command]
    monkeypatch.setattr(cli, stage_fn, never)
    rc, _, err = run(capsys, command, *argv)
    assert rc == 3
    assert err == f"error [stage io]: {out}: no such directory {str(tmp_path / 'absent')!r}\n"
    assert not (tmp_path / "absent").exists()


def test_train_missing_class_is_data_error(patch_dir, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(patch_dir, broken)
    index = broken / "index.txt"
    lines = [l for l in index.read_text().strip().split("\n") if not l.endswith(",over")]
    index.write_text("\n".join(lines) + "\n")
    rc, _, err = run(
        capsys,
        "train",
        "--dataset",
        str(broken),
        "--model-out",
        str(tmp_path / "m"),
        "--epochs",
        "1",
    )
    assert rc == 4
    assert "[stage data]" in err


def test_train_non_finite_patch_is_data_error(patch_dir, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(patch_dir, broken)
    name = (broken / "index.txt").read_text().split("\n")[0].split(",")[0]
    patch = read_volume(broken / name)
    data = patch.data.copy()
    data[0, 0, 0] = np.nan
    write_volume(ScalarVolume(data, patch.spacing), broken / name)
    rc, _, err = run(
        capsys, "train", "--dataset", str(broken), "--model-out", str(tmp_path / "m")
    )
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert name in err and "finite" in err


def test_train_label_volume_patch_is_data_error(patch_dir, tmp_path, capsys):
    # a u32 payload reads as a LabelVolume, which has labels, not data
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(patch_dir, broken)
    name = (broken / "index.txt").read_text().split("\n")[0].split(",")[0]
    write_volume(LabelVolume(np.ones((32, 32, 32), dtype=np.uint32)), broken / name)
    rc, _, err = run(
        capsys, "train", "--dataset", str(broken), "--model-out", str(tmp_path / "m")
    )
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert name in err and "label volume" in err


@pytest.fixture(scope="module")
def fuzz_patches(tmp_path_factory):
    """A patch directory: four valid patches named in BASE_INDEX, beside a 16^3 patch, a
    label volume, a patch with a value above 1 and a header whose payload is short."""
    root = tmp_path_factory.mktemp("fuzz_patches")
    rng = np.random.default_rng(40)
    patches = {f"p{i}.mvol.json": rng.random((32, 32, 32)).astype(np.float32) for i in range(4)}
    for name, data in patches.items():
        write_volume(ScalarVolume(data), root / name)
    write_volume(ScalarVolume(np.zeros((16, 16, 16), np.float32)), root / "small.mvol.json")
    write_volume(LabelVolume(np.ones((32, 32, 32), np.uint32)), root / "labels.mvol.json")
    write_volume(ScalarVolume(np.full((32, 32, 32), 1.5, np.float32)), root / "hot.mvol.json")
    write_volume(ScalarVolume(np.zeros((32, 32, 32), np.float32)), root / "short.mvol.json")
    os.truncate(root / "short.raw", 100)
    return root, patches


BASE_INDEX = ["p0.mvol.json,under", "p1.mvol.json,correct", "p2.mvol.json,over",
              "p3.mvol.json,correct"]
NAME_POOL = ["p0.mvol.json", "p3.mvol.json", "small.mvol.json", "labels.mvol.json",
             "hot.mvol.json", "short.mvol.json", "absent.mvol.json", "p0.raw", "p0", "",
             ".", "index.txt", "../p0.mvol.json", "p0.mvol.json\x00"]
CLASS_POOL = ["under", "correct", "over", "Under", "", "overr", "correct,over"]


@st.composite
def edited_index(draw):
    """BASE_INDEX's bytes after one to three line edits: a line dropped, duplicated,
    swapped, padded with whitespace, given another name, class or separator, or
    inserted from random text; then joined by one line ending, sometimes with bytes
    that are not UTF-8 appended."""
    lines = list(BASE_INDEX)
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["drop", "duplicate", "swap", "pad", "name", "class", "separator"] if lines else []
        kind = draw(st.sampled_from([*kinds, "insert"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "pad":
            space = st.sampled_from(["", " ", "\t", "\x0b", "\xa0"])
            lines[i] = draw(space) + lines[i] + draw(space)
        elif kind in ("name", "class"):
            name, _, cls = lines[i].partition(",")
            pool = st.sampled_from(NAME_POOL if kind == "name" else CLASS_POOL)
            new = draw(pool | st.text(max_size=6))
            lines[i] = f"{new},{cls}" if kind == "name" else f"{name},{new}"
        elif kind == "separator":
            lines[i] = lines[i].replace(",", draw(st.sampled_from([";", ", ", " ,", ",,", ""])))
        else:
            lines.insert(i, draw(st.text(max_size=12)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode()
    return raw + draw(st.sampled_from([b"", b"", b"\xff\xfe"]))


def index_oracle(raw, valid):
    """The (name, class) rows ``raw`` names, or None if ``train`` must refuse it: every
    non-blank line, whitespace stripped, is a name from ``valid`` and a class, and every
    class has a row."""
    try:
        text = raw.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return None
    rows, classes = [], ["under", "correct", "over"]
    for line in re.split(r"\r\n|\r|\n", text):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if len(fields) != 2 or fields[0] not in valid or fields[1] not in classes:
            return None
        rows.append(tuple(fields))
    return rows if {cls for _, cls in rows} == set(classes) else None


@settings(max_examples=80, deadline=None)
@given(edited_index())
def test_train_loads_exactly_a_valid_index_and_refuses_others(fuzz_patches, raw):
    root, patches = fuzz_patches
    (root / "index.txt").write_bytes(raw)
    model_out = root / "net.model"
    model_out.unlink(missing_ok=True)
    seen, real_train = [], cli.train

    def small_train(x, classes, config):  # the run on 8^3 crops, for speed
        seen.append((x.copy(), classes.copy()))
        return real_train(x[:, :8, :8, :8], classes, config)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stderr(err):
        m.setattr(cli, "train", small_train)
        rc = main(["train", "--dataset", str(root), "--model-out", str(model_out), "--epochs", "1"])
    rows = index_oracle(raw, patches)
    if rows is None:
        assert rc in (2, 3, 4), rc
        assert re.match(r"error \[stage (config|io|data|train)\]: ", err.getvalue()), err.getvalue()
        assert not model_out.exists()
        return
    assert rc == 0, err.getvalue()
    (x, classes), = seen
    assert np.array_equal(x, np.stack([patches[name] for name, _ in rows]))
    assert [CLASS_NAMES[c] for c in classes] == [cls for _, cls in rows]
    assert model_out.exists()
