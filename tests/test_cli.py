"""Command-line behavior: exit codes, config handling, artifacts."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cellforest import cli
from cellforest.cli import load_config, main
from cellforest.metrics import match_segments
from cellforest.volume import ScalarVolume, read_volume, write_volume


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


@pytest.mark.parametrize(
    "option, value",
    [("sigma", "-1"), ("sigma", "nan"), ("sigma", "1,inf,1"), ("r-cl-max", "0")],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_preprocess_parameters_is_config_failure(
    phantom, tmp_path, capsys, option, value, source
):
    # a negative or non-finite sigma used to skip smoothing on that axis
    # silently (exit 0), and --r-cl-max 0 failed later in stage preprocess
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
    cfg.write_text("v_min_um3 = 200\nv_max_um3 = 4000\nseed = 9\n")
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
    assert "seed: 9" in (tmp_path / "out.report.txt").read_text()


def test_command_line_overrides_config(phantom, tmp_path, capsys):
    cfg = tmp_path / "seg.cfg"
    cfg.write_text("v_min_um3 = 200\nv_max_um3 = 4000\nseed = 9\n")
    rc, _, _ = run(
        capsys,
        "segment",
        f"{phantom}.image.mvol.json",
        "--config",
        str(cfg),
        "--output-prefix",
        str(tmp_path / "out"),
        "--seed",
        "4",
    )
    assert rc == 0
    assert "seed: 4" in (tmp_path / "out.report.txt").read_text()


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


def benchmark_cli_hooks():
    """The ``cellforest.cli`` names that ``perfbench/tracing.py`` wraps to time stages."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [attr for module, attr, *_ in tracing.TARGETS if module == "cellforest.cli"]


def test_benchmark_hooks_see_each_stage_once(phantom, tmp_path, capsys, monkeypatch):
    names = benchmark_cli_hooks()
    assert [n for n in names if not hasattr(cli, n)] == []
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


@pytest.mark.parametrize(
    "edit",
    [cut_node_lines, cut_leaf_map, unknown_child, leaf_id_outside_range, voxel_count_off_by_one],
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


def test_forest_from_another_run_is_data_error(forest_runs, tmp_path, capsys):
    run3, run4 = forest_runs
    rc, _, _ = resume(capsys, run3, f"{run3}.forest.txt", tmp_path / "same")
    assert rc == 0
    rc, _, err = resume(capsys, run4, f"{run3}.forest.txt", tmp_path / "other")
    assert rc == 4
    assert err.startswith("error [stage data]:")
    assert "leaf voxel counts" in err
    assert not (tmp_path / "other.labels.mvol.json").exists()


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
