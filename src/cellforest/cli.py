"""Command-line front end for the segmentation pipeline and its tools.

Subcommands::

    cellforest segment  input.mvol.json --output-prefix out --v-min-um3 ... --v-max-um3 ...
    cellforest synth    --output-prefix phantom --dims 64 --n-cells 30 --seed 7
    cellforest train    --dataset patches/ --model-out model.cnn
    cellforest eval     pred.mvol.json truth.mvol.json

``segment`` wraps the library driver :func:`segment`: normalize ->
Gaussian smoothing -> iterative closing -> minima detection -> watershed
-> region graph -> agglomeration -> optional classifier-guided
resolution -> final labels. The driver calls each stage through this
module's names, which ``perfbench/tracing.py`` wraps to time them. Only
the volume bounds (v_min / v_max, or r_min to derive v_min) are
mandatory; everything else takes the library's defaults
(:class:`PreprocessParams`, :class:`PhantomParams`, :class:`TrainConfig`,
whose fields are the ``segment``, ``synth`` and ``train`` flags), so no
option declares a default of its own. A ``key = value`` config file
(``--config``) holds ``segment`` options: each line is turned into a
``segment`` argument (``input`` into the positional) and parsed ahead of
the command line, so an explicit flag wins and a bad value fails alike
from either source.

Errors name the stage that failed, which gives the exit code: 2 for ``config``
(a bad option value too), 3 for ``io`` and 4 for any other stage.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .classify import PATCH_SIZE, hypothesis_classifier
from .cnn import DatasetError, TrainConfig, load_model, save_model, train
from .graph import build_region_graph
from .merging import (
    MergeForest, MergeParams, agglomerate, load_forest, save_forest, v_min_from_radius
)
from .metrics import format_table, layer_report, match_segments, report_json
from .parallel import concurrent_map
from .phantom import (
    PhantomParams,
    generate_patch_dataset,
    generate_phantom,
    load_patch_dataset,
    save_patch_dataset,
)
from .preprocess import PreprocessParams, gaussian_smooth, iterative_closing
from .resolve import Resolution, finalize, resolution_report, resolve, resolve_trivial
from .volume import LabelVolume, ScalarVolume, normalize, read_volume, write_volume
from .watershed import find_local_minima, seeded_watershed


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.code = {"config": 2, "io": 3}.get(stage, 4)


@contextmanager
def stage(name: str):
    """Convert any failure inside the block into a named-stage exit."""
    try:
        yield
    except CliError:
        raise
    except FileNotFoundError as exc:
        raise CliError("io", str(exc)) from exc
    except DatasetError as exc:
        raise CliError("data", str(exc)) from exc
    except Exception as exc:
        raise CliError(name, str(exc)) from exc


def _triple(text: str, cast=float) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"expected 1 or 3 comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _int_set(text: str) -> frozenset[int]:
    return frozenset(int(p) for p in text.replace(",", " ").split() if p)


SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, keys match the
    long flag names (hyphens and underscores interchangeable). A repeated
    key, or a ``dump_stages`` that is not a ``SWITCH`` word, names its line."""
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: {key!r} is already set")
            if key == "dump_stages" and value.lower() not in SWITCH:
                raise ValueError(f"{path}:{lineno}: dump_stages must be one of "
                                 f"{', '.join(SWITCH)}, got {value!r}")
            cfg[key] = value
    return cfg


def _config_argv(args: argparse.Namespace) -> list[str]:
    """The lines of the ``--config`` file as ``segment`` arguments. The known keys
    are the parsed ``segment`` options: ``input`` fills the positional unless the
    command line gave one, and ``dump_stages`` is a bare flag when on."""
    keys = vars(args).keys() - {"command", "func", "config"}
    argv = []
    for key, value in load_config(args.config).items():
        if key not in keys:
            raise CliError("config", f"unknown config key {key!r}")
        if key == "input":
            if args.input is None:  # an input on the command line wins
                argv.insert(0, value)
        elif key != "dump_stages":
            argv.append(f"--{key.replace('_', '-')}={value}")
        elif SWITCH[value.lower()]:
            argv.append("--dump-stages")
    return argv


def _add_fields(parser: argparse.ArgumentParser, params: type) -> None:
    """One ``--field-name`` flag per field of the dataclass ``params``, typed by the
    field's default; a tuple field is text, one value or x,y,z, which :func:`_given` parses
    with :func:`_triple` as the type of the default's elements."""
    for f in fields(params):
        text = isinstance(f.default, tuple)
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=str if text else type(f.default),
                            help="one value or x,y,z" if text else None)


def _given(args: argparse.Namespace, params: type) -> dict:
    """The fields of the dataclass ``params`` that the command line set; see :func:`_add_fields`."""
    values = [(f, getattr(args, f.name)) for f in fields(params)]
    return {f.name: _triple(v, type(f.default[0])) if isinstance(f.default, tuple) else v
            for f, v in values if v is not None}


def _read_scalar(path: str) -> ScalarVolume:
    vol = read_volume(path)
    if not isinstance(vol, ScalarVolume):
        raise CliError("data", f"{path}: expected a scalar volume, found labels")
    if not np.isfinite(vol.data).all():
        raise CliError("data", f"{path}: intensities must be finite (found NaN or inf)")
    return vol


def _read_labels(path: str) -> LabelVolume:
    vol = read_volume(path)
    if not isinstance(vol, LabelVolume):
        raise CliError("data", f"{path}: expected a label volume (u32 payload)")
    return vol


CLASSIFIERS = ("none", "heuristic", "cnn")


@dataclass
class Run:
    """What :func:`segment` computed or was given, stage by stage."""

    pre: ScalarVolume
    sv: LabelVolume
    forest: MergeForest
    resolution: Resolution
    labels: LabelVolume


def segment(
    volume: ScalarVolume | None, params: MergeParams, pre_params: PreprocessParams | None = None,
    classifier: str = "none", model_path: str | None = None, pre: ScalarVolume | None = None,
    sv: LabelVolume | None = None, forest: MergeForest | None = None,
) -> Run:
    """The pipeline: normalize -> smooth -> close -> minima -> flood -> region graph
    -> agglomerate -> tree cut by ``classifier`` (the CNN read from ``model_path`` before
    all else, which must take PATCH_SIZE^3 patches) -> final labels. A given ``pre``,
    ``sv`` or ``forest`` replaces the stages that make it (``volume`` is then unused). A
    given ``pre`` must lie in [0, 1], given supervoxels must have its shape and spacing,
    and a given forest must match their leaf voxel counts (none at label 0) and voxel
    volume. Failures raise :class:`CliError` naming the stage."""
    if classifier not in CLASSIFIERS:
        raise CliError("config", f"unknown classifier {classifier!r}")
    if classifier == "cnn" and not model_path:
        raise CliError("config", "classifier cnn requires a model path (--model-path)")
    with stage("io"):
        model = load_model(model_path) if classifier == "cnn" else None
    if model is not None and model.input_size != PATCH_SIZE:
        raise CliError("data", f"{model_path}: the model takes {model.input_size}^3 "
                               f"patches, not {PATCH_SIZE}^3")
    if pre is None:
        pre_params = pre_params or PreprocessParams()
        with stage("preprocess"):
            pre = iterative_closing(
                gaussian_smooth(normalize(volume), pre_params.sigma), pre_params.r_cl_max
            )
    elif not 0.0 <= pre.data.min() <= pre.data.max() <= 1.0:
        raise CliError("data", "preprocessed intensities must lie in [0, 1]")
    if sv is None:
        with stage("watershed"):
            sv = seeded_watershed(pre, find_local_minima(pre))
    elif sv.labels.shape != pre.data.shape or sv.spacing != pre.spacing:
        raise CliError("data", f"supervoxels {sv.dims} at {sv.spacing} um do not match "
                               f"the preprocessed volume {pre.dims} at {pre.spacing} um")
    if forest is None:
        with stage("merge"):
            forest = agglomerate(build_region_graph(sv, pre), params)
    else:
        with stage("data"):
            leaf_counts = [0] + [forest.nodes[i].voxel_count for i in range(1, forest.n_leaves + 1)]
            # an id above n_leaves fails before it sizes the bincount
            if int(sv.labels.max()) > forest.n_leaves or not np.array_equal(
                    np.bincount(sv.labels.ravel(), minlength=forest.n_leaves + 1), leaf_counts):
                raise ValueError("forest leaf voxel counts disagree with the supervoxels")
            if any(n.volume != n.voxel_count * sv.voxel_volume for n in forest.nodes.values()):
                raise ValueError(f"forest node volumes are not voxel counts x {sv.voxel_volume} um3")
    with stage("resolve"):
        if classifier == "none":
            resolution = resolve_trivial(forest)
        else:
            classify_fn = hypothesis_classifier(pre, forest, sv, params, model)
            # The heuristic's queries stay on this thread: memory freed in a helper's malloc
            # arena cannot serve this thread (the README has the segment_96 RSS figures).
            resolution = resolve(forest, classify_fn, map if model is None else concurrent_map)
        labels = finalize(forest, resolution, sv)
    return Run(pre, sv, forest, resolution, labels)


def cmd_segment(args: argparse.Namespace) -> int:
    classifier = args.classifier or "none"
    if not args.output_prefix:
        raise CliError("config", "--output-prefix is required")
    if args.v_min_um3 is None and args.r_min_um is None:
        raise CliError("config", "need --v-min-um3 or --r-min-um")
    if args.v_max_um3 is None:
        raise CliError("config", "need --v-max-um3")
    with stage("config"):
        v_min = args.v_min_um3 if args.v_min_um3 is not None else v_min_from_radius(args.r_min_um)
        params = MergeParams(v_min=v_min, v_max=args.v_max_um3)
        pre_params = PreprocessParams(**_given(args, PreprocessParams))

    if args.supervoxels_in and not args.preprocessed_in:
        raise CliError("config", "--supervoxels-in requires --preprocessed-in")
    if args.forest_in and not args.supervoxels_in:
        raise CliError("config", "--forest-in requires --supervoxels-in")
    if not (args.input or args.preprocessed_in):
        raise CliError("config", "need an input volume or a stage artifact to resume from")

    with stage("io"):
        pre = _read_scalar(args.preprocessed_in) if args.preprocessed_in else None
        raw = _read_scalar(args.input) if pre is None else None
        sv = _read_labels(args.supervoxels_in) if args.supervoxels_in else None
        forest = load_forest(args.forest_in) if args.forest_in else None
    run = segment(raw, params, pre_params, classifier, args.model_path, pre, sv, forest)

    prefix = args.output_prefix
    with stage("io"):
        if args.dump_stages and pre is None:
            write_volume(run.pre, f"{prefix}.pre.mvol.json")
        if args.dump_stages and sv is None:
            write_volume(run.sv, f"{prefix}.sv.mvol.json")
        write_volume(run.labels, f"{prefix}.labels.mvol.json")
        save_forest(run.forest, f"{prefix}.forest.txt")
        with open(f"{prefix}.report.txt", "w") as fh:
            fh.write(f"classifier: {classifier}\nsupervoxels: {run.forest.n_leaves}\n"
                     f"forest roots: {len(run.forest.roots)}\n")
            fh.write(resolution_report(run.forest, run.resolution))
    print(f"wrote {prefix}.labels.mvol.json ({len(run.resolution.selected)} segments)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    with stage("config"):
        params = PhantomParams(**_given(args, PhantomParams))
        counts = {} if args.patches_per_class is None else {"per_class": args.patches_per_class}
        if counts.get("per_class", 1) < 1:
            raise ValueError(f"--patches-per-class must be >= 1, got {args.patches_per_class}")
    with stage("synth"):
        v, gt = generate_phantom(params)
    with stage("io"):
        write_volume(v, f"{args.output_prefix}.image.mvol.json")
        write_volume(gt, f"{args.output_prefix}.truth.mvol.json")
    if args.patches_dir:
        with stage("synth"):
            patches, classes = generate_patch_dataset(params, v, gt, **counts)
        with stage("io"):
            save_patch_dataset(args.patches_dir, patches, classes)
        print(f"wrote {len(patches)} patches to {args.patches_dir}")
    print(f"wrote {args.output_prefix}.image.mvol.json and .truth.mvol.json")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    with stage("config"):
        config = TrainConfig(**_given(args, TrainConfig))
    with stage("io"):
        x, classes = load_patch_dataset(args.dataset)
    with stage("train"):
        model, trace = train(x, classes, config)
    with stage("io"):
        save_model(model, args.model_out)
        with open(f"{args.model_out}.loss.txt", "w") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in trace)
    print(f"wrote {args.model_out} (loss {trace[0]:.4f} -> {trace[-1]:.4f})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    with stage("config"):
        background = _int_set(args.background or "")
    with stage("io"):
        pred = _read_labels(args.pred)
        truth = _read_labels(args.truth)
        mask = _read_labels(args.layer_mask) if args.layer_mask else None
    with stage("eval"):
        for path, vol in ((args.pred, pred), (args.layer_mask, mask)):
            if vol is not None and vol.spacing != truth.spacing:
                raise ValueError(f"spacing mismatch: {path} at {vol.spacing} um vs "
                                 f"{args.truth} at {truth.spacing} um")
        if mask is None:
            rows = [(args.name, match_segments(pred, truth, background))]
        else:
            rows = [
                (f"{args.name}[layer {layer}]", rep)
                for layer, rep in layer_report(pred, truth, mask, background).items()
            ]
    print(format_table(rows), end="")
    if args.json_out:
        with stage("io"):
            with open(args.json_out, "w") as fh:
                fh.writelines(report_json(name, rep) + "\n" for name, rep in rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellforest", description="membrane-stained volume segmentation toolkit",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="run the segmentation pipeline", exit_on_error=False)
    p.add_argument("input", nargs="?", help="input MVOL intensity volume")
    p.add_argument("--config", help="key = value options file")
    p.add_argument("--output-prefix", help="prefix for labels/forest/report outputs")
    p.add_argument("--v-min-um3", type=float, help="minimum cell volume (um^3)")
    p.add_argument("--v-max-um3", type=float, help="maximum cell volume (um^3)")
    p.add_argument("--r-min-um", type=float, help="derive v_min from a minimum radius (um)")
    _add_fields(p, PreprocessParams)
    p.add_argument("--classifier", choices=CLASSIFIERS,
                   help="under-segmentation correction (default none)")
    p.add_argument("--model-path", help="trained model file for --classifier cnn")
    p.add_argument("--dump-stages", action="store_true", help="also write stage artifacts")
    p.add_argument("--preprocessed-in", help="resume from a preprocessed volume")
    p.add_argument("--supervoxels-in", help="resume from a supervoxel volume")
    p.add_argument("--forest-in", help="resume from a merge-forest file")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("synth", help="generate a synthetic phantom", exit_on_error=False)
    p.add_argument("--output-prefix", required=True)
    _add_fields(p, PhantomParams)
    p.add_argument("--patches-dir", help="also cut a labeled training-patch dataset")
    p.add_argument("--patches-per-class", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the patch classifier", exit_on_error=False)
    p.add_argument("--dataset", required=True, help="patch dataset directory")
    p.add_argument("--model-out", required=True)
    _add_fields(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a labeling against ground truth", exit_on_error=False)
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--layer-mask", help="label volume assigning truth cells to layers")
    p.add_argument("--background", help="truth labels to exclude, e.g. '0,5'")
    p.add_argument("--name", default="segmentation", help="algorithm column label")
    p.add_argument("--json-out", help="also write one JSON object per row")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        with stage("config"):
            args = parser.parse_args(argv)
            if getattr(args, "config", None):  # the file's lines go ahead of the flags
                at = argv.index("segment") + 1
                args = parser.parse_args(argv[:at] + _config_argv(args) + argv[at:])
        out = getattr(args, "output_prefix", None) or getattr(args, "model_out", None)
        if out and not os.path.isdir(os.path.dirname(out) or "."):  # before any stage runs
            raise CliError("io", f"{out}: no such directory {os.path.dirname(out)!r}")
        return args.func(args)
    except CliError as exc:
        print(f"error [stage {exc.stage}]: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
