"""Spans taken around calls into cellforest's public functions.

The tracer replaces a module attribute (``cellforest.cli.seeded_watershed``,
``cellforest.cnn.conv3d_forward``, ...) by a wrapper that records one span
per call, so the name is wrapped exactly where the calling code looks it
up. Nothing under ``src/`` changes. Spans stay in memory until the run
ends; ``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _conv_name(kind):
    # conv1 is the only convolution with a single input channel.
    return lambda args: f"cnn.conv{1 if args[0].shape[-1] == 1 else 2}_{kind}"


def _conv_flop(factor):
    """Multiply-adds of one same-padded convolution, times ``factor``:
    2 for the forward matmul, 4 for the backward pass (weight and input
    gradients)."""

    def attrs(args, kwargs, result):
        x, w = args[0], args[1]
        n, d, h, wd, c_in = x.shape
        k, c_out = w.shape[0], w.shape[4]
        return {"flop": factor * n * d * h * wd * k**3 * c_in * c_out, "patches": n}

    return attrs


def _raw_bytes(args, kwargs, result):
    # write_volume returns the header path; the payload sits next to it.
    return {"bytes": os.path.getsize(result[: -len(".mvol.json")] + ".raw")}


def _read_bytes(args, kwargs, result):
    arr = result.labels if hasattr(result, "labels") else result.data
    return {"bytes": arr.nbytes}


def _resolution(args, kwargs, result):
    splits = sum(p.p_under > max(p.p_correct, p.p_over) for p in result.probs.values())
    return {"splits": splits, "selected": len(result.selected)}


def _adam_bytes(args, kwargs, result):
    # Minimal traffic of one ADAM update: read p, g, m, v and write p, m, v.
    return {"bytes": 7 * sum(p.nbytes for p in args[0].values())}


# (module, attribute, span name or name function, attrs function)
TARGETS = (
    ("cellforest.cli", "read_volume", "volume.read", _read_bytes),
    ("cellforest.phantom", "read_volume", "volume.read", _read_bytes),
    ("cellforest.cli", "write_volume", "volume.write", _raw_bytes),
    ("cellforest.phantom", "write_volume", "volume.write", _raw_bytes),
    ("cellforest.cli", "normalize", "volume.normalize", None),
    ("cellforest.cli", "gaussian_smooth", "preprocess.smooth", None),
    ("cellforest.cli", "iterative_closing", "preprocess.closing", None),
    ("cellforest.cli", "find_local_minima", "watershed.minima",
     lambda a, k, r: {"seeds": len(r)}),
    ("cellforest.cli", "seeded_watershed", "watershed.flood",
     lambda a, k, r: {"voxels": r.labels.size}),
    ("cellforest.cli", "build_region_graph", "graph.build",
     lambda a, k, r: {"edges": len(r.edges)}),
    ("cellforest.cli", "agglomerate", "merging.agglomerate",
     lambda a, k, r: {"merges": len(r.nodes) - r.n_leaves}),
    ("cellforest.cli", "load_forest", "merging.forest_load", None),
    ("cellforest.cli", "save_forest", "merging.forest_save", None),
    ("cellforest.classify", "extract_patch", "classify.extract_patch", None),
    ("cellforest.classify", "heuristic_probs", "classify.score", None),
    ("cellforest.classify", "cnn_probs", "classify.score", None),
    ("cellforest.cli", "resolve", "resolve.resolve", _resolution),
    ("cellforest.cli", "finalize", "resolve.finalize", None),
    ("cellforest.cli", "resolution_report", "resolve.report", None),
    ("cellforest.cli", "load_model", "cnn.model_load", None),
    ("cellforest.cli", "save_model", "cnn.model_save", None),
    ("cellforest.cli", "train", "cnn.train", None),
    ("cellforest.cnn", "forward", "cnn.forward", None),
    ("cellforest.cnn", "backward", "cnn.backward", None),
    ("cellforest.cnn", "conv3d_forward", _conv_name("fwd"), _conv_flop(2)),
    ("cellforest.cnn", "conv3d_backward", _conv_name("bwd"), _conv_flop(4)),
    ("cellforest.cnn", "maxpool3d_forward", "cnn.pool", None),
    ("cellforest.cnn", "adam_step", "cnn.adam_step", _adam_bytes),
    ("cellforest.cnn", "mean_cross_entropy", "cnn.loss_trace", None),
    ("cellforest.cli", "generate_phantom", "phantom.generate", None),
    ("cellforest.cli", "generate_patch_dataset", "phantom.patches", None),
)


class Tracer:
    """Records spans ``{name, start, end, parent, attrs}`` in memory.

    ``parent`` is the index of the enclosing span in ``spans`` (or None
    for a top-level span). Use as a context manager: entering installs
    the wrappers, leaving restores the original functions.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = {"name": span_name, "parent": parent, "start": time.perf_counter()}
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span["attrs"] = attrs_fn(args, kwargs, result) if attrs_fn else {}
            return result

        return wrapper

    def __enter__(self):
        for module_name, attr, name, attrs_fn in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def summarize(spans: list[dict]) -> dict:
    """Per span name: total time, self time (minus time in child spans),
    call count and summed attrs; plus ``toplevel_s``, the time covered by
    spans without a parent."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = {}
    toplevel = 0.0
    for s, inner in zip(spans, child_time):
        dur = s["end"] - s["start"]
        agg = out.setdefault(s["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0, "attrs": {}})
        agg["total_s"] += dur
        agg["self_s"] += dur - inner
        agg["calls"] += 1
        for key, val in s.get("attrs", {}).items():
            agg["attrs"][key] = agg["attrs"].get(key, 0) + val
        if s["parent"] is None:
            toplevel += dur
    return {"by_name": out, "toplevel_s": toplevel}
