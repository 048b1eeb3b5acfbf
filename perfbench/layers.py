"""Per-layer metrics of the traced run, and what each should move.

``PER_LAYER`` is the single list of per-layer metrics: name, unit, which
direction is better, and the end-to-end metric and workload it should
move. ``BENCHMARK.json`` repeats the first three columns; the self-test
checks that the two agree.
"""

from __future__ import annotations

SEG = "op_s on segment_96"
RECUT = "op_s on recut_cnn_96"
TRAIN = "op_s and peak_rss_mb on train_cnn"
BOTH_SEG = "op_s on segment_96 and recut_cnn_96"

# (name, unit, better, moves)
PER_LAYER = (
    ("volume.read_s", "s", "lower", BOTH_SEG + "; op_s on train_cnn via the patch reads"),
    ("volume.write_s", "s", "lower", BOTH_SEG),
    ("volume.bytes_read", "bytes", "lower", BOTH_SEG + "; op_s on train_cnn"),
    ("volume.bytes_written", "bytes", "lower", BOTH_SEG),
    ("volume.normalize_s", "s", "lower", SEG),
    ("preprocess.smooth_s", "s", "lower", SEG + " only"),
    ("preprocess.closing_s", "s", "lower", SEG + " only"),
    ("watershed.minima_s", "s", "lower", SEG + "; no change on recut_cnn_96 or train_cnn"),
    ("watershed.flood_s", "s", "lower", SEG + " (about 88% of it); no change elsewhere"),
    ("watershed.seeds", "count", "lower", SEG),
    ("watershed.voxels", "count", "lower", "base of watershed.ns_per_voxel"),
    ("watershed.ns_per_voxel", "ns", "lower", SEG),
    ("graph.build_s", "s", "lower", SEG + " (under 1% today)"),
    ("graph.edges", "count", "lower", SEG),
    ("merging.agglomerate_s", "s", "lower", SEG + " (under 1% today)"),
    ("merging.merges", "count", "lower", SEG),
    ("merging.forest_load_s", "s", "lower", RECUT),
    ("merging.forest_save_s", "s", "lower", BOTH_SEG),
    ("classify.queries", "count", "lower", "base of classify.ms_per_query"),
    ("classify.extract_patch_s", "s", "lower", RECUT + "; a little on segment_96"),
    ("classify.score_s", "s", "lower", RECUT + "; a little on segment_96"),
    ("classify.ms_per_query", "ms", "lower", RECUT),
    ("cnn.conv1_fwd_s", "s", "lower", RECUT + "; " + TRAIN),
    ("cnn.conv2_fwd_s", "s", "lower", RECUT + "; " + TRAIN),
    ("cnn.pool_s", "s", "lower", RECUT + "; " + TRAIN),
    ("cnn.forward_self_s", "s", "lower", RECUT + "; " + TRAIN + " (fc1 and head)"),
    ("cnn.conv1_bwd_s", "s", "lower", TRAIN + " only"),
    ("cnn.conv2_bwd_s", "s", "lower", TRAIN + " only"),
    ("cnn.backward_self_s", "s", "lower", TRAIN + " only"),
    ("cnn.adam_step_s", "s", "lower", TRAIN + " only"),
    ("cnn.loss_trace_s", "s", "lower", TRAIN + " only"),
    ("cnn.steps", "count", "lower", "base of cnn.adam_gbps"),
    ("cnn.fwd_patches", "count", "lower", "base of the forward FLOP counts"),
    ("cnn.bwd_patches", "count", "lower", "base of the backward FLOP counts"),
    ("cnn.conv_fwd_flop_per_patch", "flop", "lower", "computed from shapes; times the batch gives per batch"),
    ("cnn.conv_bwd_flop_per_patch", "flop", "lower", "computed from shapes; times the batch gives per batch"),
    ("cnn.conv_fwd_gflops", "GFLOP/s", "higher", RECUT + "; " + TRAIN),
    ("cnn.conv_bwd_gflops", "GFLOP/s", "higher", TRAIN),
    ("cnn.adam_bytes_computed", "bytes", "lower", "computed per step: 7 x parameter bytes"),
    ("cnn.adam_gbps", "GB/s", "higher", TRAIN),
    ("cnn.model_load_s", "s", "lower", RECUT),
    ("cnn.model_save_s", "s", "lower", "op_s on train_cnn"),
    ("resolve.self_s", "s", "lower", BOTH_SEG + " (excludes classifier children)"),
    ("resolve.splits", "count", "lower", BOTH_SEG),
    ("resolve.selected", "count", "lower", BOTH_SEG),
    ("resolve.finalize_s", "s", "lower", BOTH_SEG),
    ("resolve.report_s", "s", "lower", BOTH_SEG),
    ("phantom.generate_s", "s", "lower", "setup_s only"),
    ("phantom.patches_s", "s", "lower", "setup_s on train_cnn only"),
    ("metrics.match_s", "s", "lower", "nothing: runs outside the timed operation"),
    ("quality.f_score", "ratio", "higher", "must not move while outputs stay byte-identical (segment workloads)"),
    ("quality.loss_ratio", "ratio", "lower", "must not move while outputs stay byte-identical (train_cnn)"),
    ("cli.glue_s", "s", "lower", "op_s on every workload: operation time outside any top-level span"),
    ("trace.overhead_s", "s", "lower", "nothing: traced operation time minus the untraced median"),
    ("trace.spans", "count", "lower", "nothing: spans recorded in the traced operation"),
)


def layer_metrics(op: dict, setup: dict, gates: dict, op_wall_s: float, untraced_median_s: float) -> dict:
    """Per-layer values from the summaries of the traced operation and
    the traced set-up (see ``tracing.summarize``). ``gates`` holds the
    traced operation's quality numbers (``workloads.check``); layers a
    workload bypasses read 0."""
    by = op["by_name"]

    def total(*names):
        return sum(by[n]["total_s"] for n in names if n in by)

    def own(name):
        return by[name]["self_s"] if name in by else 0.0

    def attr(name, key):
        return by[name]["attrs"].get(key, 0) if name in by else 0

    def calls(name):
        return by[name]["calls"] if name in by else 0

    def setup_total(name):
        return setup["by_name"][name]["total_s"] if name in setup["by_name"] else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    queries = calls("classify.extract_patch")
    steps = calls("cnn.adam_step")
    fwd_patches = attr("cnn.conv1_fwd", "patches")
    bwd_patches = attr("cnn.conv1_bwd", "patches")
    fwd_flop = attr("cnn.conv1_fwd", "flop") + attr("cnn.conv2_fwd", "flop")
    bwd_flop = attr("cnn.conv1_bwd", "flop") + attr("cnn.conv2_bwd", "flop")
    adam_bytes = attr("cnn.adam_step", "bytes")
    voxels = attr("watershed.flood", "voxels")
    values = {
        "volume.read_s": total("volume.read"),
        "volume.write_s": total("volume.write"),
        "volume.bytes_read": attr("volume.read", "bytes"),
        "volume.bytes_written": attr("volume.write", "bytes"),
        "volume.normalize_s": total("volume.normalize"),
        "preprocess.smooth_s": total("preprocess.smooth"),
        "preprocess.closing_s": total("preprocess.closing"),
        "watershed.minima_s": total("watershed.minima"),
        "watershed.flood_s": total("watershed.flood"),
        "watershed.seeds": attr("watershed.minima", "seeds"),
        "watershed.voxels": voxels,
        "watershed.ns_per_voxel": ratio(total("watershed.flood"), voxels, 1e9),
        "graph.build_s": total("graph.build"),
        "graph.edges": attr("graph.build", "edges"),
        "merging.agglomerate_s": total("merging.agglomerate"),
        "merging.merges": attr("merging.agglomerate", "merges"),
        "merging.forest_load_s": total("merging.forest_load"),
        "merging.forest_save_s": total("merging.forest_save"),
        "classify.queries": queries,
        "classify.extract_patch_s": total("classify.extract_patch"),
        "classify.score_s": total("classify.score"),
        "classify.ms_per_query": ratio(
            total("classify.extract_patch", "classify.score"), queries, 1e3
        ),
        "cnn.conv1_fwd_s": total("cnn.conv1_fwd"),
        "cnn.conv2_fwd_s": total("cnn.conv2_fwd"),
        "cnn.pool_s": total("cnn.pool"),
        "cnn.forward_self_s": own("cnn.forward"),
        "cnn.conv1_bwd_s": total("cnn.conv1_bwd"),
        "cnn.conv2_bwd_s": total("cnn.conv2_bwd"),
        "cnn.backward_self_s": own("cnn.backward"),
        "cnn.adam_step_s": total("cnn.adam_step"),
        "cnn.loss_trace_s": total("cnn.loss_trace"),
        "cnn.steps": steps,
        "cnn.fwd_patches": fwd_patches,
        "cnn.bwd_patches": bwd_patches,
        "cnn.conv_fwd_flop_per_patch": ratio(fwd_flop, fwd_patches),
        "cnn.conv_bwd_flop_per_patch": ratio(bwd_flop, bwd_patches),
        "cnn.conv_fwd_gflops": ratio(fwd_flop, total("cnn.conv1_fwd", "cnn.conv2_fwd"), 1e-9),
        "cnn.conv_bwd_gflops": ratio(bwd_flop, total("cnn.conv1_bwd", "cnn.conv2_bwd"), 1e-9),
        "cnn.adam_bytes_computed": ratio(adam_bytes, steps),
        "cnn.adam_gbps": ratio(adam_bytes, total("cnn.adam_step"), 1e-9),
        "cnn.model_load_s": total("cnn.model_load"),
        "cnn.model_save_s": total("cnn.model_save"),
        "resolve.self_s": own("resolve.resolve"),
        "resolve.splits": attr("resolve.resolve", "splits"),
        "resolve.selected": attr("resolve.resolve", "selected"),
        "resolve.finalize_s": total("resolve.finalize"),
        "resolve.report_s": total("resolve.report"),
        "phantom.generate_s": setup_total("phantom.generate"),
        "phantom.patches_s": setup_total("phantom.patches"),
        "metrics.match_s": gates["match_s"],
        "quality.f_score": gates["f_score"],
        "quality.loss_ratio": gates["loss_ratio"],
        "cli.glue_s": op_wall_s - op["toplevel_s"],
        "trace.overhead_s": op_wall_s - untraced_median_s,
        "trace.spans": sum(v["calls"] for v in by.values()),
    }
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, *_ in PER_LAYER}
