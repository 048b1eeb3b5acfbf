"""Consistency auditors and measurements shared between module tests and
the acceptance suite. Unlike oracles.py these reuse package code
deliberately: they compare two routes through the library against each
other (incremental statistics vs a from-scratch rebuild)."""

import tracemalloc

import numpy as np

from cellforest.graph import build_region_graph
from cellforest.volume import LabelVolume, ScalarVolume


def assert_incremental_stats_match(graph, supervoxels, values, leaf_of=None):
    """Every alive node and edge must equal a fresh build on the current
    segmentation (exact counts, 1e-9 relative sums).

    ``graph`` is mid-agglomeration; the current segmentation assigns each
    supervoxel leaf to its alive ancestor. ``leaf_of`` maps alive node id
    -> list of leaf labels (defaults to a merge-forest style lookup via
    graph bookkeeping is not available here, so callers pass it).
    """
    alive = sorted(graph.nodes)
    remap_to_fresh = {node: k + 1 for k, node in enumerate(alive)}

    leaf_map = np.zeros(int(supervoxels.labels.max()) + 1, dtype=np.int64)
    for node in alive:
        for leaf in leaf_of(node):
            leaf_map[leaf] = remap_to_fresh[node]
    current = LabelVolume(leaf_map[supervoxels.labels], supervoxels.spacing)
    fresh = build_region_graph(current, ScalarVolume(values, supervoxels.spacing))

    assert set(fresh.nodes) == set(remap_to_fresh.values())
    for node in alive:
        a = graph.nodes[node]
        b = fresh.nodes[remap_to_fresh[node]]
        assert a.voxel_count == b.voxel_count
        np.testing.assert_allclose(a.volume, b.volume, rtol=1e-9)
        np.testing.assert_allclose(a.intensity_sum, b.intensity_sum, rtol=1e-9)

    fresh_edges = set(fresh.edges)
    mapped_edges = set()
    for (i, j), bs in graph.edges.items():
        fi, fj = remap_to_fresh[i], remap_to_fresh[j]
        key = (min(fi, fj), max(fi, fj))
        mapped_edges.add(key)
        other = fresh.edges[key]
        assert bs.pair_count == other.pair_count
        np.testing.assert_allclose(
            bs.pair_intensity_sum, other.pair_intensity_sum, rtol=1e-9
        )
    assert mapped_edges == fresh_edges


def forest_leaf_lookup(forest):
    """leaf_of callable for assert_incremental_stats_match."""
    return forest.leaves_under


def peak_bytes_per(call, units=1):
    """The tracemalloc peak of ``call()`` above what was traced before it, divided
    by ``units`` (voxels, patches, parameter bytes); the result counts while the
    call holds it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / units
