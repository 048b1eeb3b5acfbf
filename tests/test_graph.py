import numpy as np
import pytest

from cellforest.graph import BoundaryStats, RegionGraph, RegionStats, build_region_graph
from cellforest.volume import LabelVolume, ScalarVolume

from oracles import region_stats_reference


def build(labels, values, spacing=(1.0, 1.0, 1.0)):
    labels = np.asarray(labels)
    return build_region_graph(
        LabelVolume(labels, spacing), ScalarVolume(np.asarray(values, float), spacing)
    )


def test_two_voxel_edge():
    g = build([[[1, 2]]], [[[0.2, 0.6]]])
    bs = g.edge(1, 2)
    assert bs.pair_count == 1
    np.testing.assert_allclose(bs.mean_intensity(), 0.4)
    assert g.nodes[1].voxel_count == 1
    np.testing.assert_allclose(g.nodes[2].intensity_sum, 0.6)


def test_single_label_no_edges():
    g = build(np.ones((2, 3, 2), dtype=int), np.random.default_rng(0).random((2, 3, 2)))
    assert set(g.nodes) == {1}
    assert g.edges == {}


def test_checkerboard_edge_count():
    labels = np.array([[1, 2], [2, 1]]).reshape(1, 2, 2)
    g = build(labels, np.full((1, 2, 2), 0.5))
    assert list(g.edges) == [(1, 2)]
    assert g.edge(2, 1).pair_count == 4  # symmetric lookup


def test_edge_lookup_missing():
    g = build([[[1, 2]]], [[[0.2, 0.6]]])
    with pytest.raises(KeyError):
        g.edge(1, 3)


def test_dims_mismatch_rejected():
    with pytest.raises(ValueError):
        build_region_graph(
            LabelVolume(np.ones((1, 1, 2), dtype=int)),
            ScalarVolume(np.zeros((1, 2, 2))),
        )


def test_noncontiguous_labels_rejected():
    with pytest.raises(ValueError):
        build(np.array([[[1, 3]]]), np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        build(np.array([[[0, 1]]]), np.zeros((1, 1, 2)))
    # a huge stray id is rejected without a counter per possible id
    with pytest.raises(ValueError, match="contiguous"):
        build(np.array([[[1, 2**31]]], dtype=np.uint32), np.zeros((1, 1, 2)))


def random_labeling(rng, shape, k):
    """Random connected-ish labeling covering 1..k (remapped to be contiguous)."""
    labels = rng.integers(1, k + 1, shape)
    uniq = np.unique(labels)
    remap = np.zeros(k + 1, dtype=np.int64)
    remap[uniq] = np.arange(1, len(uniq) + 1)
    return remap[labels]


@pytest.mark.parametrize("seed", range(6))
def test_matches_bruteforce_reference(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 6, 3))
    spacing = tuple(rng.uniform(0.5, 2.0, 3))
    labels = random_labeling(rng, shape, 5)
    values = rng.random(shape)
    g = build(labels, values, spacing)
    nodes, edges = region_stats_reference(labels, values, spacing)

    assert set(g.nodes) == set(nodes)
    for i, (count, vol, s) in nodes.items():
        assert g.nodes[i].voxel_count == count
        np.testing.assert_allclose(g.nodes[i].volume, vol, rtol=1e-12)
        np.testing.assert_allclose(g.nodes[i].intensity_sum, s, rtol=1e-12)
    assert set(g.edges) == set(edges)
    for key, (pc, ps) in edges.items():
        assert g.edges[key].pair_count == pc
        np.testing.assert_allclose(g.edges[key].pair_intensity_sum, ps, rtol=1e-12)


def test_merge_fuses_stats_and_preserves_totals():
    rng = np.random.default_rng(42)
    labels = random_labeling(rng, (4, 4, 4), 6)
    values = rng.random((4, 4, 4))
    g = build(labels, values)
    k = len(g.nodes)
    total_vox = sum(s.voxel_count for s in g.nodes.values())
    total_pairs = sum(b.pair_count for b in g.edges.values())

    i, j = sorted(g.edges)[0]
    si, sj = g.nodes[i], g.nodes[j]
    interior_pairs = g.edge(i, j).pair_count
    expect_count = si.voxel_count + sj.voxel_count
    expect_sum = si.intensity_sum + sj.intensity_sum
    fused = g.merge_nodes(i, j, k + 1)
    assert fused.voxel_count == expect_count
    np.testing.assert_allclose(fused.intensity_sum, expect_sum, rtol=1e-12)
    assert sum(s.voxel_count for s in g.nodes.values()) == total_vox
    # the fused wall's face pairs become interior and leave the edge set
    assert sum(b.pair_count for b in g.edges.values()) == total_pairs - interior_pairs
    assert i not in g.nodes and j not in g.nodes and (k + 1) in g.nodes
    for a, b in g.edges:
        assert a in g.nodes and b in g.nodes


def test_merge_combines_parallel_edges():
    # 1 and 2 both touch 3; after merging 1+2 the two edges to 3 add up
    labels = np.array([[1, 3, 2]]).reshape(1, 1, 3)
    values = np.array([[0.1, 0.9, 0.3]]).reshape(1, 1, 3)
    g = build(labels, values)
    e13 = g.edge(1, 3)
    e23 = g.edge(2, 3)
    g.merge_nodes(1, 2, 4)
    fusededge = g.edge(4, 3)
    assert fusededge.pair_count == e13.pair_count + e23.pair_count
    np.testing.assert_allclose(
        fusededge.pair_intensity_sum,
        e13.pair_intensity_sum + e23.pair_intensity_sum,
        rtol=1e-12,
    )


def test_merged_volume_bit_equals_fresh_rebuild():
    # volume is recomputed as count * voxel_volume, so it must be
    # bitwise identical to the value a from-scratch build produces
    spacing = (0.7300000000000001, 1.1, 0.9)
    rng = np.random.default_rng(3)
    labels = random_labeling(rng, (3, 3, 3), 4)
    values = rng.random((3, 3, 3))
    g = build(labels, values, spacing)
    k = len(g.nodes)
    i, j = sorted(g.edges)[0]
    fused = g.merge_nodes(i, j, k + 1)

    merged_labels = np.where(np.isin(labels, (i, j)), i, labels)
    uniq = np.unique(merged_labels)
    remap = np.zeros(merged_labels.max() + 1, dtype=np.int64)
    remap[uniq] = np.arange(1, len(uniq) + 1)
    g2 = build(remap[merged_labels], values, spacing)
    rebuilt = g2.nodes[int(remap[i])]
    assert fused.volume == rebuilt.volume
    assert fused.voxel_count == rebuilt.voxel_count
