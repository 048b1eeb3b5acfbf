"""Merge criteria, the agglomeration loop and the forest container."""

import math

import numpy as np
import pytest

from cellforest.graph import (
    BoundaryStats,
    RegionGraph,
    RegionStats,
    build_region_graph,
)
from cellforest.merging import (
    ExactCoverError,
    MergeParams,
    agglomerate,
    feature_boundary,
    feature_sort,
    feature_v_min,
    forest_to_labels,
    load_forest,
    save_forest,
    v_min_from_radius,
)
from cellforest.volume import LabelVolume, ScalarVolume

from checks import assert_incremental_stats_match, forest_leaf_lookup
from oracles import region_stats_reference


def make_graph(nodes, edges, voxel_volume=1.0):
    """Hand-build a RegionGraph.

    nodes: {id: (voxel_count, volume, intensity_sum)}
    edges: {(i, j): (pair_count, pair_intensity_sum)}
    """
    g = RegionGraph(voxel_volume=voxel_volume)
    for nid, (count, volume, total) in nodes.items():
        g.add_node(nid, RegionStats(count, volume, total))
    for (i, j), (pairs, total) in edges.items():
        lo, hi = min(i, j), max(i, j)
        g.edges[(lo, hi)] = BoundaryStats(pairs, total)
        g.adj.setdefault(lo, set()).add(hi)
        g.adj.setdefault(hi, set()).add(lo)
    return g


def params(v_min=1.0, v_max=1e9):
    return MergeParams(v_min=v_min, v_max=v_max)


# ---------------------------------------------------------------------------
# volume thresholds


def test_v_min_from_radius_unit_sphere():
    assert v_min_from_radius(1.0) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)


def test_v_min_from_radius_scales_cubically():
    assert v_min_from_radius(2.0) == pytest.approx(32.0 * math.pi / 3.0, abs=1e-12)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_v_min_from_radius_rejects_nonpositive(radius):
    with pytest.raises(ValueError):
        v_min_from_radius(radius)


def test_merge_params_validation():
    with pytest.raises(ValueError):
        MergeParams(v_min=0.0, v_max=10.0)
    with pytest.raises(ValueError):
        MergeParams(v_min=5.0, v_max=5.0)


# ---------------------------------------------------------------------------
# size feature


def test_size_feature_saturates_for_large_regions():
    g = make_graph(
        {1: (20, 20.0, 4.0), 2: (20, 20.0, 4.0)},
        {(1, 2): (1, 0.9)},
    )
    assert feature_v_min(1, 2, g, params(v_min=10.0)) == 1.0


def test_size_feature_scales_by_wall_brightness_below_threshold():
    # half-threshold region against a wall of mean 0.4 -> 0.5 * 0.4
    g = make_graph(
        {1: (5, 5.0, 1.0), 2: (20, 20.0, 4.0)},
        {(1, 2): (2, 0.8)},
    )
    assert feature_v_min(1, 2, g, params(v_min=10.0)) == pytest.approx(0.2, abs=1e-9)


def test_size_feature_zero_volume_forces_merge_score_zero():
    g = make_graph(
        {1: (0, 0.0, 0.0), 2: (20, 20.0, 4.0)},
        {(1, 2): (1, 0.7)},
    )
    assert feature_v_min(1, 2, g, params(v_min=10.0)) == 0.0


def test_size_feature_symmetric():
    g = make_graph(
        {1: (3, 3.0, 0.6), 2: (7, 7.0, 2.1)},
        {(1, 2): (4, 1.2)},
    )
    p = params(v_min=12.0)
    assert feature_v_min(1, 2, g, p) == feature_v_min(2, 1, g, p)


# ---------------------------------------------------------------------------
# boundary-contrast feature


def test_boundary_feature_clamps_at_one():
    # shared wall 0.8 vs interiors 0.3, other walls 0.9 -> ratio 5 -> clamp
    g = make_graph(
        {1: (1, 1.0, 0.3), 2: (1, 1.0, 0.3), 3: (1, 1.0, 0.5)},
        {(1, 2): (1, 0.8), (1, 3): (1, 0.9)},
    )
    assert feature_boundary(1, 2, g, params()) == 1.0


def test_boundary_feature_interpolates():
    g = make_graph(
        {1: (1, 1.0, 0.30), 2: (1, 1.0, 0.30), 3: (1, 1.0, 0.5)},
        {(1, 2): (1, 0.35), (1, 3): (1, 0.90)},
    )
    expected = abs(0.35 - 0.30) / abs(0.35 - 0.90)
    assert feature_boundary(1, 2, g, params()) == pytest.approx(expected, abs=1e-9)
    assert feature_boundary(1, 2, g, params()) == pytest.approx(0.05 / 0.55, abs=1e-9)


def test_boundary_feature_degenerate_denominator():
    # shared wall as bright as every other wall: no contrast signal
    g = make_graph(
        {1: (1, 1.0, 0.2), 2: (1, 1.0, 0.2), 3: (1, 1.0, 0.2)},
        {(1, 2): (1, 0.5), (2, 3): (1, 0.5)},
    )
    assert feature_boundary(1, 2, g, params()) == 1.0


def test_boundary_feature_isolated_pair():
    g = make_graph(
        {1: (1, 1.0, 0.2), 2: (1, 1.0, 0.2)},
        {(1, 2): (1, 0.5)},
    )
    assert feature_boundary(1, 2, g, params()) == 1.0


def test_boundary_feature_pools_walls_of_both_endpoints():
    g = make_graph(
        {
            1: (2, 2.0, 0.4),
            2: (2, 2.0, 0.4),
            3: (1, 1.0, 0.1),
            4: (1, 1.0, 0.1),
        },
        {(1, 2): (2, 0.7), (1, 3): (1, 0.9), (2, 4): (3, 2.4)},
    )
    mu_cmn = 0.7 / 2
    mu_total = 0.8 / 4
    mu_bdry = (0.9 + 2.4) / 4
    expected = min(1.0, abs(mu_cmn - mu_total) / abs(mu_cmn - mu_bdry))
    assert feature_boundary(1, 2, g, params()) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# combined score


def test_combined_score_quadratic_mean():
    # engineer f_vmin = 0.6 and f_boundary = 0.8 exactly:
    #   volume 0.75 of v_min 1.0, shared wall 0.8 -> 0.6
    #   interiors 0.4, other wall 0.3 -> |0.8-0.4|/|0.8-0.3| = 0.8
    g = make_graph(
        {1: (1, 0.75, 0.4), 2: (1, 0.75, 0.4), 3: (1, 0.75, 0.1)},
        {(1, 2): (1, 0.8), (1, 3): (1, 0.3)},
        voxel_volume=0.75,
    )
    p = params(v_min=1.0)
    assert feature_v_min(1, 2, g, p) == pytest.approx(0.6, abs=1e-9)
    assert feature_boundary(1, 2, g, params()) == pytest.approx(0.8, abs=1e-9)
    score = feature_sort(1, 2, g, p)
    assert score == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_combined_score_extremes():
    both_one = make_graph(
        {1: (20, 20.0, 4.0), 2: (20, 20.0, 4.0)},
        {(1, 2): (1, 0.9)},
    )
    assert feature_sort(1, 2, both_one, params(v_min=10.0)) == 1.0

    both_zero = make_graph(
        {1: (0, 0.0, 0.0), 2: (2, 2.0, 1.0), 3: (1, 1.0, 0.9)},
        {(1, 2): (1, 0.5), (2, 3): (1, 0.9)},
    )
    assert feature_sort(1, 2, both_zero, params(v_min=10.0)) == 0.0


def test_combined_score_bounds_dominant_feature():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(1, 9, size=3)
        sums = rng.random(3) * counts
        g = make_graph(
            {k + 1: (int(counts[k]), float(counts[k]), float(sums[k])) for k in range(3)},
            {
                (1, 2): (int(rng.integers(1, 5)), float(rng.random())),
                (2, 3): (int(rng.integers(1, 5)), float(rng.random())),
            },
        )
        p = params(v_min=float(rng.uniform(1.0, 10.0)))
        f1 = feature_v_min(1, 2, g, p)
        f2 = feature_boundary(1, 2, g, params())
        s = feature_sort(1, 2, g, p)
        lo = max(f1, f2) / math.sqrt(2.0)
        assert lo - 1e-12 <= s <= 1.0 + 1e-12
        assert s == pytest.approx(math.sqrt((f1 * f1 + f2 * f2) / 2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# agglomeration on real label volumes


def graph_for(labels, values, spacing=(1.0, 1.0, 1.0)):
    lv = LabelVolume(np.asarray(labels, dtype=np.int32), spacing)
    sv = ScalarVolume(np.asarray(values, dtype=np.float64), spacing)
    return build_region_graph(lv, sv), lv, sv


def test_no_merge_across_bright_wall_when_large():
    # two regions above v_min separated by a wall: score 1, nothing merges
    labels = np.array([[[1, 2]]])
    values = np.array([[[0.2, 0.2]]])
    graph, _, _ = graph_for(labels, values)
    forest = agglomerate(graph, params(v_min=0.5))
    assert forest.roots == [1, 2]
    assert forest.n_leaves == 2
    assert all(forest.nodes[r].children is None for r in forest.roots)


def collinear_fixture():
    # one dark cell split into three equal fragments along x
    labels = np.zeros((4, 4, 12), dtype=np.int32)
    labels[:, :, :4] = 1
    labels[:, :, 4:8] = 2
    labels[:, :, 8:] = 3
    values = np.full((4, 4, 12), 0.2)
    return graph_for(labels, values)


def test_collinear_fragments_merge_to_single_root():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    assert forest.n_leaves == 3
    assert len(forest.nodes) == 5
    assert forest.roots == [5]
    # first merge joins the lowest-id adjacent pair, second absorbs the rest
    assert forest.nodes[4].children == (1, 2)
    assert forest.nodes[5].children == (3, 4)
    assert forest.nodes[5].voxel_count == lv.labels.size
    assert sorted(forest.leaves_under(5)) == [1, 2, 3]


def test_collinear_fragments_merge_regardless_of_labelling():
    # relabel the fragments in reverse: same partition, one root
    labels = np.zeros((4, 4, 12), dtype=np.int32)
    labels[:, :, :4] = 3
    labels[:, :, 4:8] = 2
    labels[:, :, 8:] = 1
    values = np.full((4, 4, 12), 0.2)
    graph, _, _ = graph_for(labels, values)
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    assert len(forest.roots) == 1
    assert sorted(forest.leaves_under(forest.roots[0])) == [1, 2, 3]


def test_v_max_blocks_oversized_union():
    labels = np.array([[[1, 2]]])
    values = np.array([[[0.1, 0.1]]])
    graph, _, _ = graph_for(labels, values)
    # score would be ~0.71 but the union exceeds v_max
    forest = agglomerate(graph, params(v_min=1.2, v_max=1.5))
    assert forest.roots == [1, 2]
    # the adjacency survives for later passes even though the merge is barred
    assert (1, 2) in graph.edges


def test_merge_scores_recorded_below_one_and_volumes_capped():
    rng = np.random.default_rng(11)
    shape = (6, 6, 6)
    values = rng.random(shape) * 0.3
    seeds = np.zeros(shape, dtype=np.int32)
    flat = rng.choice(values.size, size=12, replace=False)
    seeds.ravel()[flat] = np.arange(1, 13)
    from cellforest.watershed import MinimaSet, seeded_watershed

    minima = MinimaSet(seeds)
    sv = seeded_watershed(ScalarVolume(values, (1.0, 1.0, 1.0)), minima)
    graph = build_region_graph(sv, ScalarVolume(values, (1.0, 1.0, 1.0)))
    p = params(v_min=80.0, v_max=120.0)
    forest = agglomerate(graph, p)
    for node in forest.nodes.values():
        if node.children is not None:
            assert node.merge_score is not None and node.merge_score < 1.0
            assert node.volume <= p.v_max + 1e-12
        else:
            assert node.merge_score is None


def test_agglomerate_deterministic():
    def run():
        graph, _, _ = collinear_fixture()
        return agglomerate(graph, params(v_min=100.0, v_max=1000.0))

    a, b = run(), run()
    assert a.roots == b.roots
    assert set(a.nodes) == set(b.nodes)
    for nid, node in a.nodes.items():
        other = b.nodes[nid]
        assert node.children == other.children
        assert node.voxel_count == other.voxel_count
        assert node.volume == other.volume
        assert node.merge_score == other.merge_score


def test_observer_sees_consistent_incremental_stats():
    rng = np.random.default_rng(23)
    shape = (8, 8, 8)
    values = rng.random(shape)
    seeds = np.zeros(shape, dtype=np.int32)
    flat = rng.choice(values.size, size=20, replace=False)
    seeds.ravel()[flat] = np.arange(1, 21)
    from cellforest.watershed import MinimaSet, seeded_watershed

    minima = MinimaSet(seeds)
    sv = seeded_watershed(ScalarVolume(values, (1.0, 1.0, 1.0)), minima)
    graph = build_region_graph(sv, ScalarVolume(values, (1.0, 1.0, 1.0)))

    checked = []

    def observer(g, forest, merged_id):
        assert_incremental_stats_match(g, sv, values, leaf_of=forest_leaf_lookup(forest))
        checked.append(merged_id)

    agglomerate(graph, params(v_min=600.0, v_max=5000.0), observer=observer)
    assert checked, "fixture produced no merges; thresholds need adjusting"


# ---------------------------------------------------------------------------
# projecting a forest selection back onto the voxel grid


def test_labels_from_root_selection():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    out = forest_to_labels(forest, lv, forest.roots)
    assert np.all(out.labels == 5)


def test_labels_from_leaf_selection_recover_supervoxels():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    out = forest_to_labels(forest, lv, [1, 2, 3])
    np.testing.assert_array_equal(out.labels, lv.labels)


def test_labels_from_mixed_selection():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    out = forest_to_labels(forest, lv, [4, 3])
    assert np.all(out.labels[:, :, :8] == 4)
    assert np.all(out.labels[:, :, 8:] == 3)


def test_labels_reject_double_cover():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    with pytest.raises(ExactCoverError):
        forest_to_labels(forest, lv, [5, 3])


def test_labels_reject_missing_cover():
    graph, lv, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    with pytest.raises(ExactCoverError):
        forest_to_labels(forest, lv, [4])


# ---------------------------------------------------------------------------
# forest persistence


def test_forest_round_trip(tmp_path):
    graph, _, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    path = tmp_path / "out.forest.txt"
    save_forest(forest, path)
    loaded = load_forest(path)
    assert loaded.roots == forest.roots
    assert loaded.n_leaves == forest.n_leaves
    assert set(loaded.nodes) == set(forest.nodes)
    for nid, node in forest.nodes.items():
        other = loaded.nodes[nid]
        assert other.children == node.children
        assert other.voxel_count == node.voxel_count
        assert other.volume == node.volume  # repr round-trip is exact
        assert other.merge_score == node.merge_score


def test_forest_file_is_line_oriented_text(tmp_path):
    graph, _, _ = collinear_fixture()
    forest = agglomerate(graph, params(v_min=100.0, v_max=1000.0))
    path = tmp_path / "out.forest.txt"
    save_forest(forest, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert "nodes 5 leaves 3" in lines[1]


def test_load_forest_rejects_garbage(tmp_path):
    path = tmp_path / "bad.forest.txt"
    path.write_text("not a forest\n")
    with pytest.raises(ValueError):
        load_forest(path)


@pytest.mark.parametrize(
    "merges,message",
    [
        (["3,1,2,5,5.0,0.5"], None),  # the well-formed baseline
        (["3,1,1,4,4.0,0.5"], "reused children"),  # one child twice
        (["3,1,2,5,5.0,0.5", "4,1,2,5,5.0,0.5"], "reused children"),  # shared
        (["3,1,3,5,5.0,0.5"], "reused children"),  # its own child: a cycle
        (["3,1,2,5,5.0,0.5", "3,1,2,5,5.0,0.5"], "not unique"),
        (["3,1,2,6,6.0,0.5"], "children's sum"),
        (["3,1,2,5,5.0,0.0"], None),  # the lowest score agglomerate can give
        (["3,1,2,5,5.0,nan"], r"f.forest.txt:5: merge score nan is not in \[0, 1\)"),
        (["3,1,2,5,5.0,1.0"], r"merge score 1.0 is not in \[0, 1\)"),
        (["3,1,2,5,5.0,-0.5"], r"merge score -0.5 is not in \[0, 1\)"),
        (["3,1,2,5,5.0,inf"], r"merge score inf is not in \[0, 1\)"),
        (["3,1,2,5,5.0"], "f.forest.txt:5: expected 6 comma-separated fields, got 5"),
        (["3,1,two,5,5.0,0.5"], "f.forest.txt:5: invalid literal for int"),
    ],
)
def test_load_forest_rejects_inconsistent_structure(tmp_path, merges, message):
    lines = ["# cellforest merge-forest v1", f"nodes {2 + len(merges)} leaves 2",
             "1,-,-,2,2.0,-", "2,-,-,3,3.0,-", *merges, "leaf_map", "1,1", "2,2"]
    path = tmp_path / "f.forest.txt"
    path.write_text("\n".join(lines) + "\n")
    if message is None:
        assert load_forest(path).roots == [3]
        return
    with pytest.raises(ValueError, match=message):
        load_forest(path)


@pytest.mark.parametrize(
    "table,message",
    [
        (["1,1"], "to itself"),  # one leaf short
        (["1,8", "2,9"], "to itself"),  # a shifted map
        (["2,2", "1,1"], "to itself"),  # out of order
        (None, "no leaf_map line"),
    ],
)
def test_load_forest_requires_the_identity_leaf_map(tmp_path, table, message):
    lines = ["# cellforest merge-forest v1", "nodes 2 leaves 2", "1,-,-,2,2.0,-", "2,-,-,3,3.0,-"]
    lines += [] if table is None else ["leaf_map", *table]
    path = tmp_path / "f.forest.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        load_forest(path)
