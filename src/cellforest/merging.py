"""Supervoxel agglomeration into a merge-forest.

Adjacent regions are scored by two normalized edge features, a minimum
volume condition and a bright-homogeneous-boundary condition, combined
into a sort feature in [0, 1]. A lazy priority queue pops the lowest
score first; every performed merge becomes an internal node of a binary
merge-tree, and the run ends when no remaining edge scores below 1.
Each tree node is a segmentation hypothesis covering a set of the
initial supervoxels.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import RegionGraph
from .volume import LabelVolume


_EPSILON_DIV = 1e-6  # guards degenerate denominators in the boundary feature


class ExactCoverError(ValueError):
    """A node selection is not an exact cover of the forest leaves."""


def v_min_from_radius(r_min: float) -> float:
    """Volume of a sphere with the smallest object radius, in um^3."""
    if not r_min > 0:
        raise ValueError(f"r_min must be positive, got {r_min}")
    return (4.0 / 3.0) * math.pi * float(r_min) ** 3


@dataclass
class MergeParams:
    """Volume bounds for merging, in cubic micrometers.

    ``v_min`` is the volume of the smallest admissible object (derivable
    from a radius via :func:`v_min_from_radius`); no merged region may
    exceed ``v_max``.
    """

    v_min: float
    v_max: float

    def __post_init__(self):
        if not (0 < self.v_min < self.v_max):
            raise ValueError(f"need 0 < v_min < v_max, got {self.v_min}, {self.v_max}")


def feature_v_min(i: int, j: int, graph: RegionGraph, params: MergeParams) -> float:
    """Minimum volume condition, weighted by the shared boundary intensity.

    The smaller candidate's volume is mapped linearly to [0, 1] against
    ``v_min``. Below 1 the value is multiplied by the mean intensity of
    the shared boundary so that darker edges collapse first; at 1 no
    merge is indicated and no weighting applies.
    """
    bs = graph.edge(i, j)
    smaller = min(graph.nodes[i].volume, graph.nodes[j].volume)
    base = max(0.0, min(1.0, smaller / params.v_min))
    if base < 1.0:
        return base * bs.mean_intensity()
    return 1.0


def feature_boundary(i: int, j: int, graph: RegionGraph, params: MergeParams) -> float:
    """Bright homogeneous boundary condition.

    Compares the shared-boundary intensity against the mean of the fused
    region (interior plus boundaries) and against the outer boundary the
    fused region would have. A value below 1 means the shared boundary
    looks like cell interior rather than like the other walls, so the two
    regions are probably parts of one cell. Built from relative intensity
    differences, so dim deep-tissue regions are not favored over bright
    ones.
    """
    bs = graph.edge(i, j)
    mu_cmn = bs.mean_intensity()

    si = graph.nodes[i]
    sj = graph.nodes[j]
    mu_total = (si.intensity_sum + sj.intensity_sum) / (si.voxel_count + sj.voxel_count)

    outer_pairs = 0
    outer_sum = 0.0
    for a, other in ((i, j), (j, i)):
        for k in graph.adj[a]:
            if k == other:
                continue
            ext = graph.edge(a, k)
            outer_pairs += ext.pair_count
            outer_sum += ext.pair_intensity_sum
    if outer_pairs == 0:
        # fused region touches only the image border; no outer wall to compare
        return 1.0
    mu_bdry = outer_sum / outer_pairs

    denom = abs(mu_cmn - mu_bdry)
    if denom < _EPSILON_DIV:
        return 1.0
    return min(1.0, abs(mu_cmn - mu_total) / denom)


def feature_sort(i: int, j: int, graph: RegionGraph, params: MergeParams) -> float:
    """Euclidean combination of the edge features, normalized to [0, 1].

    The feature vector norm is divided by sqrt(2) so the score reaches 1
    exactly when both features are 1, the no-merge fixed point.
    """
    f1 = feature_v_min(i, j, graph, params)
    f2 = feature_boundary(i, j, graph, params)
    return math.sqrt((f1 * f1 + f2 * f2) / 2.0)


@dataclass
class ForestNode:
    """One segmentation hypothesis: a supervoxel or a recorded merge."""

    id: int
    children: tuple[int, int] | None
    voxel_count: int
    volume: float
    merge_score: float | None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class MergeForest:
    """Set of binary merge-trees over the initial supervoxels.

    Leaves are the supervoxels, numbered 1..n_leaves and identical to the
    supervoxel labels; internal nodes take fresh ids in merge order.
    """

    def __init__(self, n_leaves: int):
        self.n_leaves = n_leaves
        self.nodes: dict[int, ForestNode] = {}
        self.roots: list[int] = []

    def add_leaf(self, node_id: int, voxel_count: int, volume: float) -> None:
        self.nodes[node_id] = ForestNode(node_id, None, voxel_count, volume, None)

    def add_merge(
        self, node_id: int, child_a: int, child_b: int, voxel_count: int, volume: float, score: float
    ) -> None:
        self.nodes[node_id] = ForestNode(
            node_id, (child_a, child_b), voxel_count, volume, score
        )

    def leaves_under(self, node_id: int) -> list[int]:
        """Supervoxel labels covered by a node, ascending."""
        out = []
        stack = [node_id]
        while stack:
            node = self.nodes[stack.pop()]
            if node.is_leaf:
                out.append(node.id)
            else:
                stack.extend(node.children)
        out.sort()
        return out


MergeObserver = Callable[[RegionGraph, "MergeForest", int], None]


def agglomerate(
    graph: RegionGraph, params: MergeParams, observer: MergeObserver | None = None
) -> MergeForest:
    """Process the merge queue until no valid merge remains.

    The queue holds (score, i, j) entries, so equal scores break ties by
    the smaller (min-id, max-id) edge key. Entries whose endpoints have
    since been merged away are stale and are discarded on pop; a fresh
    node id per merge makes staleness equivalent to a dead endpoint.
    Edges whose combined volume would exceed ``v_max`` are dropped
    permanently (volumes only grow), but their boundary statistics stay
    in the graph. ``observer`` is called after every merge with the new
    node id, for incremental-statistics auditing.
    """
    leaf_ids = sorted(graph.nodes)
    forest = MergeForest(len(leaf_ids))
    for i in leaf_ids:
        s = graph.nodes[i]
        forest.add_leaf(i, s.voxel_count, s.volume)

    heap = [
        (feature_sort(i, j, graph, params), i, j) for (i, j) in sorted(graph.edges.keys())
    ]
    heapq.heapify(heap)
    next_id = (max(leaf_ids) + 1) if leaf_ids else 1

    while heap:
        score, i, j = heapq.heappop(heap)
        if i not in graph.nodes or j not in graph.nodes:
            continue
        score = feature_sort(i, j, graph, params)
        if heap and score > heap[0][0]:
            heapq.heappush(heap, (score, i, j))
            continue
        if score >= 1.0:
            break
        if graph.nodes[i].volume + graph.nodes[j].volume > params.v_max:
            continue

        merged_id = next_id
        next_id += 1
        fused = graph.merge_nodes(i, j, merged_id)
        forest.add_merge(merged_id, i, j, fused.voxel_count, fused.volume, score)
        for k in sorted(graph.adj[merged_id]):
            heapq.heappush(heap, (feature_sort(k, merged_id, graph, params), k, merged_id))
        if observer is not None:
            observer(graph, forest, merged_id)

    forest.roots = sorted(graph.nodes)
    return forest


def forest_to_labels(
    forest: MergeForest, supervoxels: LabelVolume, selection
) -> LabelVolume:
    """Materialize a node selection as a segmentation.

    ``selection`` must cover every leaf exactly once (an antichain per
    tree covering all leaves); each voxel receives the id of the selected
    ancestor of its supervoxel.
    """
    mapping = np.zeros(forest.n_leaves + 1, dtype=np.int64)
    for node_id in sorted(selection):
        if node_id not in forest.nodes:
            raise ExactCoverError(f"unknown forest node {node_id}")
        for leaf in forest.leaves_under(node_id):
            if mapping[leaf] != 0:
                raise ExactCoverError(
                    f"leaf {leaf} covered more than once (by {mapping[leaf]} and {node_id})"
                )
            mapping[leaf] = node_id
    if np.any(mapping[1:] == 0):
        missing = int(np.flatnonzero(mapping[1:] == 0)[0]) + 1
        raise ExactCoverError(f"leaf {missing} not covered by the selection")
    return LabelVolume(mapping[supervoxels.labels], supervoxels.spacing)


def _forest_lines(forest: MergeForest) -> list[str]:
    """The forest file's lines, each with its newline: the ``v1`` header, the
    node and leaf counts, one ``id,child_a,child_b,voxel_count,volume_um3,merge_score``
    record per node in id order ('-' for a leaf's children and score, floats as
    ``repr`` writes them, which round-trips exactly), then the leaf to
    supervoxel-label table."""
    lines = ["# cellforest merge-forest v1\n",
             f"nodes {len(forest.nodes)} leaves {forest.n_leaves}\n"]
    for node_id in sorted(forest.nodes):
        n = forest.nodes[node_id]
        ca, cb = n.children if n.children else ("-", "-")
        score = repr(n.merge_score) if n.merge_score is not None else "-"
        lines.append(f"{n.id},{ca},{cb},{n.voxel_count},{n.volume!r},{score}\n")
    lines.append("leaf_map\n")
    lines.extend(f"{leaf},{leaf}\n" for leaf in range(1, forest.n_leaves + 1))
    return lines


def save_forest(forest: MergeForest, path: str) -> None:
    """Write the newline-delimited forest format of :func:`_forest_lines`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_forest_lines(forest))


def load_forest(path: str) -> MergeForest:
    """Read a forest file, accepting only what :func:`save_forest` writes: node lines
    (line 3 up to ``leaf_map``) over leaves 1..K whose children are known, older than
    their parent and unshared, whose voxel counts are their children's sums and whose
    merge scores lie in [0, 1) (``agglomerate`` merges only below 1), in a file equal,
    line for line, to what :func:`_forest_lines` renders for them. Errors name the file
    and, where there is one, the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    end = lines.index("leaf_map\n") if "leaf_map\n" in lines else len(lines)
    forest, has_parent = MergeForest(0), set()
    for lineno, ln in enumerate(lines[2:end], 3):
        fields = ln.rstrip("\n").split(",")
        try:
            if len(fields) != 6:
                raise ValueError(f"expected 6 comma-separated fields, got {len(fields)}")
            node_id, count, volume = int(fields[0]), int(fields[3]), float(fields[4])
            if fields[1] == "-":
                forest.add_leaf(node_id, count, volume)
                continue
            a, b = int(fields[1]), int(fields[2])
            if a == b or max(a, b) >= node_id or {a, b} & has_parent or {a, b} - forest.nodes.keys():
                raise ValueError(f"node {node_id} has unknown or reused children {(a, b)}")
            if count != forest.nodes[a].voxel_count + forest.nodes[b].voxel_count:
                raise ValueError(f"node {node_id} voxel count is not its children's sum")
            if not 0.0 <= (score := float(fields[5])) < 1.0:  # false for nan
                raise ValueError(f"merge score {fields[5]} is not in [0, 1)")
            forest.add_merge(node_id, a, b, count, volume, score)
            has_parent.update((a, b))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    leaves = sorted(n.id for n in forest.nodes.values() if n.is_leaf)
    forest.n_leaves = len(leaves)
    if leaves != list(range(1, forest.n_leaves + 1)):
        raise ValueError(f"{path}: leaf ids are not 1..{forest.n_leaves}")
    for lineno, (want, got) in enumerate(itertools.zip_longest(_forest_lines(forest), lines), 1):
        if want != got:
            raise ValueError(f"{path}:{lineno}: expected {want!r}" if want else
                             f"{path}:{lineno}: expected the end of the file")
    forest.roots = sorted(set(forest.nodes) - has_parent)
    return forest
