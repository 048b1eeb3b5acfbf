"""Region adjacency graph with incrementally maintained statistics.

Nodes carry voxel counts, physical volumes and intensity sums; edges
carry the count and summed mean intensity of the 6-adjacent voxel pairs
straddling two regions. Merging fuses both kinds of statistics
additively, so no later step ever has to revisit the voxel grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import LabelVolume, ScalarVolume


@dataclass
class RegionStats:
    """Per-region aggregates over the preprocessed intensity volume."""

    voxel_count: int
    volume: float
    intensity_sum: float


@dataclass
class BoundaryStats:
    """Aggregates over the straddling voxel pairs of one region pair.

    Each 6-adjacent pair contributes the arithmetic mean of its two voxel
    intensities; there are no watershed-line voxels to sample instead.
    """

    pair_count: int
    pair_intensity_sum: float

    def mean_intensity(self) -> float:
        return self.pair_intensity_sum / self.pair_count

    def merged_with(self, other: "BoundaryStats") -> "BoundaryStats":
        return BoundaryStats(
            self.pair_count + other.pair_count,
            self.pair_intensity_sum + other.pair_intensity_sum,
        )


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class RegionGraph:
    """Adjacency structure over segments of a label volume.

    ``nodes`` maps alive region id to :class:`RegionStats`, ``edges`` maps
    unordered id pairs to :class:`BoundaryStats`, and ``adj`` mirrors the
    edge set for neighbor iteration. Edges only ever connect alive nodes.
    Merging removes the fused pair's edge, so its face pairs become
    interior and leave the edge set; every surviving edge keeps statistics
    bit-equal to a from-scratch rebuild of the coarser labeling.
    """

    def __init__(self, voxel_volume: float):
        self.voxel_volume = float(voxel_volume)
        self.nodes: dict[int, RegionStats] = {}
        self.edges: dict[tuple[int, int], BoundaryStats] = {}
        self.adj: dict[int, set[int]] = {}

    def edge(self, i: int, j: int) -> BoundaryStats:
        try:
            return self.edges[_edge_key(i, j)]
        except KeyError:
            raise KeyError(f"no edge between regions {i} and {j}") from None

    def neighbors(self, i: int) -> set[int]:
        return self.adj[i]

    def add_node(self, i: int, stats: RegionStats) -> None:
        self.nodes[i] = stats
        self.adj.setdefault(i, set())

    def merge_nodes(self, i: int, j: int, merged_id: int) -> RegionStats:
        """Fuse regions i and j into ``merged_id``; returns the fused stats.

        Region stats add; parallel edges to a common neighbor add
        componentwise. The fused volume is recomputed from the voxel count
        so it stays bit-equal to a from-scratch rebuild.
        """
        si = self.nodes.pop(i)
        sj = self.nodes.pop(j)
        count = si.voxel_count + sj.voxel_count
        fused = RegionStats(count, count * self.voxel_volume, si.intensity_sum + sj.intensity_sum)

        neighbors = (self.adj[i] | self.adj[j]) - {i, j}
        for k in neighbors:
            parts = []
            for old in (i, j):
                bs = self.edges.pop(_edge_key(old, k), None)
                if bs is not None:
                    parts.append(bs)
                    self.adj[k].discard(old)
            combined = parts[0] if len(parts) == 1 else parts[0].merged_with(parts[1])
            self.edges[_edge_key(merged_id, k)] = combined
            self.adj[k].add(merged_id)
        self.edges.pop(_edge_key(i, j), None)
        del self.adj[i]
        del self.adj[j]
        self.adj[merged_id] = neighbors
        self.nodes[merged_id] = fused
        return fused


def face_pairs(labels: np.ndarray):
    """The one scan of 6-adjacent voxel pairs. Per axis 0, 1, 2, yields the
    slices ``(lower, upper)`` of each pair's two voxels and the mask of the
    pairs whose labels differ."""
    for axis in range(3):
        lower = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        upper = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        yield lower, upper, labels[lower] != labels[upper]


def build_region_graph(lv: LabelVolume, v: ScalarVolume) -> RegionGraph:
    """Single-pass construction from a label volume and its intensities.

    Requires contiguous labels 1..K covering every voxel. Statistics are
    exact aggregates over all voxels and all 6-adjacent straddling pairs.
    """
    if lv.labels.shape != v.data.shape:
        raise ValueError(
            f"label dims {lv.labels.shape} do not match volume dims {v.data.shape}"
        )
    labels = lv.labels
    k = int(labels.max(initial=0))
    if k < 1 or int(labels.min()) < 1:
        raise ValueError("labels must cover every voxel with ids >= 1")
    flat = labels.ravel()
    # k ids need k voxels: a stray huge id fails before it sizes the bincount
    if k > flat.size:
        raise ValueError(f"labels must be contiguous 1..{k}")
    counts = np.bincount(flat, minlength=k + 1)
    if not counts[1:].all():
        raise ValueError(f"labels must be contiguous 1..{k}")
    values = np.asarray(v.data, dtype=np.float64)

    graph = RegionGraph(v.voxel_volume)
    sums = np.bincount(flat, weights=values.ravel(), minlength=k + 1)
    for i, (c, s) in enumerate(zip(counts[1:].tolist(), sums[1:].tolist()), 1):
        graph.add_node(i, RegionStats(c, c * graph.voxel_volume, s))

    keys, vals = [], []
    for lower, upper, differ in face_pairs(labels):
        la, lb = labels[lower][differ].astype(np.int64), labels[upper][differ].astype(np.int64)
        keys.append(np.minimum(la, lb) * (k + 1) + np.maximum(la, lb))
        vals.append(0.5 * (values[lower][differ] + values[upper][differ]))
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    pair_counts = np.bincount(inverse)
    pair_sums = np.bincount(inverse, weights=np.concatenate(vals))
    for key, c, s in zip(uniq.tolist(), pair_counts.tolist(), pair_sums.tolist()):
        i, j = divmod(key, k + 1)
        graph.edges[(i, j)] = BoundaryStats(int(c), float(s))
        graph.adj[i].add(j)
        graph.adj[j].add(i)
    return graph
