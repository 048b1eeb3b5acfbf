"""Top-down correction of under-segmented merge-forest nodes.

Agglomeration errs on the side of merging; the resolver walks each tree
root-first and asks the classifier whether a node looks under-segmented.
If so the node is rejected and its children are examined instead,
otherwise the node (and the whole subtree below it) becomes one final
segment. Leaves are always accepted — there is nothing finer to fall
back to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .classify import ClassProbs
from .merging import MergeForest, forest_to_labels
from .volume import LabelVolume


class ClassifierError(RuntimeError):
    """A classifier failed to produce probabilities for a node."""


@dataclass
class Resolution:
    """Outcome of one resolver pass.

    selected
        Forest node ids chosen as final segments, in the order they were
        accepted (roots are processed in sorted order, children
        depth-first).
    probs
        Classifier output for every node that was actually queried.
    """

    selected: list[int] = field(default_factory=list)
    probs: dict[int, ClassProbs] = field(default_factory=dict)


def _splits(p) -> bool:
    return not isinstance(p, Exception) and p.p_under > max(p.p_correct, p.p_over)


def resolve(
    forest: MergeForest, classify_fn: Callable[[int], ClassProbs], map_fn: Callable = map
) -> Resolution:
    """Select final segments by descending into under-segmented nodes.

    A node is split exactly when the classifier puts strictly more mass
    on *under* than on either other class; ties keep the node intact.
    Nodes under split parents are independent: ``map_fn(ask, wave)`` asks
    the sorted roots, then the children of the nodes each wave split, and
    the depth-first descent is replayed from the answers, so a concurrent
    ``map_fn`` (:func:`cellforest.parallel.concurrent_map`) changes no query,
    no result and not which failing node the error names.
    """
    def ask(node_id: int):
        try:
            return classify_fn(node_id)
        except Exception as exc:
            return exc

    answers, wave = {}, [root for root in sorted(forest.roots) if forest.nodes[root].children]
    while wave:
        answers.update(zip(wave, map_fn(ask, wave)))
        wave = [c for n in wave if _splits(answers[n]) for c in forest.nodes[n].children
                if forest.nodes[c].children]
    res = Resolution()
    for root in sorted(forest.roots):
        stack = [root]
        while stack:
            node_id = stack.pop()
            node = forest.nodes[node_id]
            if not node.children:
                res.selected.append(node_id)
                continue
            probs = answers[node_id]
            if isinstance(probs, Exception):
                raise ClassifierError(f"classifier failed on node {node_id}: {probs}") from probs
            res.probs[node_id] = probs
            if _splits(probs):
                stack.extend(reversed(node.children))
            else:
                res.selected.append(node_id)
    return res


def resolve_trivial(forest: MergeForest) -> Resolution:
    """Accept every root unchanged (classifier-free baseline)."""
    return Resolution(selected=sorted(forest.roots))


def finalize(
    forest: MergeForest, resolution: Resolution, supervoxels: LabelVolume
) -> LabelVolume:
    """Paint the selected nodes as a dense label volume.

    Voxels carry the forest node id of their selected ancestor, so the
    distinct-label count equals the size of the selection.
    """
    return forest_to_labels(forest, supervoxels, resolution.selected)


def _fmt_probs(p: ClassProbs | None) -> str:
    if p is None:
        return "[leaf]"
    return f"(under={p.p_under:.3f} correct={p.p_correct:.3f} over={p.p_over:.3f})"


def resolution_report(forest: MergeForest, resolution: Resolution) -> str:
    """Plain-text log: per root, the accepted nodes with their class
    probabilities (leaves accepted without a query are marked), plus a
    summary line."""
    leaf_root = {}
    for root in sorted(forest.roots):
        for leaf in forest.leaves_under(root):
            leaf_root[leaf] = root
    by_root: dict[int, list[int]] = {}
    for node_id in resolution.selected:
        root = leaf_root[forest.leaves_under(node_id)[0]]
        by_root.setdefault(root, []).append(node_id)

    lines = []
    for root in sorted(by_root):
        parts = ", ".join(
            f"{n} {_fmt_probs(resolution.probs.get(n))}" for n in sorted(by_root[root])
        )
        lines.append(f"root {root}: {parts}")
    n_split = sum(map(_splits, resolution.probs.values()))
    lines.append(
        f"{len(resolution.selected)} segments from {len(forest.roots)} roots "
        f"({n_split} nodes split, {len(resolution.probs)} queried)"
    )
    return "\n".join(lines) + "\n"
