"""Conservative over-segmentation by all-minima seeded watershed.

Seeds are every plateau-connected local minimum of the preprocessed
volume (26-connectivity), flooded with a 6-connected priority flood.
Skipping any minima suppression keeps the supervoxels conservative: they
may split cells but should never span two of them.

``seeded_watershed`` follows its queue without running it. A voxel takes
the label of its *parent*, the 6-neighbour processed first (seeds, in
scan order, then pops), so pointer jumping gives the labels once the pop
order is known. It has a closed form:

* The water level lam(v) is the minimax rank over paths from the seeds:
  rank(v) where a non-increasing path reaches a seed, else relaxed. Only
  *pit* voxels (lam > rank: seedless depressions, e.g. at a 6-minimum
  that is no 26-minimum) pop out of rank order.
* The generation gen(v), v's FIFO layer in its level, is 0 next to a
  lower level, else one more than its earliest equal-level neighbour's.
* Outside pits, v pops in the order of (lam, gen, parent's order, v's
  direction from it in x-, x+, y-, y+, z-, z+ order). A pit component is
  flooded right after its *host*, the first rim voxel to pop: it takes
  gen(host), its voxels order as (host, position in that sub-flood) and
  the rank-lam voxels it pushes get gen(host) + 1. Positions, like the
  directions at a shared parent, only order voxels of one label.
* A voxel tied on (lam, gen) takes a candidate's label, and is settled
  exactly (walking both parent chains until the keys, or the directions
  at a shared parent, differ) only where its candidates' labels disagree.
  Then the labels are exact, by induction in pop order: a voxel's true
  parent pops before it and is one of its candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key, partial, reduce
from itertools import groupby

import numpy as np
from scipy import ndimage as ndi

from .preprocess import box_filter
from .volume import LabelVolume, ScalarVolume

_CUBE = np.ones((3, 3, 3), dtype=bool)


@dataclass
class MinimaSet:
    """Plateau-connected minimum regions of a volume.

    ``seed_labels`` holds component ids 1..n at minimum voxels, 0
    elsewhere; ``plateau_values`` maps component id - 1 to the plateau
    intensity. Components are ordered by first occurrence in x-fastest
    scan order.
    """

    seed_labels: np.ndarray
    plateau_values: np.ndarray

    def __len__(self) -> int:
        return len(self.plateau_values)


def find_local_minima(v: ScalarVolume) -> MinimaSet:
    """All maximal constant-value 26-connected plateaus with no lower 26-neighbor.

    A plateau that touches any strictly lower voxel anywhere on its rim is
    not a minimum, even if parts of it are locally flat.
    """
    a = np.asarray(v.data, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("find_local_minima requires finite intensities")
    # the minimum over the 3x3x3 cube includes the center, so it is < a
    # exactly where some 26-neighbor is strictly lower. Replicated borders
    # never fabricate lower values.
    has_lower = box_filter(a, [(1, 1, 1)], np.minimum) < a
    cand = ~has_lower

    # A candidate next to an equal-valued voxel that has a lower neighbor
    # sits on a plateau that descends somewhere, so its component is
    # rejected. No neighbor of a candidate is lower, so that holds iff the
    # least value among its neighbors with a lower neighbor is its own.
    touches_descent = box_filter(np.where(has_lower, a, np.inf), [(1, 1, 1)], np.minimum) == a

    comp_labels, n_comp = ndi.label(cand, structure=_CUBE)
    bad = np.unique(comp_labels[cand & touches_descent])
    keep = np.setdiff1d(np.arange(1, n_comp + 1), bad)

    remap = np.zeros(n_comp + 1, dtype=np.int32)
    remap[keep] = np.arange(1, len(keep) + 1, dtype=np.int32)
    seed_labels = remap[comp_labels]

    flat = a.ravel()
    seeds_flat = seed_labels.ravel()
    first = np.full(len(keep) + 1, -1, dtype=np.int64)
    nz_idx = np.flatnonzero(seeds_flat)
    # reversed scan keeps the first occurrence per component
    first[seeds_flat[nz_idx[::-1]]] = nz_idx[::-1]
    return MinimaSet(seed_labels, flat[first[1:]])


class _Unknown(Exception):
    """A comparison needs the exact parent of the voxel in ``args[0]``."""


def _roots(ptr: np.ndarray) -> np.ndarray:
    """The root (self-pointing end) of every pointer chain, by pointer jumping."""
    while not np.array_equal(nxt := ptr[ptr], ptr):
        ptr = nxt
    return ptr


def seeded_watershed(v: ScalarVolume, seeds: MinimaSet) -> LabelVolume:
    """Priority flood from the seed components over 6-connectivity.

    Every voxel receives exactly one label (no watershed-line voxels).
    Queue discipline: entries are popped in non-decreasing intensity of
    the target voxel, FIFO among equal intensities. Insertion order is
    fixed: seed voxels in x-fastest scan order, then per popped voxel its
    unlabeled neighbors in x-, x+, y-, y+, z-, z+ order, which makes the
    result deterministic.

    The module docstring derives the labels from this specification.
    Intensities are ranked by ``np.unique``; non-finite ones raise.
    """
    if len(seeds) == 0:
        raise ValueError("seeded_watershed requires at least one seed component")
    a = np.asarray(v.data, dtype=np.float64)
    if a.shape != seeds.seed_labels.shape:
        raise ValueError("seed array shape does not match volume")
    if not np.isfinite(a).all():
        raise ValueError("seeded_watershed requires finite intensities")

    # Flat indices into a grid padded with label -1, rank big; [lo, hi) is inside.
    big = np.iinfo(np.int32).max
    r = np.full(np.add(a.shape, 2), big, dtype=np.int32)
    r[1:-1, 1:-1, 1:-1] = np.unique(a, return_inverse=True)[1].reshape(a.shape)
    pshape, r = r.shape, r.ravel()
    lp = np.pad(seeds.seed_labels.astype(np.int32), 1, constant_values=-1).ravel()
    steps = (-1, 1, -pshape[2], pshape[2], -pshape[1] * pshape[2], pshape[1] * pshape[2])
    n, lo, hi = r.size, steps[5] + steps[3] + 1, r.size - steps[5] - steps[3] - 1
    every = np.arange(n, dtype=np.int32)
    idx = every[lo:hi]
    free = lp[lo:hi] == 0

    # Descent pointers: to a lowest neighbour if it is lower, else (on a
    # plateau with no lower neighbour) to an exit of the plateau, if any.
    ptr = every.copy()
    low = reduce(np.minimum, [r[lo + s:hi + s] for s in steps])
    for s in steps:
        np.copyto(ptr[lo:hi], idx + s, where=free & (r[lo + s:hi + s] == low) & (low < r[lo:hi]))
    flat = np.zeros(n, dtype=bool)
    flat[lo:hi] = free & (low == r[lo:hi])
    plateau = ndi.label(flat.reshape(pshape))[0].ravel()
    exits = np.full(plateau.max() + 1, -1, dtype=np.int32)
    for s in steps:
        e = idx[flat[lo:hi] & ~flat[lo + s:hi + s] & (r[lo + s:hi + s] == r[lo:hi])]
        exits[plateau[e]] = e + s
    ptr[flat] = np.where(exits[plateau[flat]] >= 0, exits[plateau[flat]], every[flat])

    # Water levels: rank where the descent reaches a seed, else the
    # minimax, relaxed to a fixed point. Seeds get level -1.
    lam = np.where(lp > 0, -1, r)
    wet = idx[free & (lp[_roots(ptr)][lo:hi] == 0)]
    del low, ptr, flat, plateau
    lam[wet], near = big, wet[:, None] + np.array(steps, dtype=np.int32)
    while not np.array_equal(t := np.maximum(r[wet], lam[near].min(1)), lam[wet]):
        lam[wet] = t

    # Generations: 0 next to a lower level, else BFS depth within the
    # level, where a pit component takes the generation of its host (the
    # smallest on its rim) and passes on one more.
    comp = ndi.label((lam > r).reshape(pshape))[0].ravel()
    pits = np.flatnonzero(comp)
    gen = np.zeros(n, dtype=np.int32)
    t = idx[free & (reduce(np.minimum, [lam[lo + s:hi + s] for s in steps]) >= lam[lo:hi])]
    gen[t] = -1

    def fresh(front):
        """Voxels next to front, on its level, that have no generation yet."""
        nb = (front[:, None] + np.array(steps, dtype=np.int32)).ravel()
        return np.unique(nb[(gen[nb] < 0) & (lam[nb] == np.repeat(lam[front], 6))])

    new = t[reduce(np.logical_or, [(gen[t + s] == 0) & (lam[t + s] == lam[t]) for s in steps])]
    for depth in range(n):
        lit = pits[(gen[pits] < 0) & np.isin(comp[pits], comp[new])]
        gen[lit] = depth
        new = np.union1d(new[comp[new] == 0], fresh(lit))
        gen[new] = depth + 1
        if not len(new := fresh(new)):
            break

    # Order keys (lam, gen) in one int64; seeds below all, in scan order.
    kk = np.where(lp > 0, every - np.int64(n), lam.astype(np.int64) * (n + 1) + gen)
    par = np.where(lp > 0, every, -1)
    K, PAR, COMP = map(memoryview, (kk, par, comp))
    host = {}  # pit voxel -> (its host, 1): it pops right after the host

    def before(x, y):
        """Negative if x is processed before y."""
        while K[x] == K[y]:
            (x, i), (y, j) = host.get(x, (x, 0)), host.get(y, (y, 0))
            if x == y:
                return i - j
            px, py = PAR[x], PAR[y]
            if px < 0 or py < 0:
                raise _Unknown(x if px < 0 else y)
            if px == py:
                return steps.index(x - px) - steps.index(y - py)
            x, y = px, py
        return -1 if K[x] < K[y] else 1

    def pick(x):
        """Set the exact parent of x: its first neighbour."""
        if PAR[x] < 0:
            near = [x + s for s in steps]
            first = min(K[y] for y in near)
            PAR[x] = min((y for y in near if K[y] == first), key=cmp_to_key(before))

    def settle(task):
        """Run task() once the exact parents its comparisons need are set."""
        todo = [task]
        while todo:
            try:
                todo[-1]()
                todo.pop()
            except _Unknown as need:
                todo.append(partial(pick, need.args[0]))

    # Hosts, by increasing key: each pit component's first rim voxel.
    for _, vox in groupby(sorted(pits.tolist(), key=lambda x: (K[x], COMP[x])), COMP.__getitem__):
        vox = list(vox)
        rim = {x + s for x in vox for s in steps if COMP[x + s] == 0 and K[x + s] == K[x]}
        settle(lambda: host.update(dict.fromkeys(vox, (min(rim, key=cmp_to_key(before)), 1))))
        par[vox] = host[vox[0]][0]

    # Parents of the rest: the unique neighbour first by key, else a tie.
    first = reduce(np.minimum, [kk[lo + s:hi + s] for s in steps])
    hits = [kk[lo + s:hi + s] == first for s in steps]
    open_ = free & (par[lo:hi] < 0)
    one = open_ & (sum(h.view(np.int8) for h in hits) == 1)
    for s, h in zip(steps, hits):
        np.copyto(par[lo:hi], idx + s, where=one & h)
    tied = idx[open_ & ~one]
    cand = np.stack([np.where(h[tied - lo], tied + s, -1) for s, h in zip(steps, hits)])
    del r, lam, gen, first, hits

    # Labels: roots are seeds or tied voxels. On the graph compressed to
    # them (nodes: tied voxels, then labels) a tied voxel points to a
    # candidate's root, or to its exact parent's once candidates disagree.
    root = _roots(np.where(par >= 0, par, every))
    code = np.where(lp > 0, len(tied) + lp, 0)
    code[tied] = np.arange(len(tied))
    cnode = np.where(cand >= 0, code[root[cand]], -1)
    link = np.concatenate([cnode.max(0), np.arange(len(tied), code.max() + 1)])
    while True:
        done = par[tied] >= 0
        link[: len(tied)][done] = code[root[par[tied[done]]]]
        lab = np.where(cnode >= 0, _roots(link)[cnode], -1)
        clash = ~done & (np.where(lab >= 0, lab, big).min(0) != lab.max(0))
        if not clash.any():
            break
        for t in tied[clash].tolist():
            settle(partial(pick, t))
    code[tied] = _roots(link)[: len(tied)]
    out = (code[root] - len(tied)).reshape(pshape)[1:-1, 1:-1, 1:-1]
    return LabelVolume(np.ascontiguousarray(out, dtype=np.int32), v.spacing)
