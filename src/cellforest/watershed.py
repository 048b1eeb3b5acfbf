"""Conservative over-segmentation by all-minima seeded watershed.

Seeds are every plateau-connected local minimum of the preprocessed volume
(26-connectivity), flooded with a 6-connected priority flood. Skipping any
minima suppression keeps the supervoxels conservative: they may split cells but
should never span two of them.

``seeded_watershed`` follows its queue without running it. A voxel takes the
label of its *parent*, the 6-neighbour processed first (seeds, in scan order,
then pops), so pointer jumping gives the labels once the pop order is known. It
has a closed form:

* The water level lam(v) is the minimax rank over paths from the seeds: rank(v)
  where a non-increasing path reaches a seed, else relaxed. Only *pit* voxels
  (lam > rank: seedless depressions, e.g. at a 6-minimum that is no 26-minimum)
  pop out of rank order.
* The generation gen(v), v's FIFO layer in its level, is 0 next to a lower
  level, else one more than its earliest equal-level neighbour's.
* Outside pits, v pops in the order of (lam, gen, parent's order, v's direction
  from it). A pit component is flooded right after its *host*, the first rim
  voxel to pop: it takes gen(host), its voxels order as (host, position in that
  sub-flood) and the rank-lam voxels it pushes get gen(host) + 1. Positions
  order the voxels of one pit and directions the children of one voxel, each a
  set of one label, so neither is computed.
* A voxel tied on (lam, gen) takes a candidate's label, and is settled (walking
  both parent chains until the keys differ) only where its candidates' labels
  disagree. Chains that meet compare equal, so the parent or host chosen is the
  true one or a sibling of it: the same key chain and the same label. Then the
  labels are exact, by induction in pop order: a voxel's true parent pops
  before it and is one of its candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby

import numpy as np
from scipy import ndimage as ndi

from .preprocess import box_filter
from .volume import LabelVolume, ScalarVolume

@dataclass
class MinimaSet:
    """Plateau-connected minimum regions of a volume.

    ``seed_labels`` holds component ids 1..n at minimum voxels, 0 elsewhere.
    Components are ordered by first occurrence in x-fastest scan order.
    """

    seed_labels: np.ndarray

    def __len__(self) -> int:
        return int(self.seed_labels.max(initial=0))


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
    # never fabricate lower values. The other voxels are candidates.
    has_lower = box_filter(a, [(1, 1, 1)], np.minimum) < a

    # A candidate next to an equal-valued voxel that has a lower neighbor
    # sits on a plateau that descends somewhere, so its component is
    # rejected. No neighbor of a candidate is lower, so that holds iff the
    # least value among its neighbors with a lower neighbor is its own.
    touches_descent = box_filter(np.where(has_lower, a, np.inf), [(1, 1, 1)], np.minimum) == a

    comp_labels, n_comp = ndi.label(~has_lower, structure=np.ones((3, 3, 3)))
    keep = np.arange(n_comp + 1) > 0
    keep[comp_labels[~has_lower & touches_descent]] = False
    return MinimaSet((np.cumsum(keep, dtype=np.int32) * keep)[comp_labels])


class _Unknown(Exception):
    """A comparison needs the exact parent of the voxel in ``args[0]``."""


def _roots(ptr: np.ndarray) -> np.ndarray:
    """Jump every pointer, in place, to its chain's end: the first negative value."""
    todo = list(range(0, len(ptr), 1 << 15))
    for a in todo:  # a block with pointers short of the end queues again
        p = ptr[a:a + (1 << 15)]
        i = np.flatnonzero(p >= 0)
        p[i] = t = ptr[p[i]]
        if (t >= 0).any():
            todo.append(a)
    return ptr


def seeded_watershed(v: ScalarVolume, seeds: MinimaSet) -> LabelVolume:
    """Priority flood from the seed components over 6-connectivity.

    Every voxel receives exactly one label (no watershed-line voxels). Queue
    discipline: entries are popped in non-decreasing intensity of the target
    voxel, FIFO among equal intensities. Insertion order is fixed: seed voxels
    in x-fastest scan order, then per popped voxel its unlabeled neighbors in
    x-, x+, y-, y+, z-, z+ order, which makes the result deterministic.

    The module docstring derives the labels from this specification.
    Intensities are ranked by sorting their float64 bits as sign and
    magnitude, so -0.0 ranks with 0.0; non-finite ones raise.
    """
    a = np.asarray(v.data, dtype=np.float64)
    if len(seeds) == 0 or a.shape != seeds.seed_labels.shape:
        raise ValueError("seeded_watershed requires seed components on the volume's grid")
    if not np.isfinite(a).all():
        raise ValueError("seeded_watershed requires finite intensities")

    # Ranks from the sorted values' bits, seeds at -1, in flat indices into a
    # grid padded with rank a.size; [lo, hi) is inside.
    k = np.abs(a).view(np.int64).ravel()
    np.negative(k, out=k, where=(a < 0).ravel())
    order, rank = k.argsort(), np.zeros(a.size, dtype=np.int32)
    k.sort()
    np.not_equal(k[1:], k[:-1], out=rank[1:])
    del k
    rank[order] = np.cumsum(rank, out=rank)
    rank[seeds.seed_labels.ravel() > 0] = -1
    r = np.pad(rank.reshape(a.shape), 1, constant_values=a.size)
    del order, rank
    pshape, r = r.shape, r.ravel()
    steps = (-1, 1, -pshape[2], pshape[2], -pshape[1] * pshape[2], pshape[1] * pshape[2])
    n, lo, hi = r.size, steps[5] + steps[3] + 1, r.size - steps[5] - steps[3] - 1
    free, sidx = (r[lo:hi] >= 0) & (r[lo:hi] < a.size), np.flatnonzero(r < 0)

    # Descent pointers: to a lowest neighbour if lower, else (on a plateau with
    # no lower neighbour) to the plateau's exit, if any; -2 at seeds, else -1.
    ptr = ~(r < 0).astype(np.int32)
    low = reduce(np.minimum, [r[lo + s:hi + s] for s in steps])
    for s in steps:
        np.copyto(ptr[lo:hi], np.arange(lo + s, hi + s, dtype=np.int32),
                  where=free & (low < r[lo:hi]) & (r[lo + s:hi + s] == low))
    flat = np.pad(free & (low == r[lo:hi]), (lo, n - hi))
    del low
    plateau = ndi.label(flat.reshape(pshape))[0].ravel()
    exits = np.full(plateau.max() + 1, -1, dtype=np.int32)
    for s in steps:
        e = lo + np.flatnonzero(flat[lo:hi] & ~flat[lo + s:hi + s] & (r[lo + s:hi + s] == r[lo:hi]))
        exits[plateau[e]] = e + s
    ptr[flat] = exits[plateau[flat]]

    # Water levels: rank where the descent reaches a seed, else the
    # minimax, relaxed to a fixed point. Seeds get level -1.
    wet = lo + np.flatnonzero(free & (_roots(ptr)[lo:hi] == -1))
    del flat, plateau, ptr
    lam = r.copy()
    lam[wet], near = a.size, wet[:, None] + np.array(steps)
    while not np.array_equal(t := np.maximum(r[wet], lam[near].min(1)), lam[wet]):
        lam[wet] = t

    # Generations: 0 next to a lower level, else BFS depth in the level; a pit
    # component takes its host's (the least on its rim) and passes on one more.
    comp = ndi.label((lam > r).reshape(pshape))[0].ravel()
    del r, wet, near
    t = reduce(np.minimum, [lam[lo + s:hi + s] for s in steps]) >= lam[lo:hi]
    t, pits, gen = lo + np.flatnonzero(free & t), np.flatnonzero(comp), np.zeros(n, dtype=np.int32)
    gen[t], gen[sidx] = -1, sidx + 1  # seeds' keys below all, in scan order

    def fresh(front):
        """Voxels next to front, on its level, that have no generation yet."""
        nb = (front[:, None] + np.array(steps)).ravel()
        return np.unique(nb[(gen[nb] < 0) & (lam[nb] == np.repeat(lam[front], 6))])

    new = t[reduce(np.logical_or, [(gen[t + s] == 0) & (lam[t + s] == lam[t]) for s in steps])]
    for depth in range(n):
        lit = pits[(gen[pits] < 0) & np.isin(comp[pits], comp[new])]
        gen[lit] = depth
        new = np.union1d(new[comp[new] == 0], fresh(lit))
        gen[new] = depth + 1
        if not len(new := fresh(new)):
            break

    # Order keys (lam, gen) in one int64.
    cof = dict(zip(pits.tolist(), comp[pits].tolist()))  # pit voxel -> its component
    del comp, t, new
    kk = np.multiply(lam, n + 1, dtype=np.int64)
    kk += gen
    del lam, gen
    par = np.full(n, -1, dtype=np.int32)
    K, PAR, host = memoryview(kk), memoryview(par), {}  # host: pit voxel -> (its host, 1)

    def before(x, y):
        """Negative if x is processed before y, 0 for children of one voxel."""
        while K[x] == K[y]:
            (x, i), (y, j) = host.get(x, (x, 0)), host.get(y, (y, 0))
            if x == y:
                return i - j
            px, py = PAR[x], PAR[y]
            if px < 0 or py < 0:
                raise _Unknown(x if px < 0 else y)
            x, y = px, py
        return -1 if K[x] < K[y] else 1

    def first(xs):
        """The x in xs processed first; of children of one voxel, the earliest listed."""
        return reduce(lambda best, x: x if before(x, best) < 0 else best, xs)

    def pick(x):
        """Set the exact parent of x: its first neighbour."""
        if PAR[x] < 0:
            low = min(ks := [K[x + s] for s in steps])
            PAR[x] = first([x + s for s, k in zip(steps, ks) if k == low])

    def settle(todo):
        """Run the tasks on the list once the exact parents they compare are set."""
        while todo:
            try:
                todo[-1]()
                todo.pop()
            except _Unknown as need:
                todo.append(partial(pick, need.args[0]))

    # Hosts, by increasing key: each pit component's first rim voxel.
    for _, vox in groupby(sorted(pits.tolist(), key=lambda x: (K[x], cof[x])), cof.__getitem__):
        vox = list(vox)
        rim = {x + s for x in vox for s in steps if x + s not in cof and K[x + s] == K[x]}
        settle([lambda: host.update(dict.fromkeys(vox, (first(rim), 1)))])
        par[vox] = host[vox[0]][0]

    # Parents of the rest, a block at a time: the unique neighbour first by
    # key, else a tie whose candidates are those neighbours (c, with repeats).
    cand = []
    for a in range(lo, hi, step := n // 64 + 1):
        b = min(a + step, hi)
        k6 = [kk[a + s:b + s] for s in steps]
        low = reduce(np.minimum, k6)
        hits = [k == low for k in k6]
        count = reduce(np.add, (h.view(np.int8) for h in hits))
        open_, at = free[a - lo:b - lo] & (par[a:b] < 0), np.arange(a, b, dtype=np.int32)
        one = open_ & (count == 1)
        for s, h in zip(steps, hits):
            np.copyto(par[a:b], at + s, where=one & h)
        i = np.flatnonzero(open_ & (count > 1))
        c = np.stack([np.where(h[i], at[i] + s, -1) for s, h in zip(steps, hits)])
        np.copyto(c, c.max(0), where=c < 0)
        cand.append(c)
    tied, cand = lo + np.flatnonzero(free & (par[lo:hi] < 0)), np.concatenate(cand, axis=1)
    del free, k6, low, hits, count, c

    # Labels: parent chains end (~node) at seeds, label l as node l - 1, or at
    # tied voxels, i as node m + i. A tied voxel links to a candidate's node,
    # or to its exact parent's once the candidates' labels disagree.
    m, node = len(seeds), par.copy()
    node[sidx] = -seeds.seed_labels[seeds.seed_labels > 0]
    node[tied] = ~np.arange(m, m + len(tied), dtype=np.int32)
    np.invert(_roots(node), out=node)
    for c in cand:
        c[:] = node[c]
    link = np.concatenate([~np.arange(m, dtype=np.int32), cand.max(0)])
    while True:
        done = par[tied] >= 0
        link[m:][done] = node[par[tied[done]]]
        lab = _roots(link.copy())
        l0 = lab[cand[0]]
        clash = ~done & reduce(np.logical_or, (lab[c] != l0 for c in cand[1:]))
        if not clash.any():
            break
        settle([partial(pick, t) for t in tied[clash].tolist()])
    del K, PAR, kk, par
    out = _roots(link)[node.reshape(pshape)[1:-1, 1:-1, 1:-1]]
    return LabelVolume(np.negative(out, out=out), v.spacing)
