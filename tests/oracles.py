"""Brute-force reference implementations.

Everything here trades speed for obviousness: plain loops, no shared
code with the package, so the fast implementations can be checked
against independently derived answers on small inputs. A few are the
earlier formulations (the heap flood, full im2col matrix, transposed
argmax pooling, whole-volume patch extraction, the all-sites Voronoi
scan, the looped site placement and touching pairs) that the queue-free,
blocked, box-bounded and block-pruned production code must reproduce
bit for bit.
"""

import heapq
import itertools

import numpy as np
from scipy import ndimage as ndi

FACE_STEPS = ((0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0), (-1, 0, 0), (1, 0, 0))


def blur_reference(data, sigma_xyz):
    """Dense separable Gaussian blur with edge replication.

    Kernel radius ceil(3 sigma) per axis, each 1D kernel renormalized to
    sum 1; sampling clamps indices to the volume.
    """
    out = np.asarray(data, dtype=np.float64)
    for axis, sigma in ((2, sigma_xyz[0]), (1, sigma_xyz[1]), (0, sigma_xyz[2])):
        if sigma <= 0:
            continue
        radius = int(np.ceil(3.0 * sigma))
        t = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (t / sigma) ** 2)
        kernel /= kernel.sum()
        src = out.copy()
        out = np.zeros_like(src)
        n = src.shape[axis]
        for offset, weight in zip(range(-radius, radius + 1), kernel):
            idx = np.clip(np.arange(n) + offset, 0, n - 1)
            out += weight * np.take(src, idx, axis=axis)
    return np.clip(out, 0.0, 1.0)


def morph_reference(data, offsets, op):
    """Neighborhood min/max with clamped (edge-replicating) sampling.

    ``offsets`` is an (m, 3) array of (dz, dy, dx); ``op`` is np.max or
    np.min.
    """
    a = np.asarray(data, dtype=np.float64)
    nz, ny, nx = a.shape
    out = np.empty_like(a)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                vals = [
                    a[
                        min(max(z + dz, 0), nz - 1),
                        min(max(y + dy, 0), ny - 1),
                        min(max(x + dx, 0), nx - 1),
                    ]
                    for dz, dy, dx in offsets
                ]
                out[z, y, x] = op(vals)
    return out


def ball_ndi_reference(data, radius, op):
    """Grayscale dilation (``op`` "max") or erosion ("min") over the discrete
    ball of ``radius``, edge-replicated: scipy's footprint filter, as the
    package computed it before its separable box filter. Fast and exact."""
    r = int(radius)
    ax = np.arange(-r, r + 1)
    dz, dy, dx = np.meshgrid(ax, ax, ax, indexing="ij")
    ball = dx * dx + dy * dy + dz * dz <= r * r
    morph = ndi.grey_dilation if op == "max" else ndi.grey_erosion
    return morph(np.asarray(data, dtype=np.float64), footprint=ball, mode="nearest")


def closing_ndi_reference(data, r_cl_max):
    """Closings with balls of radius 1..r_cl_max through the footprint filter."""
    out = np.asarray(data, dtype=np.float64)
    for r in range(1, r_cl_max + 1):
        out = ball_ndi_reference(ball_ndi_reference(out, r, "max"), r, "min")
    return out


def minima_ndi_reference(data):
    """Seed labels of the 26-connected plateau minima, as
    the package computed them before its box filter: a footprint erosion
    over the 3x3x3 cube and one shifted comparison per 26-neighbour."""
    a = np.asarray(data, dtype=np.float64)
    cube = np.ones((3, 3, 3), dtype=bool)
    has_lower = ndi.grey_erosion(a, footprint=cube, mode="nearest") < a
    touches_descent = np.zeros_like(has_lower)
    for d in itertools.product((-1, 0, 1), repeat=3):
        src = tuple(slice(max(k, 0), n + min(k, 0)) for k, n in zip(d, a.shape))
        dst = tuple(slice(max(-k, 0), n + min(-k, 0)) for k, n in zip(d, a.shape))
        if any(d):
            touches_descent[dst] |= (a[dst] == a[src]) & has_lower[src]
    comp, n = ndi.label(~has_lower, structure=cube)
    bad = np.unique(comp[~has_lower & touches_descent])
    keep = np.setdiff1d(np.arange(1, n + 1), bad)
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[keep] = np.arange(1, len(keep) + 1, dtype=np.int32)
    return remap[comp]


def minima_reference(data):
    """Plateau-connected local minima by exhaustive plateau walking.

    Returns a label array: 0 for non-minimum voxels, 1..n for each
    26-connected constant-value plateau none of whose voxels has a
    strictly lower 26-neighbor; components numbered by first occurrence
    in x-fastest scan order.
    """
    a = np.asarray(data, dtype=np.float64)
    nz, ny, nx = a.shape
    labels = np.zeros((nz, ny, nx), dtype=np.int64)
    visited = np.zeros((nz, ny, nx), dtype=bool)
    next_label = 1
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if visited[z, y, x]:
                    continue
                value = a[z, y, x]
                plateau = [(z, y, x)]
                visited[z, y, x] = True
                is_min = True
                i = 0
                while i < len(plateau):
                    cz, cy, cx = plateau[i]
                    i += 1
                    for dz in (-1, 0, 1):
                        for dy in (-1, 0, 1):
                            for dx in (-1, 0, 1):
                                wz, wy, wx = cz + dz, cy + dy, cx + dx
                                if (dz, dy, dx) == (0, 0, 0):
                                    continue
                                if not (0 <= wz < nz and 0 <= wy < ny and 0 <= wx < nx):
                                    continue
                                w = a[wz, wy, wx]
                                if w < value:
                                    is_min = False
                                elif w == value and not visited[wz, wy, wx]:
                                    visited[wz, wy, wx] = True
                                    plateau.append((wz, wy, wx))
                if is_min:
                    for cz, cy, cx in sorted(plateau):
                        labels[cz, cy, cx] = next_label
                    next_label += 1
    return labels


def flood_reference(values, seed_labels):
    """Seeded priority flood as an O(n^2) scan instead of a heap.

    Mirrors the production queue discipline exactly: seed voxels are
    pre-labeled; their free 6-neighbors enter the queue in x-fastest
    seed-scan order, (x-, x+, y-, y+, z-, z+) per voxel; each pop takes
    the entry with the smallest (intensity, insertion index).
    """
    a = np.asarray(values, dtype=np.float64)
    nz, ny, nx = a.shape
    labels = np.asarray(seed_labels, dtype=np.int64).copy()
    queue = []
    order = itertools.count()

    def push_neighbors(z, y, x, lab):
        for dz, dy, dx in FACE_STEPS:
            wz, wy, wx = z + dz, y + dy, x + dx
            if 0 <= wz < nz and 0 <= wy < ny and 0 <= wx < nx:
                if labels[wz, wy, wx] == 0:
                    queue.append((a[wz, wy, wx], next(order), (wz, wy, wx), lab))

    for z, y, x in np.argwhere(labels > 0):
        push_neighbors(z, y, x, labels[z, y, x])
    while queue:
        best = min(range(len(queue)), key=lambda i: queue[i][:2])
        _, _, (z, y, x), lab = queue.pop(best)
        if labels[z, y, x] != 0:
            continue
        labels[z, y, x] = lab
        push_neighbors(z, y, x, lab)
    return labels


def flood_heap_reference(values, seed_labels, trace=False):
    """The same flood as ``flood_reference`` with a packed-int heap: fast
    enough for whole phantoms, exact for any finite input.

    A voxel is labelled at its first push and never queued twice, which
    equals labelling it at its first pop: every entry for a voxel has its
    intensity, so its first push has the smallest counter and pops first.
    An entry is one int, ``rank << 2B | counter << B | index``, where
    ``rank`` orders the intensities, ``index`` is the voxel in the padded
    grid and ``B`` is the bit length of the padded size.

    With ``trace`` it also returns, per voxel (-1 for seeds): ``rank``,
    ``level`` (the highest rank popped so far when it pops), ``parent``
    (flat index of the voxel whose pop pushed it) and ``order`` (its pop
    number).
    """
    a = np.asarray(values, dtype=np.float64)
    nz, ny, nx = a.shape
    # a sentinel ring of label -1 keeps border voxels out of the queue
    rank = np.pad(np.unique(a, return_inverse=True)[1].reshape(a.shape), 1)
    lp = np.pad(np.asarray(seed_labels, dtype=np.int32), 1, constant_values=-1)
    pnx, pny = nx + 2, ny + 2
    steps = (-1, 1, -pnx, pnx, -pnx * pny, pnx * pny)
    bits = lp.size.bit_length()
    mask = (1 << bits) - 1
    base = [r << 2 * bits | i for i, r in enumerate(rank.ravel().tolist())]
    labels = lp.ravel().tolist()
    info = np.full((3, lp.size), -1, dtype=np.int64)  # level, parent, order
    heap = []
    counter = 0
    pops = 0

    def push_neighbors(idx):
        nonlocal counter
        for step in steps:
            n = idx + step
            if labels[n] == 0:
                labels[n] = labels[idx]
                info[1, n] = idx
                heapq.heappush(heap, base[n] | counter << bits)
                counter += 1

    for idx in np.flatnonzero(lp.ravel() > 0).tolist():
        push_neighbors(idx)
    level = -1
    while heap:
        entry = heapq.heappop(heap)
        idx = entry & mask
        if trace:
            level = max(level, entry >> 2 * bits)
            info[0, idx], info[2, idx] = level, pops
            pops += 1
        push_neighbors(idx)
    out = np.array(labels, dtype=np.int32).reshape(lp.shape)[1:-1, 1:-1, 1:-1].copy()
    if not trace:
        return out
    inner = (slice(1, -1),) * 3
    level, parent, order = (x.reshape(lp.shape)[inner] for x in info)
    pz, py, px = np.unravel_index(np.maximum(parent, 0), lp.shape)
    inner_index = np.ravel_multi_index((pz - 1, py - 1, px - 1), a.shape, mode="clip")
    parent = np.where(parent >= 0, inner_index, -1)
    rank = np.where(level >= 0, rank[inner], -1)
    return out, {"rank": rank, "level": level, "parent": parent, "order": order}


def region_stats_reference(labels, values, spacing):
    """Per-label and per-pair aggregates by explicit iteration.

    Returns (nodes, edges): nodes maps label -> (voxel_count, volume,
    intensity_sum); edges maps (lo, hi) -> (pair_count,
    pair_intensity_sum) with each 6-adjacent straddling pair adding the
    mean of its two voxel values.
    """
    a = np.asarray(values, dtype=np.float64)
    lab = np.asarray(labels)
    nz, ny, nx = lab.shape
    sx, sy, sz = spacing
    voxel_volume = sx * sy * sz
    nodes = {}
    edges = {}
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                li = int(lab[z, y, x])
                count, vol, s = nodes.get(li, (0, 0.0, 0.0))
                nodes[li] = (count + 1, (count + 1) * voxel_volume, s + a[z, y, x])
                for dz, dy, dx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
                    wz, wy, wx = z + dz, y + dy, x + dx
                    if wz >= nz or wy >= ny or wx >= nx:
                        continue
                    lj = int(lab[wz, wy, wx])
                    if li == lj:
                        continue
                    key = (min(li, lj), max(li, lj))
                    pc, ps = edges.get(key, (0, 0.0))
                    edges[key] = (pc + 1, ps + (a[z, y, x] + a[wz, wy, wx]) / 2.0)
    return nodes, edges


def voronoi_reference(sites_zyx, dims_xyz, spacing_xyz):
    """Nearest-site labels by scanning every (voxel, site) pair.

    Sites are continuous (z, y, x) index coordinates; distances use
    physical positions (index times spacing); ties go to the lowest site
    index.
    """
    nx, ny, nz = dims_xyz
    sx, sy, sz = spacing_xyz
    labels = np.zeros((nz, ny, nx), dtype=np.int64)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                best = None
                best_d2 = None
                for k, (cz, cy, cx) in enumerate(sites_zyx):
                    d2 = (
                        ((z - cz) * sz) ** 2
                        + ((y - cy) * sy) ** 2
                        + ((x - cx) * sx) ** 2
                    )
                    if best_d2 is None or d2 < best_d2:
                        best_d2 = d2
                        best = k + 1
                labels[z, y, x] = best
    return labels


def voronoi_scan_reference(sites, params):
    """Nearest-site labels by scanning every site over the whole grid.

    The earlier production formulation that the block-pruned labelling
    must reproduce bit for bit: per voxel the distance is
    ``((zz - pz)**2 + (yy - py)**2) + (xx - px)**2`` in physical units,
    and a strict ``<`` in site order gives ties to the lowest index.
    """
    nx, ny, nz = params.dims
    sx, sy, sz = params.spacing
    scale = np.array([sz, sy, sx])
    zz, yy, xx = np.meshgrid(
        np.arange(nz) * sz, np.arange(ny) * sy, np.arange(nx) * sx, indexing="ij"
    )
    best_d2 = np.full((nz, ny, nx), np.inf)
    labels = np.zeros((nz, ny, nx), dtype=np.uint32)
    for k, site in enumerate(sites):
        pz, py, px = site * scale
        d2 = (zz - pz) ** 2 + (yy - py) ** 2 + (xx - px) ** 2
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        labels[closer] = k + 1
    return labels


def place_sites_reference(params, rng):
    """Rejection-sample sites one draw at a time, testing each candidate
    against every placed site in a Python loop (the earlier formulation)."""
    nx, ny, nz = params.dims
    extent = np.array([nz, ny, nx], dtype=np.float64)
    min_sep2 = (2.0 * params.membrane_width) ** 2
    sites = []
    rejects = 0
    while len(sites) < params.n_cells:
        cand = rng.random(3) * extent
        if any(np.sum((cand - s) ** 2) < min_sep2 for s in sites):
            rejects += 1
            if rejects >= 10_000:
                raise ValueError(
                    f"could not place {params.n_cells} sites at separation "
                    f"{2 * params.membrane_width} in dims {params.dims}"
                )
            continue
        rejects = 0
        sites.append(cand)
    return np.array(sites)


def touching_pairs_reference(labels):
    """Sorted unique (lower, higher) label pairs across every face, by a
    Python loop over the label-change voxel pairs."""
    pairs = set()
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        a = labels[tuple(lo)].ravel()
        b = labels[tuple(hi)].ravel()
        neq = a != b
        for x, y in zip(a[neq], b[neq]):
            pairs.add((min(int(x), int(y)), max(int(x), int(y))))
    return sorted(pairs)


def membrane_mask_reference(labels, width=1):
    """Wall voxels by a per-voxel loop: a voxel on the volume border or with
    a 6-neighbour of another label is wall; ``width`` w adds every voxel
    within Euclidean distance w - 1 of a wall voxel."""
    shape = labels.shape
    wall = np.zeros(shape, dtype=bool)
    for p in itertools.product(*map(range, shape)):
        for axis, step in itertools.product(range(3), (-1, 1)):
            q = list(p)
            q[axis] += step
            if not 0 <= q[axis] < shape[axis] or labels[tuple(q)] != labels[p]:
                wall[p] = True
    r = width - 1
    out = wall.copy()
    for p in zip(*np.nonzero(wall)):
        for d in itertools.product(range(-r, r + 1), repeat=3):
            q = tuple(int(a + b) for a, b in zip(p, d))
            if sum(c * c for c in d) <= r * r and all(0 <= c < n for c, n in zip(q, shape)):
                out[q] = True
    return out


def conv3d_reference(x, w, b):
    """Zero-padded 'same' 3D convolution with seven explicit loops.

    ``x`` is (d, h, w_, c_in), ``w`` is (k, k, k, c_in, c_out), ``b`` is
    (c_out,); returns (d, h, w_, c_out).
    """
    d, h, ww, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[4]
    p = k // 2
    out = np.zeros((d, h, ww, c_out), dtype=np.float64)
    for z in range(d):
        for y in range(h):
            for xx in range(ww):
                for co in range(c_out):
                    acc = b[co]
                    for dz in range(k):
                        for dy in range(k):
                            for dx in range(k):
                                sz_, sy_, sx_ = z + dz - p, y + dy - p, xx + dx - p
                                if not (0 <= sz_ < d and 0 <= sy_ < h and 0 <= sx_ < ww):
                                    continue
                                for ci in range(c_in):
                                    acc += x[sz_, sy_, sx_, ci] * w[dz, dy, dx, ci, co]
                    out[z, y, xx, co] = acc
    return out


def maxpool_reference(x):
    """2x2x2 stride-2 max pooling, loops only; ``x`` is (d, h, w, c)."""
    d, h, w, c = x.shape
    out = np.empty((d // 2, h // 2, w // 2, c), dtype=np.float64)
    for z in range(d // 2):
        for y in range(h // 2):
            for xx in range(w // 2):
                for ch in range(c):
                    out[z, y, xx, ch] = np.max(
                        x[2 * z : 2 * z + 2, 2 * y : 2 * y + 2, 2 * xx : 2 * xx + 2, ch]
                    )
    return out


def conv3d_im2col_reference(x, w, b):
    """Batched 'same' 3D convolution as one whole patch-matrix matmul per
    sample (the k^3-redundant im2col matrix built at full size).

    ``x`` is (n, d, h, w_, c_in); rows of the patch matrix are output
    voxels in scan order, columns (dz, dy, dx, c_in). Blocked production
    code must reproduce this bit for bit.
    """
    n, d, h, ww, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[4]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    wm = w.reshape(-1, c_out)
    out = np.empty((n, d * h * ww, c_out), dtype=np.float64)
    for i in range(n):
        win = np.lib.stride_tricks.sliding_window_view(xp[i], (k, k, k), axis=(0, 1, 2))
        out[i] = win.transpose(0, 1, 2, 4, 5, 6, 3).reshape(d * h * ww, -1) @ wm
    out += b
    return out.reshape(n, d, h, ww, c_out)


def maxpool_argmax_reference(x):
    """2x2x2 stride-2 max pooling on (n, d, h, w, c) via a transposed copy
    and ``argmax``: the value and the index (dz * 4 + dy * 2 + dx) of the
    first maximum of every window."""
    n, d, h, w, c = x.shape
    xr = x.reshape(n, d // 2, 2, h // 2, 2, w // 2, 2, c)
    xt = xr.transpose(0, 1, 3, 5, 7, 2, 4, 6).reshape(n, d // 2, h // 2, w // 2, c, 8)
    idx = xt.argmax(axis=-1)
    return np.take_along_axis(xt, idx[..., None], axis=-1)[..., 0], idx


def maxpool_backward_reference(dy, idx, in_shape):
    """The 2x2x2 unpooling of ``dy`` through window indices ``idx`` (as
    :func:`maxpool_argmax_reference` gives them): ``put_along_axis`` into a
    zeroed 8-wide array, then its transposed copy in the input's layout."""
    n, d, h, w, c = in_shape
    g = np.zeros((n, d // 2, h // 2, w // 2, c, 8), dtype=np.float64)
    np.put_along_axis(g, np.asarray(idx, dtype=np.intp)[..., None], dy[..., None], axis=-1)
    g = g.reshape(n, d // 2, h // 2, w // 2, c, 2, 2, 2)
    return g.transpose(0, 1, 5, 2, 6, 3, 7, 4).reshape(n, d, h, w, c)


def node_patch_reference(data, labels, leaves, mask_background, size=32, margin=2):
    """A node's patch from whole-volume membership: bounding box of every
    voxel labelled with one of ``leaves``, the whole volume masked when
    asked, then centered with edge replication or trilinearly resampled
    (pixel-center aligned, nearest-edge extension)."""
    member = np.isin(labels, leaves)
    coords = np.argwhere(member)
    if mask_background:
        data = np.where(member, data, 0.0)
    lo_e = coords.min(axis=0) - margin
    hi_e = coords.max(axis=0) + margin
    span = hi_e - lo_e + 1
    if np.all(span <= size):
        starts = lo_e - (size - span) // 2
        idx = [np.clip(starts[a] + np.arange(size), 0, data.shape[a] - 1) for a in range(3)]
        return data[np.ix_(idx[0], idx[1], idx[2])]
    return trilinear_reference(data, pixel_centers(lo_e, span, size))


def pixel_centers(lo_e, span, size=32):
    """Per axis, the centers of ``size`` equal cells over ``span`` voxels from
    ``lo_e``, in voxel coordinates."""
    return [lo_e[a] + (np.arange(size) + 0.5) * span[a] / size - 0.5 for a in range(3)]


def trilinear_reference(data, axes):
    """scipy's order-1 interpolation with nearest-edge extension of ``data`` at
    the grid of the (z, y, x) coordinate arrays ``axes``, in ``data``'s dtype."""
    grid = np.meshgrid(*axes, indexing="ij")
    return ndi.map_coordinates(data, np.stack(grid), order=1, mode="nearest")


def init_model_reference(shapes, rng):
    """He et al. (2015) fan-in normal weights from ``rng.normal`` and zero biases (names
    ending ``_b``), drawn in the order of ``shapes``, a dict of name to shape."""
    return {name: np.zeros(shape) if name.endswith("_b")
            else rng.normal(0.0, np.sqrt(2.0 / int(np.prod(shape[:-1]))), size=shape)
            for name, shape in shapes.items()}


def finite_difference_grad(f, param, eps=1e-5):
    """Central finite differences of scalar f with respect to ``param``
    (modified in place entry by entry, then restored)."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        hi = f()
        param[idx] = orig - eps
        lo = f()
        param[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def match_reference(pred, truth, background=frozenset()):
    """IoU > 0.5 matching and metrics via plain dict counting."""
    inter = {}
    pred_sizes = {}
    truth_sizes = {}
    for p, t in zip(np.asarray(pred).ravel(), np.asarray(truth).ravel()):
        p, t = int(p), int(t)
        if t == 0 or t in background:
            continue
        truth_sizes[t] = truth_sizes.get(t, 0) + 1
        if p != 0:
            pred_sizes[p] = pred_sizes.get(p, 0) + 1
            inter[(p, t)] = inter.get((p, t), 0) + 1
    matches = []
    for (p, t), n in sorted(inter.items()):
        iou = n / (pred_sizes[p] + truth_sizes[t] - n)
        if iou > 0.5:
            matches.append((p, t, n, iou))
    tp = len(matches)
    fp = len(pred_sizes) - tp
    fn = len(truth_sizes) - tp
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return matches, tp, fp, fn, precision, recall, f


def layer_reference(pred, truth, layer_mask, background=frozenset()):
    """Per-layer ``match_reference``: for each nonzero id of the mask, truth
    voxels outside that layer are zeroed."""
    truth, layer_mask = np.asarray(truth), np.asarray(layer_mask)
    return {
        int(layer): match_reference(pred, np.where(layer_mask == layer, truth, 0), background)
        for layer in np.unique(layer_mask) if layer != 0
    }
