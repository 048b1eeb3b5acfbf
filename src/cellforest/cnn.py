"""3-class hypothesis classifier network built from plain numpy tensor ops.

Architecture for 32^3 single-channel patches: two 5x5x5 same-padding
convolutions with 32 and 64 feature maps, each followed by ReLU and
2x2x2/stride-2 max pooling in one :func:`conv3d_forward` layer that pools
its convolution two slices at a time, then a 1024-unit fully connected
layer with inverted dropout and a 3-class softmax head. All shapes
generalize to smaller cubic inputs (divisible by 4), which the gradient tests use.

Training is plain mini-batch ADAM, with fixed betas and epsilon, on the
mean cross-entropy, double precision, deterministic for a fixed seed. Each
patch's conv stack is one :func:`cellforest.parallel.concurrent_map` item, and the
conv gradients and ADAM run through it too, with the same bits on any thread count.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product, zip_longest

import numpy as np

from .parallel import concurrent_map, workers

N_CLASSES = 3
PATCH_SIZE = 32  # the network's input edge: every patch is PATCH_SIZE^3 voxels
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
PARAM_ORDER = (
    "conv1_w",
    "conv1_b",
    "conv2_w",
    "conv2_b",
    "fc1_w",
    "fc1_b",
    "out_w",
    "out_b",
)
ADAM_BLOCK = 1 << 16  # elements per adam_step block: 512 KiB of float64
CONV_BLOCK = 3 << 20  # most bytes of im2col rows per conv3d_forward block: 6 of conv2's y-lines


class DatasetError(ValueError):
    """Training data is unusable (e.g. a class has no examples)."""


# ---------------------------------------------------------------------------
# layer primitives (channels-last: (batch, z, y, x, channels))


def conv3d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The network's conv layer: stride-1 3D convolution with zero 'same'
    padding, bias, ReLU and :func:`maxpool3d_forward`; returns (pooled maps,
    ``int8`` indices), each (n, d/2, h/2, wd/2, c_out), odd edges floored.

    ``x`` is (n, d, h, wd, c_in), ``w`` is (k, k, k, c_in, c_out), applied
    as a correlation, on the calling thread. Each sample is computed two
    z-slices at a time into one buffer: blocks of whole y-lines lowered to
    patch matrix rows (columns (dz, dy, dx, c_in)), at most ``CONV_BLOCK``
    bytes unless one line is larger, each multiplied into the pair; then the
    bias, an in-place ReLU and the pool. The dot products, and so the
    rounding, are those of one whole-matrix product, and no full-resolution
    output is ever whole.
    """
    n, d, h, wd, c_in = x.shape
    k, c_out, p = w.shape[0], w.shape[4], w.shape[0] // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    wm = w.reshape(-1, c_out)
    ys, lines = max(1, CONV_BLOCK // (wd * len(wm) * 8)), h // 2 * 2
    blocks = -(-lines // ys)  # of near-equal size: a short tail block multiplies slower
    cuts = [slice(lines * j // blocks, lines * (j + 1) // blocks) for j in range(blocks)]
    pooled = np.empty((n, d // 2, h // 2, wd // 2, c_out))
    idx = np.empty(pooled.shape, np.int8)
    rows = np.empty((min(ys, lines), wd, k, k, k, c_in))
    pair = np.empty((1, 2, lines, wd, c_out))
    for i, z in product(range(n), range(0, d - 1, 2)):
        for dz, at in product((0, 1), cuts):
            block = rows[: at.stop - at.start]
            np.copyto(block, win[i, z + dz, at].transpose(0, 1, 3, 4, 5, 2))
            np.matmul(block.reshape(-1, len(wm)), wm, out=pair[0, dz, at].reshape(-1, c_out))
        pair += b
        m, j = maxpool3d_forward(np.maximum(pair, 0.0, out=pair)[..., : wd // 2 * 2, :])
        pooled[i, z // 2], idx[i, z // 2] = m[0, 0], j[0, 0]
    return pooled, idx


def conv3d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, input_grad: bool = True):
    """Gradients of :func:`conv3d_forward`'s convolution w.r.t. input, weights and bias.

    Works offset-by-offset: each offset's weight gradient is one matmul
    over the whole batch, with a long inner dimension, and no k^3-redundant
    patch matrix is ever materialized for the gradient pass. Each sample's
    input gradient accumulates its offsets in order. These are independent
    tasks for :func:`concurrent_map`. With ``input_grad`` off (the first
    layer, whose input is the data) the input gradient is skipped and
    returned as None.
    """
    n, d, h, wd, c_in = x.shape
    k = w.shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    dy2 = dy.reshape(-1, w.shape[4])
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp) if input_grad else None
    offsets = list(np.ndindex(k, k, k))
    at = lambda o: (slice(o[0], o[0] + d), slice(o[1], o[1] + h), slice(o[2], o[2] + wd))

    def task(job):
        if isinstance(job, int):  # sample job's input gradient, its offsets in order
            dyi = dy2.reshape(n, -1, dy2.shape[1])[job]
            for o in offsets:
                dxp[(job, *at(o))] += (dyi @ w[o].T).reshape(d, h, wd, c_in)
        else:
            dw[job] = xp[(slice(None), *at(job))].reshape(-1, c_in).T @ dy2

    concurrent_map(task, [*range(n if input_grad else 0), *offsets])
    db = dy2.sum(axis=0)
    dx = dxp[:, p : p + d, p : p + h, p : p + wd, :] if input_grad else None
    return dx, dw, db


def maxpool3d_forward(x: np.ndarray):
    """2x2x2 max pooling with stride 2; ties (+-0 included) route to the first position.

    Walks the 8 strided sub-views in window order, taking a later value
    only where strictly greater by a wrapping int64 select on the float64
    bits: on NaN-free input, values and ``int8`` indices equal a per-window argmax.
    """
    views = [x[:, a::2, b::2, c::2] for a, b, c in np.ndindex(2, 2, 2)]
    y, idx = views[0].copy(), np.zeros(views[0].shape, dtype=np.int8)
    bits, greater, step = y.view(np.int64), np.empty(y.shape, bool), np.empty(y.shape, np.int64)
    for pos, v in enumerate(views[1:], 1):
        np.greater(v, y, out=greater)
        bits += np.multiply(np.subtract(v.view(np.int64), bits, out=step), greater, out=step)
        np.maximum(idx, greater * np.int8(pos), out=idx)
    return y, idx


def maxpool3d_backward(dy: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    """``dy`` scattered to each window's first maximum through flat indices into zeros."""
    g = np.zeros(in_shape)
    s = np.array(g.strides) // g.itemsize
    flat = (np.array([*np.ndindex(2, 2, 2)]) @ s[1:4])[idx]
    for axis, (size, stride) in enumerate(zip(dy.shape, s * (1, 2, 2, 2, 1))):
        flat += np.arange(0, size * stride, stride).reshape((-1,) + (1,) * (4 - axis))
    g.reshape(-1)[flat] = dy
    return g


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, classes: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), classes]))
    dlogits = e / z  # the softmax
    dlogits[np.arange(n), classes] -= 1.0
    return loss, dlogits / n


# ---------------------------------------------------------------------------
# model


@dataclass
class CnnModel:
    """Parameter tensors plus the architecture they were shaped for."""

    input_size: int
    conv_channels: tuple[int, int]
    fc_units: int
    kernel_size: int
    seed: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        for name, shape in expected_shapes(
            self.input_size, self.conv_channels, self.fc_units, self.kernel_size
        ).items():
            got = self.params[name].shape
            if got != shape:
                raise ValueError(f"parameter {name}: expected shape {shape}, got {got}")


def expected_shapes(input_size, conv_channels, fc_units, kernel_size=5):
    if input_size % 4 != 0:
        raise ValueError(f"input size must be divisible by 4, got {input_size}")
    c1, c2 = conv_channels
    k = kernel_size
    flat = (input_size // 4) ** 3 * c2
    return {
        "conv1_w": (k, k, k, 1, c1),
        "conv1_b": (c1,),
        "conv2_w": (k, k, k, c1, c2),
        "conv2_b": (c2,),
        "fc1_w": (flat, fc_units),
        "fc1_b": (fc_units,),
        "out_w": (fc_units, N_CLASSES),
        "out_b": (N_CLASSES,),
    }


def init_model(
    input_size: int = PATCH_SIZE,
    conv_channels: tuple[int, int] = (32, 64),
    fc_units: int = 1024,
    kernel_size: int = 5,
    seed: int = 0,
) -> CnnModel:
    """He fan-in normal initialization for weights, zeros for biases, drawn in PARAM_ORDER."""
    model, draw_rest = _init_model(input_size, seed, np.random.default_rng(seed),
                                   conv_channels, fc_units, kernel_size)
    draw_rest()
    return model


def _init_model(input_size, seed, rng, conv_channels=(32, 64), fc_units=1024, kernel_size=5):
    """:func:`init_model`'s model from ``rng`` with its conv weights drawn, and the call drawing
    the rest into it: ``standard_normal`` in place, times the scale, plus 0.0, is
    ``normal(0.0, scale)``."""
    shapes = expected_shapes(input_size, conv_channels, fc_units, kernel_size)
    params = {name: np.zeros(shape) for name, shape in shapes.items()}

    def draw(names):
        for w in map(params.get, names):
            np.multiply(rng.standard_normal(out=w), np.sqrt(2.0 / math.prod(w.shape[:-1])), out=w)
            w += 0.0  # normal's 0.0 + scale * z: no -0.0

    draw(("conv1_w", "conv2_w"))
    model = CnnModel(input_size, tuple(conv_channels), fc_units, kernel_size, seed, params)
    return model, lambda: draw(("fc1_w", "out_w"))


def forward(
    model: CnnModel, x: np.ndarray, keep_prob: float = 1.0, rng: np.random.Generator | None = None
):
    """Forward pass; returns (logits, cache for backward).

    ``x`` is (n, s, s, s) or (n, s, s, s, 1). Dropout is applied at the
    fc1 output exactly when ``keep_prob`` < 1, drawn from ``rng``, with
    inverted scaling so inference needs no rescale. The conv stack runs one
    :func:`concurrent_map` item per patch; the cache keeps the pooled maps.
    """
    if keep_prob < 1.0 and rng is None:
        raise ValueError("dropout (keep_prob < 1) needs an rng")
    x = np.asarray(x[..., None] if x.ndim == 4 else x, dtype=np.float64)
    p, n = model.params, len(x)
    maps = concurrent_map(lambda i: _stack(p, x[i : i + 1]), range(n)) or [_stack(p, x)]
    m1, idx1, m2, idx2 = map(np.concatenate, zip(*maps))  # an empty batch ran once, for the shapes
    flat = m2.reshape(n, math.prod(m2.shape[1:]))
    mask = (rng.random((n, len(p["fc1_b"]))) < keep_prob) / keep_prob if keep_prob < 1.0 else None
    logits, f1, dropped = _head(p, flat, mask)
    return logits, (x, m1, idx1, m2, idx2, flat, f1, mask, dropped)


def _stack(p, x):
    """The conv stack on ``x``: (m1, idx1, m2, idx2), each layer's pooled maps and indices."""
    m1, idx1 = conv3d_forward(x, p["conv1_w"], p["conv1_b"])
    return (m1, idx1, *conv3d_forward(m1, p["conv2_w"], p["conv2_b"]))


def _head(p, flat, mask):
    """fc1 on its input rows ``flat``, ReLU, dropout by ``mask`` (None: off) and the output
    layer: (logits, f1, the dropped fc1 output), the logits checked finite."""
    f1 = flat @ p["fc1_w"] + p["fc1_b"]
    rf = np.maximum(f1, 0.0)
    dropped = rf if mask is None else rf * mask
    logits = dropped @ p["out_w"] + p["out_b"]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits; check model parameters")
    return logits, f1, dropped


class OuterProduct:
    """``a.T @ b`` kept as its factors; ``np.asarray`` forms it whole."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a, self.b = a, b

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.a.T @ self.b, dtype=dtype)


def backward(model: CnnModel, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every parameter tensor; ``fc1_w``'s,
    ``flat.T @ df1``, as an :class:`OuterProduct` of its factors, which
    :func:`adam_step` forms a block of rows at a time, never whole. Unpooling
    routes a gradient to where the ReLU output equals the pooled ``m``, so
    ``dm *= m > 0`` before it masks exactly as the ReLU's own mask after."""
    x, m1, idx1, m2, idx2, flat, f1, mask, dropped = cache
    p = model.params
    grads = {}

    grads["out_w"] = dropped.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    ddropped = dlogits @ p["out_w"].T
    drf = ddropped * mask if mask is not None else ddropped
    df1 = drf * (f1 > 0)
    grads["fc1_w"] = OuterProduct(flat, df1)
    grads["fc1_b"] = df1.sum(axis=0)
    dflat = df1 @ p["fc1_w"].T

    dm2 = dflat.reshape(m2.shape)
    da2 = maxpool3d_backward(np.multiply(dm2, m2 > 0, out=dm2), idx2, m1.shape[:4] + m2.shape[4:])
    dm1, grads["conv2_w"], grads["conv2_b"] = conv3d_backward(m1, p["conv2_w"], da2)
    da1 = maxpool3d_backward(np.multiply(dm1, m1 > 0, out=dm1), idx1, x.shape[:4] + m1.shape[4:])
    _, grads["conv1_w"], grads["conv1_b"] = conv3d_backward(x, p["conv1_w"], da1, input_grad=False)
    return grads


def predict_probs(model: CnnModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities with dropout off."""
    return softmax(forward(model, x)[0])


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 10
    epochs: int = 10
    keep_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.keep_prob <= 1.0):
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """One in-place ADAM update with bias correction, rounded exactly as
    ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``, with the fixed
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    Each tensor is updated in blocks of leading-axis rows of about
    ``ADAM_BLOCK`` elements through block-sized scratch arrays, so the
    intermediates stay in cache and the 268 MB ``fc1_w`` with its moments
    crosses memory once per step instead of once per arithmetic operation.
    An :class:`OuterProduct` gradient is formed just before each block's
    update, bit-equal to the whole product: no block is one row (gemv).
    A contiguous run of whole blocks per :func:`concurrent_map` thread, each
    with its own scratch arrays, goes through it; the moments start
    as untouched zero pages, first written by that update.
    """
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for name, p in params.items():
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros(np.shape(p)), np.zeros(np.shape(p))
        p, m, v = (np.atleast_1d(a) for a in (p, state.m[name], state.v[name]))
        g = grads[name]
        rows = max(2, ADAM_BLOCK * len(p) // max(p.size, 1))
        stops = [*range(rows, len(p) - 1, rows), len(p)]  # a one-row tail joins its block
        blocks = list(zip([0, *stops], stops))

        def update(run):
            bufs = [np.empty_like(p[: rows + 1]) for _ in range(3)]
            for lo, hi in run:
                pb, mb, vb = (a[lo:hi] for a in (p, m, v))
                step, denom, gb = (buf[: hi - lo] for buf in bufs)
                if isinstance(g, OuterProduct):
                    np.matmul(g.a.T[lo:hi], g.b, out=gb)
                else:
                    gb = np.atleast_1d(g)[lo:hi]
                mb *= ADAM_BETA1
                mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=step)
                vb *= ADAM_BETA2
                vb += np.multiply(np.multiply(gb, gb, out=step), 1.0 - ADAM_BETA2, out=step)
                np.sqrt(np.divide(vb, b2t, out=denom), out=denom)
                denom += ADAM_EPS
                np.multiply(np.divide(mb, b1t, out=step), lr, out=step)
                pb -= np.divide(step, denom, out=step)

        concurrent_map(update, np.array_split(blocks, workers(len(blocks))))


def mean_cross_entropy(model: CnnModel, x: np.ndarray, classes: np.ndarray, beside=None) -> float:
    """Full-set dropout-off cross-entropy (the loss-trace metric), keeping only fc1's input: a
    :func:`concurrent_map` item per patch writes its row, and ``beside()``, given, is one more."""
    p, x = model.params, np.asarray(x, dtype=np.float64)
    x, rows = x.reshape(*x.shape[:4], 1), np.empty((len(x), len(p["fc1_w"])))

    def item(i):
        if i < 0:
            return beside()
        rows[i] = _stack(p, x[i : i + 1])[2].ravel()

    concurrent_map(item, range(-(beside is not None), len(x)))
    return cross_entropy(_head(p, rows, None)[0], classes)[0]


def train(x: np.ndarray, classes: np.ndarray, config: TrainConfig):
    """Mini-batch ADAM on mean cross-entropy; returns (model, loss trace).

    The trace holds the dropout-off full-set loss before training and
    after each epoch, so ``trace[0]`` is the untrained loss. Requires at
    least one example of every class. The model is built for the patches'
    edge, ``x.shape[1]``, from the generator training then draws from, its fc1
    and output weights drawn as the ``beside`` item of ``trace[0]``'s
    :func:`mean_cross_entropy`, whose conv stack needs none of them.
    """
    x = np.asarray(x, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    counts = np.bincount(classes, minlength=N_CLASSES)
    if len(counts) > N_CLASSES or np.any(counts[:N_CLASSES] == 0):
        raise DatasetError(f"need >= 1 example of each of {N_CLASSES} classes, got counts {counts}")

    rng, n = np.random.default_rng(config.seed), len(classes)
    model, draw_rest = _init_model(x.shape[1], config.seed, rng)
    trace = [mean_cross_entropy(model, x, classes, draw_rest)]
    state = AdamState()
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            logits, cache = forward(model, x[batch], config.keep_prob, rng)
            grads = backward(model, cache, cross_entropy(logits, classes[batch])[1])
            del cache  # ADAM and the next batch's forward run without these activations
            adam_step(model.params, grads, state, config.learning_rate)
        trace.append(mean_cross_entropy(model, x, classes))
    return model, np.array(trace)


# ---------------------------------------------------------------------------
# model file I/O: one JSON header line, then raw little-endian float64 payload


_ARCH = ("input_size", "conv_channels", "fc_units", "kernel_size", "seed")  # header order


def _model_header(input_size, conv_channels, fc_units, kernel_size, seed) -> bytes:
    """The model file's header line for this architecture, as ``json.dumps`` writes it."""
    shapes = expected_shapes(input_size, conv_channels, fc_units, kernel_size)
    return json.dumps({
        "format": "cellforest-cnn v1", "input_size": input_size,
        "conv_channels": list(conv_channels), "fc_units": fc_units, "n_classes": N_CLASSES,
        "kernel_size": kernel_size, "seed": seed, "precision": "f64",
        "params": [{"name": name, "shape": list(shapes[name])} for name in PARAM_ORDER],
    }).encode() + b"\n"


def save_model(model: CnnModel, path: str) -> None:
    """Write :func:`_model_header`'s line, then each tensor as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_model_header(*(getattr(model, key) for key in _ARCH)))
        for name in PARAM_ORDER:  # each tensor's own buffer, not a bytes copy
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8"))


def _leaves(value, at=""):
    """(key path, JSON) of each value of a header parsed with objects as tuples of pairs."""
    if isinstance(value, tuple):
        for key, v in value:
            yield from _leaves(v, f"{at}.{key}" if at else key)
    elif isinstance(value, list) and any(isinstance(v, (tuple, list)) for v in value):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{at}[{i}]")
    else:
        yield at, json.dumps(value)


def load_model(path: str) -> CnnModel:
    """Read a model file, accepting only what :func:`save_model` writes: header, then payload
    length, checked before any tensor is allocated. Errors name the file and any bad key path."""
    with open(path, "rb") as fh:
        line = fh.readline()
        header = None
        with contextlib.suppress(ValueError, RecursionError):  # not UTF-8 or not JSON
            header = json.loads(line.decode("utf-8"), object_pairs_hook=tuple)  # keeps key order
        keys = dict(header) if isinstance(header, tuple) else {}
        try:
            if keys.get("format") != "cellforest-cnn v1":
                raise ValueError("not a cellforest model file")
            for key in _ARCH:  # JSON ints (a bool is none), positive but for the seed
                n, least = (2, 1) if key == "conv_channels" else (1, 0 if key == "seed" else 1)
                ints = keys.get(key) if n == 2 else [keys.get(key)]
                if not (type(ints) is list and len(ints) == n
                        and all(type(i) is int and i >= least for i in ints)):
                    shown = json.dumps(keys[key]) if key in keys else "missing"
                    rule = "a list of two integers" if n == 2 else "an integer"
                    raise ValueError(f"header key {key!r} is {shown}, not {rule} >= {least}")
            arch = [keys[key] for key in _ARCH]
            want = _model_header(*arch)  # expected_shapes: an input size divisible by 4
            if line != want:  # name the first differing value, else the spacing is off
                for w, got in zip_longest(_leaves(json.loads(want, object_pairs_hook=tuple)),
                                          _leaves(header), fillvalue=("", "nothing")):
                    if w != got:
                        raise ValueError(f"header {w[0] or got[0]}: expected {w[1]}")
                raise ValueError(f"header: expected {want.decode()!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        shapes = {e["name"]: e["shape"] for e in map(dict, keys["params"])}
        if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * sum(map(math.prod, shapes.values())):
            raise ValueError(f"{path}: payload length mismatch")
        params = {name: np.empty(shape, dtype="<f8") for name, shape in shapes.items()}
        if any(fh.readinto(arr) != arr.nbytes for arr in params.values()) or fh.read(1):
            raise ValueError(f"{path}: payload length mismatch")
    return CnnModel(arch[0], tuple(arch[1]), *arch[2:], params)
