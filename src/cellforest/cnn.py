"""3-class hypothesis classifier network built from plain numpy tensor ops.

Architecture for 32^3 single-channel patches: two 5x5x5 same-padding
convolutions with 32 and 64 feature maps, each followed by ReLU and
2x2x2/stride-2 max pooling, then a 1024-unit fully connected layer with
inverted dropout and a 3-class softmax head. All shapes generalize to
smaller cubic inputs (divisible by 4), which the gradient tests use.

Training is plain mini-batch ADAM, with fixed betas and epsilon, on the
mean cross-entropy, double precision, deterministic for a fixed seed. The
tree cut's batch-1 queries, a batch's convolution samples, the backward's
weight-gradient offsets and per-sample input gradients, and ADAM's runs of
row blocks run on every usable CPU (:func:`concurrent_map`); the bits do
not depend on that or on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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
CONV_BLOCK = 2 << 20  # bytes of im2col rows per conv3d_forward block: about one L2 cache


class DatasetError(ValueError):
    """Training data is unusable (e.g. a class has no examples)."""


# ---------------------------------------------------------------------------
# layer primitives (channels-last: (batch, z, y, x, channels))


def conv3d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 3D convolution with zero 'same' padding.

    ``x`` is (n, d, h, wd, c_in), ``w`` is (k, k, k, c_in, c_out). The
    kernel is applied as a correlation. Each sample is lowered to patch
    matrix rows (columns (dz, dy, dx, c_in)) a block of whole z-slices at
    a time, at most ``CONV_BLOCK`` bytes unless one slice is larger, in a
    buffer reused by its worker; each block is multiplied into the output.
    The dot products, and so the rounding, are those of one whole-matrix
    product. The samples run through :func:`concurrent_map`.
    """
    n, d, h, wd, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[4]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    wm = w.reshape(-1, c_out)
    zs = max(1, min(d, CONV_BLOCK // (h * wd * len(wm) * 8)))
    workers = min(n, len(os.sched_getaffinity(0)))  # the most concurrent_map runs at once
    bufs = [np.empty((zs, h, wd, k, k, k, c_in), dtype=np.float64) for _ in range(workers)]
    out = np.empty((n, d, h, wd, c_out), dtype=np.float64)

    def sample(i):
        buf = bufs.pop()
        for z in range(0, d, zs):
            rows = buf[: min(zs, d - z)]
            np.copyto(rows, win[i, z : z + zs].transpose(0, 1, 2, 4, 5, 6, 3))
            np.matmul(rows.reshape(-1, len(wm)), wm, out=out[i, z : z + zs].reshape(-1, c_out))
        out[i] += b
        bufs.append(buf)

    concurrent_map(sample, range(n))
    return out


def conv3d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, input_grad: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights and bias.

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
    bits: on NaN-free input, values and indices equal a per-window argmax.
    """
    views = [x[:, a::2, b::2, c::2] for a, b, c in np.ndindex(2, 2, 2)]
    y, idx = views[0].copy(), np.zeros(views[0].shape, dtype=np.intp)
    bits, greater, step = y.view(np.int64), np.empty(y.shape, bool), np.empty_like(idx)
    for pos, v in enumerate(views[1:], 1):
        np.greater(v, y, out=greater)
        bits += np.multiply(np.subtract(v.view(np.int64), bits, out=step), greater, out=step)
        np.maximum(idx, np.multiply(greater, pos, out=step), out=idx)
    return y, idx


def maxpool3d_backward(dy: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    n, d, h, w, c = in_shape
    g = np.zeros((n, d // 2, h // 2, w // 2, c, 8), dtype=np.float64)
    np.put_along_axis(g, idx[..., None], dy[..., None], axis=-1)
    g = g.reshape(n, d // 2, h // 2, w // 2, c, 2, 2, 2)
    return g.transpose(0, 1, 5, 2, 6, 3, 7, 4).reshape(n, d, h, w, c)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, classes: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    loss = float(np.mean(log_z - shifted[np.arange(n), classes]))
    dlogits = softmax(logits)
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
    rng: np.random.Generator | None = None,
) -> CnnModel:
    """He fan-in normal initialization for weights, zeros for biases."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    params = {}
    for name, shape in expected_shapes(input_size, conv_channels, fc_units, kernel_size).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in = int(np.prod(shape[:-1]))
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return CnnModel(input_size, tuple(conv_channels), fc_units, kernel_size, seed, params)


def forward(
    model: CnnModel, x: np.ndarray, keep_prob: float = 1.0, rng: np.random.Generator | None = None
):
    """Forward pass; returns (logits, cache for backward).

    ``x`` is (n, s, s, s) or (n, s, s, s, 1). Dropout is applied at the
    fc1 output exactly when ``keep_prob`` < 1, drawn from ``rng``, with
    inverted scaling so inference needs no rescale. The cache keeps the
    pooled maps, not the convolution outputs: those are rectified in
    place, pooled and freed.
    """
    if x.ndim == 4:
        x = x[..., None]
    x = np.asarray(x, dtype=np.float64)
    p = model.params

    relu = lambda a: np.maximum(a, 0.0, out=a)  # in place; the conv output dies after pooling
    m1, idx1 = maxpool3d_forward(relu(conv3d_forward(x, p["conv1_w"], p["conv1_b"])))
    m2, idx2 = maxpool3d_forward(relu(conv3d_forward(m1, p["conv2_w"], p["conv2_b"])))
    flat = m2.reshape(x.shape[0], -1)
    f1 = flat @ p["fc1_w"] + p["fc1_b"]
    rf, mask = np.maximum(f1, 0.0), None
    if keep_prob < 1.0:
        if rng is None:
            raise ValueError("dropout (keep_prob < 1) needs an rng")
        mask = (rng.random(rf.shape) < keep_prob) / keep_prob
    dropped = rf if mask is None else rf * mask
    logits = dropped @ p["out_w"] + p["out_b"]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits; check model parameters")
    cache = (x, m1, idx1, m2, idx2, flat, f1, mask, dropped)
    return logits, cache


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
    ``dm * (m > 0)`` before it masks exactly as the ReLU's own mask after."""
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
    da2 = maxpool3d_backward(dm2 * (m2 > 0), idx2, m1.shape[:4] + m2.shape[4:])
    dm1, grads["conv2_w"], grads["conv2_b"] = conv3d_backward(m1, p["conv2_w"], da2)
    da1 = maxpool3d_backward(dm1 * (m1 > 0), idx1, x.shape[:4] + m1.shape[4:])
    _, grads["conv1_w"], grads["conv1_b"] = conv3d_backward(x, p["conv1_w"], da1, input_grad=False)
    return grads


def predict_probs(model: CnnModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities with dropout off."""
    return softmax(forward(model, x)[0])


@functools.cache
def _openblas():
    """``(get, set)`` of numpy's OpenBLAS thread count, looked up once, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for lib in map(ctypes.CDLL, paths):  # scipy's own OpenBLAS exports neither name
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def concurrent_map(fn, items) -> list:
    """``list(map(fn, items))`` by the calling thread and a helper per other usable CPU,
    with numpy's OpenBLAS at one thread until all are done. Without a BLAS setter, on
    one CPU or for one item, the calling thread runs alone and BLAS keeps its threads.
    With BLAS left at 2 threads beside the helper, perfbench (seeds 1-3, 2 vCPUs) read
    ``recut_cnn_96`` at 3.91/4.24/4.18 s per operation against 2.47/2.68/2.40 s, and
    ``train_cnn`` at 5.29/5.24/5.24 s against 4.28/4.30/4.19 s."""
    if len(items := list(items)) < 2:
        return list(map(fn, items))
    blas = _openblas()
    todo, out = iter(enumerate(items)), [None] * len(items)

    def work(_=None):
        for i, item in todo:
            out[i] = fn(item)

    helpers = min(len(os.sched_getaffinity(0)), len(items)) - 1 if blas else 0
    get, put = blas if helpers > 0 else (lambda: None, lambda n: None)
    threads = get()
    put(1)
    try:
        with ThreadPoolExecutor(max(helpers, 1)) as pool:
            done = pool.map(work, range(helpers))
            work()
            list(done)  # a helper's exception is raised here
    finally:
        put(threads)
    return out


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
    A contiguous run of whole blocks per usable CPU, each with its own
    scratch arrays, goes through :func:`concurrent_map`; the moments start
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
        runs = np.array_split(blocks, min(len(blocks), len(os.sched_getaffinity(0))))

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

        concurrent_map(update, runs)


def mean_cross_entropy(model: CnnModel, x: np.ndarray, classes: np.ndarray) -> float:
    """Full-set cross-entropy with dropout off (the loss-trace metric)."""
    return cross_entropy(forward(model, x)[0], classes)[0]


def train(
    x: np.ndarray,
    classes: np.ndarray,
    config: TrainConfig,
    model: CnnModel | None = None,
):
    """Mini-batch ADAM on mean cross-entropy; returns (model, loss trace).

    The trace holds the dropout-off full-set loss before training and
    after each epoch, so ``trace[0]`` is the untrained loss. Requires at
    least one example of every class. Without ``model``, a new one is
    built for the patches' edge, ``x.shape[1]``.
    """
    x = np.asarray(x, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    counts = np.bincount(classes, minlength=N_CLASSES)
    if len(counts) > N_CLASSES or np.any(counts[:N_CLASSES] == 0):
        raise DatasetError(f"need >= 1 example of each of {N_CLASSES} classes, got counts {counts}")

    rng = np.random.default_rng(config.seed)
    if model is None:
        model = init_model(input_size=x.shape[1], seed=config.seed, rng=rng)
    state = AdamState()
    trace = [mean_cross_entropy(model, x, classes)]
    n = len(classes)
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


def save_model(model: CnnModel, path: str) -> None:
    header = {
        "format": "cellforest-cnn v1",
        "input_size": model.input_size,
        "conv_channels": list(model.conv_channels),
        "fc_units": model.fc_units,
        "n_classes": N_CLASSES,
        "kernel_size": model.kernel_size,
        "seed": model.seed,
        "precision": "f64",
        "params": [
            {"name": name, "shape": list(model.params[name].shape)} for name in PARAM_ORDER
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for name in PARAM_ORDER:  # each tensor's own buffer, not a bytes copy
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8"))


def load_model(path: str) -> CnnModel:
    """Read a model file, each tensor straight into its own array."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != "cellforest-cnn v1":
            raise ValueError(f"{path}: not a cellforest model file")
        for key in ("input_size", "conv_channels", "fc_units", "kernel_size", "seed", "params"):
            if key not in header:
                raise ValueError(f"{path}: header lacks the key {key!r}")
        if (n := header.get("n_classes")) != N_CLASSES:
            raise ValueError(f"{path}: header gives {n} classes, not {N_CLASSES}")
        names = [entry["name"] for entry in header["params"]]
        for name in dict.fromkeys([*names, *PARAM_ORDER]):
            if name not in PARAM_ORDER:
                raise ValueError(f"{path}: unknown parameter {name!r} in header")
            if names.count(name) != 1:
                raise ValueError(
                    f"{path}: header lists parameter {name!r} {names.count(name)} times, not once"
                )
        params = {}
        for entry in header["params"]:
            arr = params[entry["name"]] = np.empty(tuple(entry["shape"]), dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: payload length mismatch")
        if fh.read(1):
            raise ValueError(f"{path}: payload length mismatch")
    return CnnModel(
        header["input_size"],
        tuple(header["conv_channels"]),
        header["fc_units"],
        header["kernel_size"],
        header["seed"],
        params,
    )
