"""3-class hypothesis classifier network built from plain numpy tensor ops.

Architecture for 32^3 single-channel patches: two 5x5x5 same-padding
convolutions with 32 and 64 feature maps, each followed by ReLU and
2x2x2/stride-2 max pooling, then a 1024-unit fully connected layer with
inverted dropout and a 3-class softmax head. All shapes generalize to
smaller cubic inputs (divisible by 4), which the gradient tests use.

Training is plain mini-batch ADAM on the mean cross-entropy, double
precision, deterministic for a fixed seed on a single thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

N_CLASSES = 3
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
    a time, at most ``CONV_BLOCK`` bytes unless one slice is larger, in one
    reused buffer; each block is multiplied into the output. The dot
    products, and so the rounding, are those of one whole-matrix product.
    """
    n, d, h, wd, c_in = x.shape
    k = w.shape[0]
    c_out = w.shape[4]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k, k), axis=(1, 2, 3))
    wm = w.reshape(-1, c_out)
    zs = max(1, min(d, CONV_BLOCK // (h * wd * len(wm) * 8)))
    buf = np.empty((zs, h, wd, k, k, k, c_in), dtype=np.float64)
    out = np.empty((n, d, h, wd, c_out), dtype=np.float64)
    for i in range(n):
        for z in range(0, d, zs):
            rows = buf[: min(zs, d - z)]
            np.copyto(rows, win[i, z : z + zs].transpose(0, 1, 2, 4, 5, 6, 3))
            np.matmul(rows.reshape(-1, len(wm)), wm, out=out[i, z : z + zs].reshape(-1, c_out))
    out += b
    return out


def conv3d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, input_grad: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights and bias.

    Works offset-by-offset over the whole batch: the accumulated matmuls
    see long inner dimensions, and no k^3-redundant patch matrix is ever
    materialized for the gradient pass. With ``input_grad`` off (the first
    layer, whose input is the data) the input gradient is skipped and
    returned as None.
    """
    n, d, h, wd, c_in = x.shape
    k = w.shape[0]
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
    dy2 = dy.reshape(-1, w.shape[4])
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp) if input_grad else None
    for dz in range(k):
        for dd in range(k):
            for dx_ in range(k):
                sl = (slice(None), slice(dz, dz + d), slice(dd, dd + h), slice(dx_, dx_ + wd))
                xs = xp[sl].reshape(-1, c_in)
                dw[dz, dd, dx_] = xs.T @ dy2
                if input_grad:
                    dxp[sl] += (dy2 @ w[dz, dd, dx_].T).reshape(n, d, h, wd, c_in)
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
    n_classes: int
    kernel_size: int
    seed: int
    params: dict[str, np.ndarray]

    def __post_init__(self):
        for name, shape in expected_shapes(
            self.input_size, self.conv_channels, self.fc_units, self.n_classes, self.kernel_size
        ).items():
            got = self.params[name].shape
            if got != shape:
                raise ValueError(f"parameter {name}: expected shape {shape}, got {got}")


def expected_shapes(input_size, conv_channels, fc_units, n_classes, kernel_size=5):
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
        "out_w": (fc_units, n_classes),
        "out_b": (n_classes,),
    }


def init_model(
    input_size: int = 32,
    conv_channels: tuple[int, int] = (32, 64),
    fc_units: int = 1024,
    n_classes: int = N_CLASSES,
    kernel_size: int = 5,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> CnnModel:
    """He fan-in normal initialization for weights, zeros for biases."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    params = {}
    for name, shape in expected_shapes(
        input_size, conv_channels, fc_units, n_classes, kernel_size
    ).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in = int(np.prod(shape[:-1]))
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return CnnModel(input_size, tuple(conv_channels), fc_units, n_classes, kernel_size, seed, params)


def forward(
    model: CnnModel,
    x: np.ndarray,
    train: bool = False,
    keep_prob: float = 1.0,
    rng: np.random.Generator | None = None,
):
    """Forward pass; returns (logits, cache for backward).

    ``x`` is (n, s, s, s) or (n, s, s, s, 1). Dropout is applied at the
    fc1 output only when ``train`` is set, with inverted scaling so
    inference needs no rescale.
    """
    if x.ndim == 4:
        x = x[..., None]
    x = np.asarray(x, dtype=np.float64)
    p = model.params

    a1 = conv3d_forward(x, p["conv1_w"], p["conv1_b"])
    r1 = np.maximum(a1, 0.0)
    m1, idx1 = maxpool3d_forward(r1)
    a2 = conv3d_forward(m1, p["conv2_w"], p["conv2_b"])
    r2 = np.maximum(a2, 0.0)
    m2, idx2 = maxpool3d_forward(r2)
    flat = m2.reshape(x.shape[0], -1)
    f1 = flat @ p["fc1_w"] + p["fc1_b"]
    rf = np.maximum(f1, 0.0)
    if train and keep_prob < 1.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (rng.random(rf.shape) < keep_prob) / keep_prob
        dropped = rf * mask
    else:
        mask = None
        dropped = rf
    logits = dropped @ p["out_w"] + p["out_b"]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits; check model parameters")
    cache = (x, a1, r1, m1, idx1, a2, r2, m2, idx2, flat, f1, rf, mask, dropped)
    return logits, cache


def backward(model: CnnModel, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the loss w.r.t. every parameter tensor."""
    x, a1, r1, m1, idx1, a2, r2, m2, idx2, flat, f1, rf, mask, dropped = cache
    p = model.params
    grads = {}

    grads["out_w"] = dropped.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    ddropped = dlogits @ p["out_w"].T
    drf = ddropped * mask if mask is not None else ddropped
    df1 = drf * (f1 > 0)
    grads["fc1_w"] = flat.T @ df1
    grads["fc1_b"] = df1.sum(axis=0)
    dflat = df1 @ p["fc1_w"].T

    dm2 = dflat.reshape(m2.shape)
    dr2 = maxpool3d_backward(dm2, idx2, r2.shape)
    da2 = dr2 * (a2 > 0)
    dm1, grads["conv2_w"], grads["conv2_b"] = conv3d_backward(m1, p["conv2_w"], da2)
    dr1 = maxpool3d_backward(dm1, idx1, r1.shape)
    da1 = dr1 * (a1 > 0)
    _, grads["conv1_w"], grads["conv1_b"] = conv3d_backward(x, p["conv1_w"], da1, input_grad=False)
    return grads


def loss_and_grads(
    model: CnnModel,
    x: np.ndarray,
    classes: np.ndarray,
    train: bool = False,
    keep_prob: float = 1.0,
    rng: np.random.Generator | None = None,
):
    logits, cache = forward(model, x, train=train, keep_prob=keep_prob, rng=rng)
    loss, dlogits = cross_entropy(logits, classes)
    return loss, backward(model, cache, dlogits)


def predict_probs(model: CnnModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities with dropout off."""
    logits, _ = forward(model, x, train=False)
    return softmax(logits)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 10
    epochs: int = 10
    keep_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.keep_prob <= 1.0):
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place ADAM update with bias correction, rounded exactly as
    ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``.

    Each tensor is updated in blocks of leading-axis rows of about
    ``ADAM_BLOCK`` elements through two block-sized scratch arrays, so the
    intermediates stay in cache and the 268 MB ``fc1_w`` with its moments
    crosses memory once per step instead of once per arithmetic operation.
    """
    state.t += 1
    b1t = 1.0 - beta1**state.t
    b2t = 1.0 - beta2**state.t
    for name, p in params.items():
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        p, g, m, v = (np.atleast_1d(a) for a in (p, grads[name], state.m[name], state.v[name]))
        rows = max(1, ADAM_BLOCK * len(p) // max(p.size, 1))
        step_buf, denom_buf = np.empty_like(p[:rows]), np.empty_like(p[:rows])
        for lo in range(0, len(p), rows):
            pb, gb, mb, vb = (a[lo : lo + rows] for a in (p, g, m, v))
            step, denom = step_buf[: len(pb)], denom_buf[: len(pb)]
            mb *= beta1
            mb += np.multiply(gb, 1.0 - beta1, out=step)
            vb *= beta2
            vb += np.multiply(np.multiply(gb, gb, out=step), 1.0 - beta2, out=step)
            np.sqrt(np.divide(vb, b2t, out=denom), out=denom)
            denom += eps
            np.multiply(np.divide(mb, b1t, out=step), lr, out=step)
            pb -= np.divide(step, denom, out=step)


def mean_cross_entropy(model: CnnModel, x: np.ndarray, classes: np.ndarray) -> float:
    """Full-set cross-entropy with dropout off (the loss-trace metric)."""
    logits, _ = forward(model, x, train=False)
    loss, _ = cross_entropy(logits, classes)
    return loss


def train(
    x: np.ndarray,
    classes: np.ndarray,
    config: TrainConfig,
    model: CnnModel | None = None,
    input_size: int = 32,
):
    """Mini-batch ADAM on mean cross-entropy; returns (model, loss trace).

    The trace holds the dropout-off full-set loss before training and
    after each epoch, so ``trace[0]`` is the untrained loss. Requires at
    least one example of every class.
    """
    x = np.asarray(x, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    counts = np.bincount(classes, minlength=N_CLASSES)
    if len(counts) > N_CLASSES or np.any(counts[:N_CLASSES] == 0):
        raise DatasetError(f"need >= 1 example of each of {N_CLASSES} classes, got counts {counts}")

    rng = np.random.default_rng(config.seed)
    if model is None:
        model = init_model(input_size=input_size, seed=config.seed, rng=rng)
    state = AdamState()
    trace = [mean_cross_entropy(model, x, classes)]
    n = len(classes)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = loss_and_grads(
                model, x[batch], classes[batch], train=True, keep_prob=config.keep_prob, rng=rng
            )
            adam_step(
                model.params,
                grads,
                state,
                config.learning_rate,
                config.beta1,
                config.beta2,
                config.eps,
            )
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
        "n_classes": model.n_classes,
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
        header["n_classes"],
        header["kernel_size"],
        header["seed"],
        params,
    )
