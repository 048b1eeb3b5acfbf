"""Network layers, gradients, the optimizer and model persistence."""

import hashlib
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from cellforest.cnn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PARAM_ORDER,
    AdamState,
    CnnModel,
    DatasetError,
    OuterProduct,
    TrainConfig,
    adam_step,
    backward,
    conv3d_backward,
    conv3d_forward,
    cross_entropy,
    expected_shapes,
    forward,
    init_model,
    load_model,
    maxpool3d_backward,
    maxpool3d_forward,
    mean_cross_entropy,
    predict_probs,
    save_model,
    softmax,
    train,
)

import cellforest.cnn as cnn_module
from oracles import (
    conv3d_im2col_reference,
    conv3d_reference,
    finite_difference_grad,
    maxpool_argmax_reference,
    maxpool_reference,
)


# ---------------------------------------------------------------------------
# layer forwards against loop references


@pytest.mark.parametrize("kernel", [3, 5])
def test_conv_matches_loop_reference(kernel):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 6, 6, 2))
    w = rng.standard_normal((kernel, kernel, kernel, 2, 3))
    b = rng.standard_normal(3)
    got = conv3d_forward(x, w, b)
    for n in range(2):
        np.testing.assert_allclose(got[n], conv3d_reference(x[n], w, b), atol=1e-12)


def test_conv_identity_kernel_passes_input_through():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 4, 4, 4, 1))
    w = np.zeros((3, 3, 3, 1, 1))
    w[1, 1, 1, 0, 0] = 1.0
    out = conv3d_forward(x, w, np.zeros(1))
    np.testing.assert_allclose(out, x, atol=0)


def test_maxpool_matches_loop_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 6, 8, 3))
    got, _ = maxpool3d_forward(x)
    for n in range(2):
        np.testing.assert_allclose(got[n], maxpool_reference(x[n]), atol=0)


def test_maxpool_ties_route_to_first_position():
    # a constant block: the winner index must be the (0,0,0) corner, and
    # the backward pass must put the whole gradient there
    x = np.ones((1, 2, 2, 2, 1))
    y, idx = maxpool3d_forward(x)
    assert y.shape == (1, 1, 1, 1, 1)
    assert idx.item() == 0
    g = maxpool3d_backward(np.full((1, 1, 1, 1, 1), 5.0), idx, x.shape)
    assert g[0, 0, 0, 0, 0] == 5.0
    assert g.sum() == 5.0


def test_maxpool_backward_routes_to_argmax():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 4, 4, 4, 2))
    y, idx = maxpool3d_forward(x)
    dy = rng.standard_normal(y.shape)
    g = maxpool3d_backward(dy, idx, x.shape)
    # gradient is nonzero exactly at pool winners and sums preserve dy
    assert np.count_nonzero(g) == dy.size
    np.testing.assert_allclose(g.sum(), dy.sum(), atol=1e-12)
    # masking everything except the winners must leave the pool output intact
    masked = np.where(g != 0, x, -np.inf)
    y2, _ = maxpool3d_forward(masked)
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_allclose((g * x).sum(), (dy * y).sum(), atol=1e-12)


# ---------------------------------------------------------------------------
# bit-identity of the blocked / copy-free forwards with the whole-array ones


def bits(a):
    """The float64 bit patterns, so -0.0 and +0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("batch", [1, 2, 6])
@pytest.mark.parametrize("side,c_in,c_out", [(32, 1, 32), (16, 32, 64)], ids=["conv1", "conv2"])
def test_conv_forward_bit_equal_to_whole_im2col(side, c_in, c_out, batch):
    # the production shapes of both layers, full-size patches
    rng = np.random.default_rng(side + batch)
    x = np.maximum(rng.standard_normal((batch, side, side, side, c_in)), 0.0)
    w = rng.standard_normal((5, 5, 5, c_in, c_out)) * 0.05
    b = rng.standard_normal(c_out)
    assert np.array_equal(conv3d_forward(x, w, b), conv3d_im2col_reference(x, w, b))


@pytest.mark.parametrize("slices", [1, 2, 3, 7, 100])
def test_conv_forward_blocks_that_do_not_divide_the_depth(monkeypatch, slices):
    # a 7-deep odd shape cut into blocks of 1, 2, 3 and 7 slices, and a
    # block larger than the whole sample
    n, d, h, wd, c_in, k = 2, 7, 5, 6, 3, 5
    monkeypatch.setattr(cnn_module, "CONV_BLOCK", slices * h * wd * k**3 * c_in * 8)
    rng = np.random.default_rng(slices)
    x = rng.standard_normal((n, d, h, wd, c_in))
    w = rng.standard_normal((k, k, k, c_in, 4))
    b = rng.standard_normal(4)
    assert np.array_equal(conv3d_forward(x, w, b), conv3d_im2col_reference(x, w, b))


@pytest.mark.parametrize("seed", range(4))
def test_maxpool_bit_equal_to_argmax_reference_on_ties_and_signed_zeros(seed):
    # few distinct values, so most windows hold ties, and zeros of both
    # signs, whose ties must keep the first one's sign bit
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=(2, 4, 6, 8, 3))
    x[0, :2, :2, :2, 0] = -0.0  # all-negative-zero window
    x[1, :2, :2, :2, 0] = [[[-0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    x[1, 2:, :2, :2, 0] = [[[0.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [-0.0, 0.0]]]
    y, idx = maxpool3d_forward(x)
    y_ref, idx_ref = maxpool_argmax_reference(x)
    assert np.array_equal(bits(y), bits(y_ref))
    assert np.array_equal(idx, idx_ref)
    assert np.signbit(y[0, 0, 0, 0, 0]) and np.signbit(y[1, 0, 0, 0, 0])
    assert not np.signbit(y[1, 1, 0, 0, 0])


def test_maxpool_bit_equal_to_argmax_reference_at_production_shape():
    x = np.maximum(np.random.default_rng(6).standard_normal((2, 32, 32, 32, 32)), 0.0)
    y, idx = maxpool3d_forward(x)
    y_ref, idx_ref = maxpool_argmax_reference(x)
    assert np.array_equal(bits(y), bits(y_ref))
    assert np.array_equal(idx, idx_ref)


# ---------------------------------------------------------------------------
# softmax / cross-entropy


def test_softmax_known_ratios():
    logits = np.log(np.array([[1.0, 2.0, 7.0]]))
    np.testing.assert_allclose(softmax(logits), [[0.1, 0.2, 0.7]], atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(5)
    p = softmax(rng.standard_normal((40, 3)) * 10)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)


def test_softmax_shift_invariant_and_overflow_safe():
    logits = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 1e4), atol=1e-12)
    huge = softmax(np.array([[1e5, 0.0, -1e5]]))
    assert np.isfinite(huge).all()
    np.testing.assert_allclose(huge[0, 0], 1.0, atol=1e-12)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((8, 3)) * 3
    classes = rng.integers(0, 3, size=8)
    loss, dlogits = cross_entropy(logits, classes)
    expect = -np.mean(np.log(softmax(logits)[np.arange(8), classes]))
    assert loss == pytest.approx(expect, abs=1e-12)
    onehot = np.zeros((8, 3))
    onehot[np.arange(8), classes] = 1.0
    np.testing.assert_allclose(dlogits, (softmax(logits) - onehot) / 8, atol=1e-12)


def test_cross_entropy_gradient_finite_difference():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((4, 3))
    classes = np.array([0, 2, 1, 1])
    _, dlogits = cross_entropy(logits, classes)
    fd = finite_difference_grad(lambda: cross_entropy(logits, classes)[0], logits)
    np.testing.assert_allclose(dlogits, fd, atol=1e-9)


# ---------------------------------------------------------------------------
# model construction


def test_expected_shapes_full_size():
    shapes = expected_shapes(32, (32, 64), 1024, 5)
    assert shapes["conv1_w"] == (5, 5, 5, 1, 32)
    assert shapes["conv2_w"] == (5, 5, 5, 32, 64)
    assert shapes["fc1_w"] == (8 * 8 * 8 * 64, 1024)
    assert shapes["fc1_w"][0] == 32768
    assert shapes["out_w"] == (1024, 3)


def test_expected_shapes_rejects_indivisible_input():
    with pytest.raises(ValueError):
        expected_shapes(33, (8, 8), 16)


def test_model_validates_parameter_shapes():
    model = init_model(input_size=4, conv_channels=(2, 2), fc_units=4, kernel_size=3, seed=0)
    bad = dict(model.params)
    bad["conv1_b"] = np.zeros(7)
    with pytest.raises(ValueError):
        CnnModel(4, (2, 2), 4, 3, 0, bad)


def test_init_model_deterministic_with_zero_biases():
    a = init_model(input_size=4, conv_channels=(2, 3), fc_units=5, kernel_size=3, seed=9)
    b = init_model(input_size=4, conv_channels=(2, 3), fc_units=5, kernel_size=3, seed=9)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
        if name.endswith("_b"):
            assert not a.params[name].any()


def test_zero_weights_give_uniform_probabilities():
    model = init_model(input_size=4, conv_channels=(2, 2), fc_units=4, kernel_size=3, seed=0)
    for p in model.params.values():
        p[...] = 0.0
    probs = predict_probs(model, np.random.default_rng(0).random((3, 4, 4, 4)))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)


def test_forward_accepts_channelled_and_unchannelled_input():
    model = init_model(input_size=4, conv_channels=(2, 2), fc_units=4, kernel_size=3, seed=1)
    x = np.random.default_rng(1).random((2, 4, 4, 4))
    a, _ = forward(model, x)
    b, _ = forward(model, x[..., None])
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# end-to-end gradients


def small_model(seed=11):
    return init_model(input_size=4, conv_channels=(2, 3), fc_units=5, kernel_size=3, seed=seed)


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


def test_gradients_match_finite_differences_every_layer():
    model = small_model()
    rng = np.random.default_rng(12)
    x = rng.random((2, 4, 4, 4))
    classes = np.array([0, 2])
    logits, cache = forward(model, x)
    grads = backward(model, cache, cross_entropy(logits, classes)[1])
    for name, param in model.params.items():
        fd = finite_difference_grad(lambda: mean_cross_entropy(model, x, classes), param)
        err = relative_error(np.asarray(grads[name]), fd)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_conv_backward_without_input_grad_keeps_weight_grads():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 5, 4, 6, 2))
    w = rng.standard_normal((3, 3, 3, 2, 4))
    dy = rng.standard_normal((2, 5, 4, 6, 4))
    dx, dw, db = conv3d_backward(x, w, dy)
    none, dw_only, db_only = conv3d_backward(x, w, dy, input_grad=False)
    assert dx.shape == x.shape and none is None
    np.testing.assert_array_equal(dw_only, dw)
    np.testing.assert_array_equal(db_only, db)


def test_gradients_with_dropout_mask_applied():
    model = small_model(seed=13)
    rng = np.random.default_rng(14)
    x = rng.random((2, 4, 4, 4))
    classes = np.array([1, 0])

    def dropped_loss():
        logits, _ = forward(model, x, keep_prob=0.6, rng=np.random.default_rng(99))
        return cross_entropy(logits, classes)[0]

    logits, cache = forward(model, x, keep_prob=0.6, rng=np.random.default_rng(99))
    _, dlogits = cross_entropy(logits, classes)
    grads = backward(model, cache, dlogits)
    for name in ("fc1_w", "fc1_b", "out_w", "out_b"):
        fd = finite_difference_grad(dropped_loss, model.params[name])
        err = relative_error(np.asarray(grads[name]), fd)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_dropout_requires_rng_in_training_mode():
    model = small_model()
    with pytest.raises(ValueError):
        forward(model, np.zeros((1, 4, 4, 4)), keep_prob=0.5)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_is_almost_exactly_the_learning_rate():
    params = {"p": np.array([1.0])}
    state = AdamState()
    adam_step(params, {"p": np.array([3.0])}, state, lr=0.1)
    # m_hat = g, v_hat = g^2 after bias correction, so the step is
    # -lr * g / (|g| + eps): the learning rate shy of eps rounding
    expected_delta = -0.1 * 3.0 / (3.0 + 1e-8)
    assert params["p"][0] == pytest.approx(1.0 + expected_delta, abs=1e-15)
    assert params["p"][0] == pytest.approx(0.9, abs=1e-8)
    assert params["p"][0] != 0.9


def test_adam_matches_independent_replay():
    rng = np.random.default_rng(15)
    params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
    shadow = {k: v.copy() for k, v in params.items()}
    state = AdamState()
    m = {k: np.zeros_like(v) for k, v in shadow.items()}
    v = {k: np.zeros_like(u) for k, u in shadow.items()}
    lr, b1, b2, eps = 0.01, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
    for t in range(1, 6):
        grads = {k: rng.standard_normal(p.shape) for k, p in shadow.items()}
        adam_step(params, grads, state, lr)
        for k in shadow:
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
            shadow[k] -= lr * (m[k] / (1 - b1**t)) / (np.sqrt(v[k] / (1 - b2**t)) + eps)
    for k in shadow:
        np.testing.assert_array_equal(params[k], shadow[k])


@pytest.mark.parametrize("block", [1, 6, 1 << 16])
def test_adam_blocks_match_whole_tensor_update(monkeypatch, block):
    # 6 elements per block is two rows of "a" (the last block a single row)
    # and one row of "w"; a 0-d and an empty tensor ride along
    monkeypatch.setattr("cellforest.cnn.ADAM_BLOCK", block)
    rng = np.random.default_rng(17)
    shapes = {"a": (5, 3), "w": (3, 2, 4), "b": (7,), "s": (), "e": (0, 2)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    shadow = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    state = AdamState()
    for t in range(1, 4):
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-4, 3) for k, s in shapes.items()}
        adam_step(params, grads, state, 0.01)
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * (g * g)
            shadow[k] -= 0.01 * (m[k] / (1 - 0.9**t)) / (np.sqrt(v[k] / (1 - 0.999**t)) + 1e-8)
    for k in shapes:
        assert params[k].shape == shapes[k]
        np.testing.assert_array_equal(params[k], shadow[k])
        np.testing.assert_array_equal(state.m[k], m[k])


def test_backward_returns_fc1_weight_gradient_as_factors():
    model = small_model(seed=19)
    rng = np.random.default_rng(20)
    x = rng.random((3, 4, 4, 4))
    logits, cache = forward(model, x)
    _, dlogits = cross_entropy(logits, np.array([0, 1, 2]))
    g = backward(model, cache, dlogits)["fc1_w"]
    assert isinstance(g, OuterProduct)
    assert g.a.shape == (3, model.params["fc1_w"].shape[0]) and g.b.shape == (3, 5)
    np.testing.assert_array_equal(np.asarray(g), g.a.T @ g.b)
    assert np.asarray(g).shape == model.params["fc1_w"].shape


# sha256 of the logits and every gradient of one dropout step on a fixed
# batch, recorded from the implementation that cached the convolution and
# ReLU outputs and masked each gradient after unpooling (OpenBLAS, x86-64)
STEP_SHA256 = {
    16: "b54cc692b0ef5dd4dc781d92bc57ab3d3b04f581b87185e665b9b282a2a270da",
    8: "8aadfa63475cb91155bc6222b73aee253e2d5da5705e765a30481b4d3d9ee640",
}


@pytest.mark.parametrize("size, seed", [(16, 11), (8, 3)])
def test_forward_backward_bits_pinned(size, seed):
    # the cache holds pooled maps only; masking by m > 0 before unpooling
    # must give the bits of the ReLU mask applied after it
    model = init_model(input_size=size, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.random((3, size, size, size))
    logits, cache = forward(model, x, keep_prob=0.6, rng=rng)
    _, dlogits = cross_entropy(logits, np.array([0, 1, 2]))
    grads = backward(model, cache, dlogits)
    h = hashlib.sha256(logits.tobytes())
    for name in PARAM_ORDER:
        h.update(np.ascontiguousarray(np.asarray(grads[name])).tobytes())
    assert h.hexdigest() == STEP_SHA256[size]


def test_predict_peak_memory_per_patch():
    # one 32^3 forward above its inputs: the conv outputs are rectified in
    # place and freed after pooling (31.3 MB when forward kept a1, r1, a2, r2)
    model = init_model(seed=2)
    x = np.random.default_rng(3).random((1, 32, 32, 32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        predict_probs(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 16e6, f"forward peak {(peak - before) / 1e6:.1f} MB"


def adam_digests(p, grad):
    """sha256 of params, m and v after one adam_step from p (updated in place)."""
    state = AdamState()
    adam_step({"w": p}, {"w": grad}, state, 1e-3)
    return [hashlib.sha256(a).hexdigest() for a in (p, state.m["w"], state.v["w"])]


@pytest.mark.parametrize("batch", [1, 2, 3, 10, 13])
def test_adam_streamed_fc1_gradient_bit_equal_to_dense_at_production_shape(batch):
    # fc1_w is 32768 x 1024: blocks of 64 rows; the dense run holds one
    # parameter-sized gradient, so the two runs are compared by digest
    shape = expected_shapes(32, (32, 64), 1024)["fc1_w"]
    rng = np.random.default_rng(batch)
    a, b = rng.standard_normal((batch, shape[0])), rng.standard_normal((batch, shape[1]))
    p = np.random.default_rng(100 + batch).standard_normal(shape) * 0.01
    streamed = adam_digests(p, OuterProduct(a, b))
    p = np.random.default_rng(100 + batch).standard_normal(shape) * 0.01
    assert streamed == adam_digests(p, a.T @ b)


@pytest.mark.parametrize("block", [16, 32, 64 * 16, 1 << 16])
@pytest.mark.parametrize("rows", [1, 3, 65, 66])
def test_adam_streamed_gradient_never_forms_a_one_row_block(monkeypatch, block, rows):
    # 16 columns: 16 elements per block would be one-row blocks, 64 * 16 a
    # one-row tail after 64 rows; a one-row product goes to gemv, whose
    # rounding differs from the whole product's (the one-row tensor aside)
    monkeypatch.setattr("cellforest.cnn.ADAM_BLOCK", block)
    rng = np.random.default_rng(rows)
    a, b = rng.standard_normal((3, rows)), rng.standard_normal((3, 16))
    p = rng.standard_normal((rows, 16))
    q, s1, s2 = p.copy(), AdamState(), AdamState()
    for _ in range(2):
        adam_step({"w": p}, {"w": OuterProduct(a, b)}, s1, 0.01)
        adam_step({"w": q}, {"w": a.T @ b}, s2, 0.01)
    np.testing.assert_array_equal(p, q)
    np.testing.assert_array_equal(s1.m["w"], s2.m["w"])
    np.testing.assert_array_equal(s1.v["w"], s2.v["w"])


# ---------------------------------------------------------------------------
# training loop


def toy_dataset(n_per_class=4, size=4, seed=16):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(3):
        for _ in range(n_per_class):
            xs.append(np.clip(c / 3.0 + 0.15 * rng.random((size, size, size)), 0.0, 1.0))
            ys.append(c)
    return np.stack(xs), np.array(ys)


def test_train_reduces_loss_on_separable_toy_data():
    x, y = toy_dataset()
    config = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=25, keep_prob=1.0, seed=17)
    model, trace = train(x, y, config)
    assert trace[0] > 0
    assert trace[-1] < 0.5 * trace[0]
    preds = predict_probs(model, x).argmax(axis=1)
    assert (preds == y).mean() >= 0.9


def test_train_is_bitwise_deterministic():
    x, y = toy_dataset()
    config = TrainConfig(learning_rate=1e-2, batch_size=5, epochs=3, keep_prob=0.5, seed=18)
    m1, t1 = train(x, y, config)
    m2, t2 = train(x, y, config)
    np.testing.assert_array_equal(t1, t2)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def test_train_rejects_missing_class():
    x, y = toy_dataset()
    keep = y != 1
    config = TrainConfig(epochs=1)
    with pytest.raises(DatasetError):
        train(x[keep], y[keep], config)


def test_train_builds_the_network_for_the_patch_edge():
    # 8^3 patches without a size argument used to build a 32^3 network that
    # failed in the fc1 matmul
    x, y = toy_dataset(n_per_class=1, size=8)
    model, trace = train(x, y, TrainConfig(batch_size=3, epochs=1, seed=3))
    assert model.input_size == 8
    assert model.params["fc1_w"].shape == expected_shapes(8, (32, 64), 1024)["fc1_w"]
    assert len(trace) == 2 and np.isfinite(trace).all()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize(
    "field, value",
    [("learning_rate", v) for v in (0.0, -1.0, math.nan, math.inf)]
    + [("eps", v) for v in (0.0, -1e-8, math.nan, math.inf)]
    + [(f, v) for f in ("beta1", "beta2") for v in (1.0, -0.1, 2.0, math.nan)],
)
def test_train_config_rejects_bad_optimizer_settings(field, value):
    # ADAM's betas and epsilon are constants, not settings: no value of theirs is accepted
    with pytest.raises(ValueError if field == "learning_rate" else TypeError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_optimizer_edges():
    TrainConfig(learning_rate=1e-12)
    TrainConfig(learning_rate=10.0)


def test_train_peak_memory_beyond_the_model():
    # params, ADAM's m and v, plus activations; the fc1 weight gradient
    # is never formed whole (the dense-gradient loop peaked at about 4.2)
    model = init_model(seed=0)
    param_bytes = sum(p.nbytes for p in model.params.values())
    x = np.random.default_rng(21).random((3, 32, 32, 32))
    config = TrainConfig(batch_size=2, epochs=1, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train(x, np.array([0, 1, 2]), config, model=model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = (peak - before) / param_bytes
    assert ratio < 2.5, f"train peak {ratio:.2f} x parameter bytes"


# ---------------------------------------------------------------------------
# concurrent training work: the bits of the calling thread alone


@pytest.fixture
def crowded(monkeypatch):
    """Eight workers, more than the cores, switching threads every 10 us."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield monkeypatch
    sys.setswitchinterval(interval)


def both_ways(monkeypatch, fn):
    """``fn()`` with :func:`concurrent_map` as it is, then with the plain map."""
    concurrent = fn()
    with monkeypatch.context() as m:
        m.setattr(cnn_module, "concurrent_map", lambda f, xs: list(map(f, xs)))
        return concurrent, fn()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_conv_forward_samples_concurrently_bit_equal(crowded, n):
    crowded.setattr(cnn_module, "CONV_BLOCK", 3 * 8 * 8 * 5**3 * 2 * 8)  # 3 of 8 slices a block
    rng = np.random.default_rng(n)
    x, w = rng.standard_normal((n, 8, 8, 8, 2)), rng.standard_normal((5, 5, 5, 2, 4))
    b = rng.random(4)
    concurrent, alone = both_ways(crowded, lambda: conv3d_forward(x, w, b))
    assert np.array_equal(concurrent, alone)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conv_backward_tasks_concurrently_bit_equal(crowded, n, input_grad):
    rng = np.random.default_rng(10 + n)
    x, w = rng.standard_normal((n, 8, 8, 8, 3)), rng.standard_normal((5, 5, 5, 3, 4))
    dy = rng.standard_normal((n, 8, 8, 8, 4))
    concurrent, alone = both_ways(crowded, lambda: conv3d_backward(x, w, dy, input_grad))
    assert (concurrent[0] is None) == (alone[0] is None) == (not input_grad)
    for a, b in zip(concurrent, alone):
        assert a is b is None or np.array_equal(a, b)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "factors"])
def test_adam_runs_concurrently_bit_equal(crowded, dense):
    # 64-row blocks: "w" has (0, 64), (64, 129), its one-row tail joined; "u" has 16
    rng = np.random.default_rng(31)
    start = {"w": rng.standard_normal((129, 1024)), "u": rng.standard_normal((1024, 1024)),
             "b": rng.standard_normal(1024)}
    factors = [(rng.standard_normal((3, len(p))), rng.standard_normal((3, 1024)))
               for _ in range(2) for p in (start["w"], start["u"])]

    def two_steps():
        params, state, seen = {k: p.copy() for k, p in start.items()}, AdamState(), []
        for t in range(2):
            (aw, bw), (au, bu) = factors[2 * t : 2 * t + 2]
            grads = {"w": OuterProduct(aw, bw), "u": OuterProduct(au, bu), "b": bw.sum(axis=0)}
            if dense:
                grads = {k: np.asarray(g) for k, g in grads.items()}
            adam_step(params, grads, state, 0.01)
            seen += [a.copy() for k in start for a in (params[k], state.m[k], state.v[k])]
        return seen

    concurrent, alone = both_ways(crowded, two_steps)
    assert len(concurrent) == len(alone) == 18
    assert all(np.array_equal(a, b) for a, b in zip(concurrent, alone))


def test_train_concurrently_bit_equal(crowded):
    # fc1_w is 512 x 1024 here: eight ADAM blocks of 64 rows
    x, y = toy_dataset(n_per_class=2, size=8)
    config = TrainConfig(learning_rate=1e-2, batch_size=2, epochs=2, keep_prob=0.5, seed=23)

    def trained():
        model, trace = train(x, y, config)
        return b"".join(model.params[name].tobytes() for name in PARAM_ORDER), trace

    (model, trace), (model_alone, trace_alone) = both_ways(crowded, trained)
    assert model == model_alone
    assert np.array_equal(trace, trace_alone)


# ---------------------------------------------------------------------------
# persistence


def test_model_round_trip(tmp_path):
    model = small_model(seed=19)
    path = tmp_path / "net.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.input_size == model.input_size
    assert loaded.conv_channels == model.conv_channels
    assert loaded.kernel_size == model.kernel_size
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    x = np.random.default_rng(20).random((2, 4, 4, 4))
    np.testing.assert_array_equal(predict_probs(loaded, x), predict_probs(model, x))


def test_model_file_layout(tmp_path):
    model = small_model(seed=21)
    path = tmp_path / "net.model"
    save_model(model, path)
    raw = path.read_bytes()
    header, _, payload = raw.partition(b"\n")
    import json

    meta = json.loads(header)
    assert meta["precision"] == "f64"
    n_values = sum(int(np.prod(e["shape"])) for e in meta["params"])
    assert len(payload) == 8 * n_values


def test_load_model_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_model(path)


def rewrite_header(path, out, edit):
    """Copy a model file with its JSON header passed through ``edit``."""
    import json

    header, _, payload = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    payload = edit(meta, payload)
    out.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    return out


@pytest.mark.parametrize("n_classes", [2, 4, None])
def test_load_model_rejects_another_class_count(tmp_path, n_classes):
    # such a file used to load, and the run failed at its first query
    import json

    path = tmp_path / "net.model"
    save_model(small_model(seed=27), path)
    assert json.loads(path.read_bytes().partition(b"\n")[0])["n_classes"] == 3

    def recount(meta, payload):
        meta["n_classes"] = n_classes
        return payload

    bad = rewrite_header(path, tmp_path / "classes.model", recount)
    with pytest.raises(ValueError, match=f"header gives {n_classes} classes, not 3"):
        load_model(bad)


def test_load_model_rejects_duplicated_parameter(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=23), path)

    def twice(meta, payload):
        meta["params"].insert(1, dict(meta["params"][1]))  # conv1_b again
        return payload

    bad = rewrite_header(path, tmp_path / "dup.model", twice)
    with pytest.raises(ValueError, match="'conv1_b' 2 times"):
        load_model(bad)


def test_load_model_rejects_missing_parameter(tmp_path):
    path = tmp_path / "net.model"
    model = small_model(seed=24)
    save_model(model, path)

    def drop_out_b(meta, payload):
        assert meta["params"][-1]["name"] == "out_b"
        meta["params"].pop()
        return payload[: -model.params["out_b"].nbytes]

    bad = rewrite_header(path, tmp_path / "missing.model", drop_out_b)
    with pytest.raises(ValueError, match="'out_b' 0 times"):
        load_model(bad)


def test_load_model_rejects_unknown_parameter(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=25), path)

    def rename(meta, payload):
        meta["params"][0]["name"] = "conv0_w"
        return payload

    bad = rewrite_header(path, tmp_path / "unknown.model", rename)
    with pytest.raises(ValueError, match="unknown parameter 'conv0_w'"):
        load_model(bad)


@pytest.mark.parametrize("key", ["params", "input_size", "seed"])
def test_load_model_names_a_missing_header_key(tmp_path, key):
    # a header without "params" used to fail with "'params'" alone
    path = tmp_path / "net.model"
    save_model(small_model(seed=28), path)

    def drop(meta, payload):
        del meta[key]
        return payload

    bad = rewrite_header(path, tmp_path / "nokey.model", drop)
    with pytest.raises(ValueError, match=f"nokey.model: header lacks the key '{key}'"):
        load_model(bad)


def test_load_model_rejects_over_long_payload(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=26), path)
    (tmp_path / "long.model").write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="payload length mismatch"):
        load_model(tmp_path / "long.model")


def test_load_model_rejects_truncated_payload(tmp_path):
    model = small_model(seed=22)
    path = tmp_path / "net.model"
    save_model(model, path)
    raw = path.read_bytes()
    (tmp_path / "cut.model").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_model(tmp_path / "cut.model")
