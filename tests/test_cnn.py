"""Network layers, gradients, the optimizer and model persistence."""

import functools
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cellforest import parallel
from checks import peak_bytes_per
from oracles import (
    conv3d_im2col_reference,
    conv3d_reference,
    finite_difference_grad,
    init_model_reference,
    maxpool_argmax_reference,
    maxpool_backward_reference,
    maxpool_reference,
)


# ---------------------------------------------------------------------------
# layer forwards against loop references


relu = lambda a: np.maximum(a, 0.0)


@pytest.mark.parametrize("kernel", [3, 5])
def test_conv_matches_loop_reference(kernel):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 6, 6, 2))
    w = rng.standard_normal((kernel, kernel, kernel, 2, 3))
    b = rng.standard_normal(3)
    got, _ = conv3d_forward(x, w, b)
    for n in range(2):
        want = maxpool_reference(relu(conv3d_reference(x[n], w, b)))
        np.testing.assert_allclose(got[n], want, atol=1e-12)


def test_conv_identity_kernel_passes_input_through():
    # the layer is then the pool of the rectified input
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 4, 4, 4, 1))
    w = np.zeros((3, 3, 3, 1, 1))
    w[1, 1, 1, 0, 0] = 1.0
    out, idx = conv3d_forward(x, w, np.zeros(1))
    want, want_idx = maxpool_argmax_reference(relu(x))
    np.testing.assert_allclose(out, want, atol=0)
    np.testing.assert_array_equal(idx, want_idx)


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


def layer_reference(x, w, b):
    """The conv layer from the oracles: the whole-matrix convolution, a ReLU and the
    argmax pool of the even part of each edge, with ``int8`` indices."""
    a = relu(conv3d_im2col_reference(x, w, b))
    _, d, h, wd, _ = a.shape
    m, idx = maxpool_argmax_reference(a[:, : d // 2 * 2, : h // 2 * 2, : wd // 2 * 2])
    return m, idx.astype(np.int8)


def assert_same_layer(got, want):
    """Pooled maps bit for bit, indices exactly, each of the same shape and dtype."""
    for a, ref in zip(got, want, strict=True):
        assert a.dtype == ref.dtype and a.shape == ref.shape
        assert np.array_equal(a.view(np.uint8), ref.view(np.uint8))


@pytest.mark.parametrize("batch", [1, 2, 6])
@pytest.mark.parametrize("side,c_in,c_out", [(32, 1, 32), (16, 32, 64)], ids=["conv1", "conv2"])
def test_conv_forward_bit_equal_to_whole_im2col(side, c_in, c_out, batch):
    # the production shapes of both layers, full-size patches
    rng = np.random.default_rng(side + batch)
    x = np.maximum(rng.standard_normal((batch, side, side, side, c_in)), 0.0)
    w = rng.standard_normal((5, 5, 5, c_in, c_out)) * 0.05
    b = rng.standard_normal(c_out)
    assert_same_layer(conv3d_forward(x, w, b), layer_reference(x, w, b))


@pytest.mark.parametrize("slices", [1, 2, 3, 7, 100])
def test_conv_forward_blocks_that_do_not_divide_the_depth(monkeypatch, slices):
    # a 7-deep, 5-high odd shape (pooled from its even 6 x 4 part) cut into
    # blocks of at most 1, 2, 3 and 7 y-lines, 7 and 100 more than the 4 computed
    n, d, h, wd, c_in, k = 2, 7, 5, 6, 3, 5
    monkeypatch.setattr(cnn_module, "CONV_BLOCK", slices * wd * k**3 * c_in * 8)
    rng = np.random.default_rng(slices)
    x = rng.standard_normal((n, d, h, wd, c_in))
    w = rng.standard_normal((k, k, k, c_in, 4))
    b = rng.standard_normal(4)
    assert_same_layer(conv3d_forward(x, w, b), layer_reference(x, w, b))


@functools.cache
def layer_case(case):
    """(x, w, b) and the reference layer for a production layer at batch 2, or for an odd
    shape with zeros of both signs in its input and its weights, whose convolution outputs
    are few multiples of 0.5, so that most pooling windows hold ties."""
    rng = np.random.default_rng(len(case))
    if case == "ties":
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=(2, 7, 5, 6, 3))
        w = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=(5, 5, 5, 3, 4))
        b = np.array([-0.0, 0.0, -0.5, 0.5])
    else:
        side, c_in, c_out = {"conv1": (32, 1, 32), "conv2": (16, 32, 64)}[case]
        x = np.maximum(rng.standard_normal((2, side, side, side, c_in)), 0.0)
        w, b = rng.standard_normal((5, 5, 5, c_in, c_out)) * 0.05, rng.standard_normal(c_out)
    return (x, w, b), layer_reference(x, w, b)


@pytest.mark.parametrize("n_cpus", [1, 8])
@pytest.mark.parametrize("lines", [None, 0, 3, 1000], ids=["default", "1_line", "3_lines", "whole"])
@pytest.mark.parametrize("case", ["conv1", "conv2", "ties"])
def test_conv_layer_bit_equal_to_pooled_rectified_reference(crowded, cpus, case, lines, n_cpus):
    # the production shapes and a tied one, blocks of one line, of 3 lines and
    # some odd bytes (dividing no edge) and of more than a sample, on one
    # thread and on a thread per sample
    cpus(n_cpus)
    (x, w, b), want = layer_case(case)
    if lines is not None:
        crowded.setattr(cnn_module, "CONV_BLOCK", lines * x.shape[3] * w[..., 0].size * 8 + 7)
    assert_same_layer(conv3d_forward(x, w, b), want)
    if case == "ties":
        assert (np.signbit(x) & (x == 0)).any() and (~np.signbit(x) & (x == 0)).any()
        full = conv3d_im2col_reference(x, w, b)
        assert len(np.unique(full)) < full.size / 10 and (relu(full) == 0).mean() > 0.3
        for i in range(len(x)):  # the loop pool, which gives values only
            np.testing.assert_array_equal(want[0][i], maxpool_reference(relu(full[i])))


def tied_pool_input(seed, shape=(2, 4, 6, 8, 3)):
    """Few distinct values, so most windows hold ties, and zeros of both signs."""
    return np.random.default_rng(seed).choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=shape)


@pytest.mark.parametrize("seed", range(4))
def test_maxpool_bit_equal_to_argmax_reference_on_ties_and_signed_zeros(seed):
    # ties of zeros of both signs must keep the first one's sign bit
    x = tied_pool_input(seed)
    x[0, :2, :2, :2, 0] = -0.0  # all-negative-zero window
    x[1, :2, :2, :2, 0] = [[[-0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    x[1, 2:, :2, :2, 0] = [[[0.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [-0.0, 0.0]]]
    y, idx = maxpool3d_forward(x)
    y_ref, idx_ref = maxpool_argmax_reference(x)
    assert np.array_equal(bits(y), bits(y_ref))
    assert idx.dtype == np.int8 and np.array_equal(idx, idx_ref)
    assert np.signbit(y[0, 0, 0, 0, 0]) and np.signbit(y[1, 0, 0, 0, 0])
    assert not np.signbit(y[1, 1, 0, 0, 0])


def test_maxpool_bit_equal_to_argmax_reference_at_production_shape():
    x = np.maximum(np.random.default_rng(6).standard_normal((2, 32, 32, 32, 32)), 0.0)
    y, idx = maxpool3d_forward(x)
    y_ref, idx_ref = maxpool_argmax_reference(x)
    assert np.array_equal(bits(y), bits(y_ref))
    assert np.array_equal(idx, idx_ref)


@pytest.mark.parametrize("seed", range(4))
def test_maxpool_backward_bit_equal_to_put_along_axis_reference(seed):
    # tied windows, zeros of both signs in the input and in dy, negative dy
    x = tied_pool_input(seed)
    _, idx = maxpool3d_forward(x)
    dy = tied_pool_input(seed + 10, idx.shape) * 3.0
    g = maxpool3d_backward(dy, idx, x.shape)
    assert np.array_equal(bits(g), bits(maxpool_backward_reference(dy, idx, x.shape)))
    assert (np.signbit(dy) & (dy == 0)).any() and (dy < 0).any()


@pytest.mark.parametrize("side,c", [(32, 32), (16, 64)], ids=["pool1", "pool2"])
def test_maxpool_backward_bit_equal_to_reference_at_production_shape(side, c):
    rng = np.random.default_rng(side)
    x = np.maximum(rng.standard_normal((2, side, side, side, c)), 0.0)
    _, idx = maxpool3d_forward(x)
    dy = rng.standard_normal(idx.shape) * (rng.random(idx.shape) > 0.3)  # and zeros
    dy[0, 0] = -0.0
    g = maxpool3d_backward(dy, idx, x.shape)
    assert np.array_equal(bits(g), bits(maxpool_backward_reference(dy, idx, x.shape)))


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


def digests(params):
    return {name: hashlib.sha256(a).hexdigest() for name, a in params.items()}


@pytest.mark.parametrize("size", [8, 16, 32])
@pytest.mark.parametrize("seed", range(4))
def test_init_model_bits_and_generator_state_equal_normal_draws(size, seed):
    # standard_normal drawn in place, times the scale, plus 0.0, is normal's loc + scale * z
    rng = np.random.default_rng(seed)
    want = digests(init_model_reference(expected_shapes(size, (32, 64), 1024), rng))
    got = digests(init_model(input_size=size, seed=seed).params)
    assert list(got) == list(PARAM_ORDER) and got == want
    # train's route: the model drawn from the generator that training goes on drawing from
    got_rng = np.random.default_rng(seed)
    model, draw_rest = cnn_module._init_model(size, seed, got_rng)
    draw_rest()
    assert digests(model.params) == want
    assert got_rng.bit_generator.state == rng.bit_generator.state


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


@pytest.mark.parametrize("blas", [True, False], ids=["blas_setter", "no_blas_setter"])
def test_forward_on_an_empty_batch_gives_no_logits(monkeypatch, two_cpus, blas):
    # workers(0) was 0 with a BLAS setter, and a chunk loop's step with it; an
    # empty batch runs the conv stack once, on the empty array, for the shapes
    if not blas:
        monkeypatch.setattr(parallel, "_openblas", lambda: None)
    model, x = init_model(input_size=8), np.zeros((0, 8, 8, 8))
    assert parallel.workers(0) == 1
    logits, (_, m1, idx1, m2, *_) = forward(model, x)
    assert logits.shape == (0, 3) and predict_probs(model, x).shape == (0, 3)
    assert m1.shape == (0, 4, 4, 4, 32) and idx1.dtype == np.int8 and m2.shape == (0, 2, 2, 2, 64)


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
    # one 32^3 forward above its inputs: each layer pools two output slices
    # at a time (31.3 MB when forward kept a1, r1, a2, r2, 13.6 MB with each
    # layer's whole convolution output and conv2's 8.2 MB im2col slice)
    model = init_model(seed=2)
    x = np.random.default_rng(3).random((1, 32, 32, 32))
    peak = peak_bytes_per(lambda: predict_probs(model, x))
    assert peak <= 8e6, f"forward peak {peak / 1e6:.1f} MB"


def test_loss_trace_grows_by_a_pooled_map_per_patch(cpus):
    # the trace keeps only fc1's input rows (0.26 MB a patch) and each thread's
    # one-patch convolution outputs; a whole-set forward grew 11.7 MB a patch
    cpus(2)
    model = init_model(seed=4)

    def trace_peak(n):
        x = np.random.default_rng(n).random((n, 32, 32, 32))
        return peak_bytes_per(lambda: mean_cross_entropy(model, x, np.arange(n) % 3))

    per_patch = (trace_peak(24) - trace_peak(6)) / 18
    assert per_patch <= 0.5e6, f"loss trace grows {per_patch / 1e6:.2f} MB a patch"


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


def test_train_peak_memory_without_a_model(cpus):
    # beyond the new model's own bytes: ADAM's m and v plus activations, with the fc1
    # weight gradient never formed whole; the fc1 and output weights drawn beside the
    # untrained pass keep no whole-set activations alive
    cpus(2)
    param_bytes = 8 * sum(map(math.prod, expected_shapes(32, (32, 64), 1024).values()))
    x = np.random.default_rng(21).random((3, 32, 32, 32))
    config = TrainConfig(batch_size=2, epochs=1, seed=0)
    ratio = peak_bytes_per(lambda: train(x, np.array([0, 1, 2]), config), param_bytes) - 1
    assert ratio < 2.5, f"train peak {ratio:.2f} x parameter bytes beyond the new model"


# ---------------------------------------------------------------------------
# concurrent training work: the bits of the calling thread alone


@pytest.fixture
def crowded(monkeypatch, cpus):
    """Eight workers, more than the cores, switching threads every 10 us."""
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield monkeypatch
    sys.setswitchinterval(interval)


def both_ways(monkeypatch, fn):
    """``fn()`` with :func:`concurrent_map` as it is, then on the calling thread alone."""
    concurrent = fn()
    with monkeypatch.context() as m:
        m.setattr(parallel, "_openblas", lambda: None)
        return concurrent, fn()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_conv_forward_samples_concurrently_bit_equal(crowded, n):
    crowded.setattr(cnn_module, "CONV_BLOCK", 3 * 8 * 8 * 5**3 * 2 * 8)  # 3 of 8 lines a block
    rng = np.random.default_rng(n)
    x, w = rng.standard_normal((n, 8, 8, 8, 2)), rng.standard_normal((5, 5, 5, 2, 4))
    b = rng.random(4)
    concurrent, alone = both_ways(crowded, lambda: conv3d_forward(x, w, b))
    assert_same_layer(concurrent, alone)
    assert_same_layer(concurrent, layer_reference(x, w, b))


def whole_batch_forward(model, x, keep_prob, rng):
    """The forward pass one reference layer at a time over the whole batch, as a
    cache tuple led by the logits."""
    p, x = model.params, x[..., None]
    m1, idx1 = layer_reference(x, p["conv1_w"], p["conv1_b"])
    m2, idx2 = layer_reference(m1, p["conv2_w"], p["conv2_b"])
    flat = m2.reshape(len(x), -1)
    f1 = flat @ p["fc1_w"] + p["fc1_b"]
    mask = (rng.random(f1.shape) < keep_prob) / keep_prob
    dropped = np.maximum(f1, 0.0) * mask
    return dropped @ p["out_w"] + p["out_b"], x, m1, idx1, m2, idx2, flat, f1, mask, dropped


@pytest.mark.parametrize("n_cpus", [2, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
def test_forward_in_chunks_bit_equal_to_whole_batch(crowded, cpus, n_cpus, n):
    # each patch's conv stack is one concurrent_map item: every conv3d_forward
    # call takes one patch, on two threads or on min(n, 8)
    cpus(n_cpus)
    model = init_model(input_size=8, seed=n)
    x = np.random.default_rng(n).random((n, 8, 8, 8))
    patches, conv = [], cnn_module.conv3d_forward
    spy = lambda a, w, b: patches.append(len(a)) or conv(a, w, b)
    crowded.setattr(cnn_module, "conv3d_forward", spy)
    logits, cache = forward(model, x, 0.6, np.random.default_rng(1))
    assert patches == [1] * (2 * n)
    want = whole_batch_forward(model, x, 0.6, np.random.default_rng(1))
    for got, ref in zip((logits, *cache), want, strict=True):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
    classes = np.arange(n) % 3
    no_dropout = whole_batch_forward(model, x, 1.0, np.random.default_rng(1))[0]
    assert mean_cross_entropy(model, x, classes) == cross_entropy(no_dropout, classes)[0]
    assert np.array_equal(predict_probs(model, x), softmax(no_dropout))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_forward_and_loss_trace_concurrently_bit_equal(crowded, n):
    # a patch per item, and the loss trace's beside item drawing on its own generator
    model = init_model(input_size=8, seed=30 + n)
    x, classes = np.random.default_rng(n).random((n, 8, 8, 8)), np.arange(n) % 3

    def both():
        drawn = []
        beside = lambda: drawn.append(np.random.default_rng(n).standard_normal(4096))
        logits, cache = forward(model, x, 0.6, np.random.default_rng(1))
        return [logits, *cache], mean_cross_entropy(model, x, classes, beside), drawn

    (maps, loss, drawn), (maps_alone, loss_alone, drawn_alone) = both_ways(crowded, both)
    assert len(drawn) == len(drawn_alone) == 1 and np.array_equal(drawn[0], drawn_alone[0])
    assert loss == loss_alone == mean_cross_entropy(model, x, classes)
    for got, ref in zip(maps, maps_alone, strict=True):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))


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
    meta = json.loads(header)
    assert meta["precision"] == "f64"
    n_values = sum(int(np.prod(e["shape"])) for e in meta["params"])
    assert len(payload) == 8 * n_values


def test_load_model_rejects_wrong_format(tmp_path):
    # binary and deeply nested first lines failed with a bare UnicodeDecodeError and a
    # RecursionError
    path = tmp_path / "bad.model"
    for first_line in [b'{"format": "something-else"}\n', bytes(range(256)), b"[" * 100_000]:
        path.write_bytes(first_line)
        with pytest.raises(ValueError, match=f"{path}: not a cellforest model file"):
            load_model(path)


def rewrite_header(path, out, edit):
    """Copy a model file with its JSON header passed through ``edit``."""
    header, _, payload = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    payload = edit(meta, payload)
    out.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    return out


@pytest.mark.parametrize("n_classes", [2, 4, None])
def test_load_model_rejects_another_class_count(tmp_path, n_classes):
    # such a file used to load, and the run failed at its first query
    path = tmp_path / "net.model"
    save_model(small_model(seed=27), path)
    assert json.loads(path.read_bytes().partition(b"\n")[0])["n_classes"] == 3

    def recount(meta, payload):
        meta["n_classes"] = n_classes
        return payload

    bad = rewrite_header(path, tmp_path / "classes.model", recount)
    with pytest.raises(ValueError, match="classes.model: header n_classes: expected 3"):
        load_model(bad)


def test_load_model_rejects_duplicated_parameter(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=23), path)

    def twice(meta, payload):
        meta["params"].insert(1, dict(meta["params"][1]))  # conv1_b again
        return payload

    bad = rewrite_header(path, tmp_path / "dup.model", twice)
    with pytest.raises(ValueError, match=r'dup.model: header params\[2\]\.name: expected "conv2_w"'):
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
    with pytest.raises(ValueError, match=r'missing.model: header params\[7\]\.name: expected "out_b"'):
        load_model(bad)


def test_load_model_rejects_unknown_parameter(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=25), path)

    def rename(meta, payload):
        meta["params"][0]["name"] = "conv0_w"
        return payload

    bad = rewrite_header(path, tmp_path / "unknown.model", rename)
    with pytest.raises(ValueError, match=r'unknown.model: header params\[0\]\.name: expected "conv1_w"'):
        load_model(bad)


MISSING_KEY_MESSAGES = {
    "params": r'header params\[0\]\.name: expected "conv1_w"',
    "input_size": "header key 'input_size' is missing, not an integer >= 1",
    "seed": "header key 'seed' is missing, not an integer >= 0",
}


@pytest.mark.parametrize("key", ["params", "input_size", "seed"])
def test_load_model_names_a_missing_header_key(tmp_path, key):
    # a header without "params" used to fail with "'params'" alone
    path = tmp_path / "net.model"
    save_model(small_model(seed=28), path)

    def drop(meta, payload):
        del meta[key]
        return payload

    bad = rewrite_header(path, tmp_path / "nokey.model", drop)
    with pytest.raises(ValueError, match=f"nokey.model: {MISSING_KEY_MESSAGES[key]}"):
        load_model(bad)


def header_is_a_list(meta):
    return ["cellforest-cnn v1"]


def entry_without_shape(meta):
    del meta["params"][2]["shape"]


def entry_shape_not_a_list(meta):
    meta["params"][0]["shape"] = 5


def entry_not_an_object(meta):
    meta["params"][1] = "conv1_b"


def entry_without_name(meta):
    del meta["params"][3]["name"]


def params_not_a_list(meta):
    meta["params"] = meta["params"][0]


# shapes that failed with a bare TypeError, numpy's "negative dimensions are not
# allowed" and a MemoryError for 8 TiB: each is now refused before any allocation
def entry_shape_of_a_string(meta):
    meta["params"][0]["shape"] = ["a"]


def entry_shape_negative(meta):
    meta["params"][1]["shape"] = [-1]


def entry_shape_of_8_tib(meta):
    meta["params"][4]["shape"] = [2**40]


# architecture values that failed with errors naming neither the file nor the key
def input_size_not_divisible_by_4(meta):
    meta["input_size"] = 6


def three_conv_channels(meta):
    meta["conv_channels"] = [2, 3, 4]


def input_size_of_a_string(meta):
    meta["input_size"] = "8"


# a header that loaded, and that save_model wrote back otherwise
def precision_f32(meta):
    meta["precision"] = "f32"


def an_extra_key(meta):
    meta["extra"] = 1


@pytest.mark.parametrize("edit, message", [
    (header_is_a_list, "not a cellforest model file"),
    (entry_without_shape, r"header params\[2\]\.shape: expected \[3, 3, 3, 2, 3\]"),
    (entry_shape_not_a_list, r"header params\[0\]\.shape: expected \[3, 3, 3, 1, 2\]"),
    (entry_not_an_object, r'header params\[1\]\.name: expected "conv1_b"'),
    (entry_without_name, r'header params\[3\]\.name: expected "conv2_b"'),
    (params_not_a_list, r'header params\[0\]\.name: expected "conv1_w"'),
    (entry_shape_of_a_string, r"header params\[0\]\.shape: expected \[3, 3, 3, 1, 2\]"),
    (entry_shape_negative, r"header params\[1\]\.shape: expected \[2\]"),
    (entry_shape_of_8_tib, r"header params\[4\]\.shape: expected \[3, 5\]"),
    (input_size_not_divisible_by_4, "input size must be divisible by 4, got 6"),
    (three_conv_channels, r"header key 'conv_channels' is \[2, 3, 4\], not a list of two integers"),
    (input_size_of_a_string, "header key 'input_size' is \"8\", not an integer >= 1"),
    (precision_f32, 'header precision: expected "f64"'),
    (an_extra_key, "header extra: expected nothing"),
])
def test_load_model_names_a_malformed_header(tmp_path, edit, message):
    # these used to fail with "'list' object has no attribute 'get'", a bare
    # "'shape'" or another error that named neither the file nor the entry
    path = tmp_path / "net.model"
    save_model(small_model(seed=29), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    meta = edit(meta) or meta
    (tmp_path / "bad.model").write_bytes(json.dumps(meta).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match=f"bad.model: {message}"):
        load_model(tmp_path / "bad.model")


def test_load_model_rejects_over_long_payload(tmp_path):
    path = tmp_path / "net.model"
    save_model(small_model(seed=26), path)
    (tmp_path / "long.model").write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="payload length mismatch"):
        load_model(tmp_path / "long.model")


def test_load_model_checks_payload_length_before_allocating(tmp_path):
    # the header is what save_model writes for 24 TiB of tensors: numpy's
    # MemoryError, naming no file, came before the payload was looked at
    path = tmp_path / "huge.model"
    path.write_bytes(cnn_module._model_header(4, (2, 3), 2**40, 3, 1) + b"\0" * 64)
    with pytest.raises(ValueError, match="huge.model: payload length mismatch"):
        load_model(path)


def test_load_model_rejects_truncated_payload(tmp_path):
    model = small_model(seed=22)
    path = tmp_path / "net.model"
    save_model(model, path)
    raw = path.read_bytes()
    (tmp_path / "cut.model").write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_model(tmp_path / "cut.model")


class Obj(list):
    """A JSON object as its (key, value) pairs, so that an edit can repeat or reorder keys."""


def dumps(value):
    """``json.dumps`` of a tree of Obj, lists and plain values, with its default separators."""
    if isinstance(value, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


def slots(value):
    """(container, index) of every key of an Obj and every element of a list below ``value``."""
    for i, item in enumerate(value if isinstance(value, list) else []):
        yield value, i
        yield from slots(item[1] if isinstance(value, Obj) else item)


HEADER_VALUE_POOL = ["8", 6, [2, 3, 4], True, 4.0, None, "f32", -1, 2**40]


@st.composite
def one_header_edit(draw, header):
    """The model header line ``header`` with one key or element dropped, duplicated, retyped
    (to its JSON as a string, or wrapped in a list), swapped with a sibling, or set to a
    value from HEADER_VALUE_POOL."""
    meta = json.loads(header, object_pairs_hook=Obj)
    container, i = draw(st.sampled_from(list(slots(meta))))
    key, value = container[i] if isinstance(container, Obj) else (None, container[i])
    kind = draw(st.sampled_from(["drop", "duplicate", "retype", "swap", "set"]))
    if kind == "drop":
        del container[i]
    elif kind == "duplicate":
        container.insert(i, container[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(container) - 1))
        container[i], container[j] = container[j], container[i]
    else:
        value = (draw(st.sampled_from([dumps(value), [value]])) if kind == "retype"
                 else draw(st.sampled_from(HEADER_VALUE_POOL)))
        container[i] = (key, value) if isinstance(container, Obj) else value
    return dumps(meta)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_model_accepts_only_what_save_model_writes(tmp_path_factory, data):
    # "precision": "f32", an extra key or keys in another order used to load, and
    # save_model then wrote a different file
    path = tmp_path_factory.mktemp("edit") / "net.model"
    save_model(small_model(seed=31), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    path.write_bytes(data.draw(one_header_edit(header)).encode() + b"\n" + payload)
    try:
        model = load_model(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    save_model(model, path.parent / "again.model")
    assert (path.parent / "again.model").read_bytes() == path.read_bytes()
