import itertools
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (bce_composed, clip, div, entropy_composed, gelu_parts_ref, gelu_slope_ref, mean, neg, soft_dice,
                      softmax, softplus, sqrt, stable_sigmoid_ref)
from fdcheck import assert_grads_close, numeric_grad
import ttaseg
from ttaseg import adapt, losses, synthdata, tensor
from ttaseg.model import ModelConfig, SegModel
from ttaseg.pretrain import sample_loss
from ttaseg.tensor import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, DomainError, ParamGroup, Tensor, _stable_sigmoid,
                           adam_step, as_tensor, attention, concat, gelu_parts, gelu_slope, layer_norm, linear,
                           log_softmax, no_grad)


def test_sigmoid_at_zero():
    assert float(Tensor(0.0).sigmoid().data) == 0.5


def test_add_elementwise():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    assert np.array_equal(out.data, [4.0, 6.0])


def test_sigmoid_gradient_matches_central_difference():
    x = Tensor(0.0, requires_grad=True)
    x.sigmoid().backward()
    fd = numeric_grad(lambda: float(Tensor(x.data).sigmoid().data), x)
    assert abs(float(x.grad) - 0.25) <= 1e-8
    assert abs(float(x.grad) - float(fd)) <= 1e-8


def test_matmul_identity_and_small_product():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    assert np.array_equal((Tensor(np.eye(3)) @ m).data, m.data)
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.data.tolist() == [[11.0]]


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 3)))

    def f():
        return float(((a @ b) * c).sum().data)

    ((a @ b) * c).sum().backward()
    assert_grads_close(a.grad, numeric_grad(f, a), rtol=1e-6, atol=1e-8, label="dA")
    assert_grads_close(b.grad, numeric_grad(f, b), rtol=1e-6, atol=1e-8, label="dB")


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimensions"):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_constant_loss_gives_zero_grads():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * 0.0).sum().backward()
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2).backward()


def test_second_backward_rejected():
    x = Tensor(2.0, requires_grad=True)
    loss = x * x
    loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()


def test_backward_linearity():
    rng = np.random.default_rng(1)
    base = rng.normal(size=4)

    def grad_of(fn):
        x = Tensor(base, requires_grad=True)
        fn(x).backward()
        return x.grad

    g1 = grad_of(lambda x: (x * x).sum())
    g2 = grad_of(lambda x: x.sigmoid().sum())
    g12 = grad_of(lambda x: (x * x).sum() + x.sigmoid().sum())
    assert np.allclose(g12, g1 + g2, rtol=0, atol=1e-15)


# the package's softmax is log_softmax(...).exp(), as l_ifc forms the teacher's p_t


def test_softmax_uniform_and_closed_form():
    out = log_softmax(Tensor([1.7, 1.7, 1.7])).exp()
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)
    out = log_softmax(Tensor([0.0, math.log(3.0)])).exp()
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


@pytest.mark.parametrize("temperature", [0.01, 1.0, 100.0])
def test_softmax_normalizes(temperature):
    rng = np.random.default_rng(5)
    out = log_softmax(Tensor(rng.normal(size=(3, 7))), axis=-1, temperature=temperature).exp()
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=8)
    a = log_softmax(Tensor(x)).data
    b = log_softmax(Tensor(x + 123.456)).data
    assert np.all(np.abs(a - b) <= 1e-12)


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        log_softmax(Tensor([1.0, 2.0]), temperature=0.0)
    with pytest.raises(ValueError, match="temperature"):
        log_softmax(Tensor([1.0, 2.0]), temperature=-1.0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 5))
    assert np.allclose(log_softmax(Tensor(x), axis=1, temperature=0.37).data,
                       np.log(softmax(Tensor(x), axis=1, temperature=0.37).data),
                       atol=1e-12)


def test_domain_errors_carry_provenance():
    with pytest.raises(DomainError, match="log"):
        (Tensor([1.0, -2.0])).log()
    with pytest.raises(DomainError, match="zero divisor"):
        div(Tensor([1.0]), Tensor([0.0]))


def _fused_node_cases(model):
    """(name, the arrays a fused node reads, a function building the node)
    for every fused node of the package, every input trainable."""
    rng = np.random.default_rng(23)
    leaves, linear_lora, _ = _linear_case("all", True, 24)
    cases = [("linear-lora", leaves, linear_lora)]
    leaves = _leaves(rng, [(5, 6), (6,), (6,)], {0, 1, 2})
    cases.append(("layer_norm", leaves, lambda leaves=leaves: layer_norm(*leaves)))
    leaves = _leaves(rng, [(3, 6), (5, 6), (5, 6)], {0, 1, 2})
    cases.append(("attention", leaves, lambda leaves=leaves: attention(*leaves, 2)))
    leaves, upstage, _ = _upstage_case(model, True, True)
    cases.append(("upstage", leaves, upstage))
    x = Tensor(rng.normal(0.0, 2.0, (12, 23)), requires_grad=True)
    target, gt = rng.uniform(0.0, 1.0, (12, 23)), rng.uniform(size=(12, 23)) < 0.4
    cases += [("soft_dice", [x, target], lambda: losses.soft_dice_logits(x, target)),
              ("bce", [x, gt], lambda: losses.bce_with_logits(x, gt)),
              ("entropy", [x], lambda: losses.entropy_loss(x))]
    return cases


def test_ops_do_not_mutate_inputs(model16):
    x = Tensor([0.1, 0.2, 0.3], requires_grad=True)
    before = x.data.copy()
    y = clip((x * 3 - 1).sigmoid() + x.exp(), 0.0, 10.0)
    div(y.sum(), 2).backward()
    assert np.array_equal(x.data, before)
    for name, inputs, build in _fused_node_cases(model16):
        arrays = [t.data if isinstance(t, Tensor) else t for t in inputs]
        before = [a.copy() for a in arrays]
        out = build()
        _weighted_loss(out, inputs[0], 7).backward()
        for i, (a, b) in enumerate(zip(arrays, before)):
            assert a.dtype == b.dtype and np.array_equal(a, b), f"{name}: input {i} changed"


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad
    y.backward()  # no-op: nothing reachable
    assert x.grad is None


def test_no_grad_holds_only_in_its_own_thread():
    inside, release = threading.Event(), threading.Event()
    modes = []

    def hold():
        with no_grad():
            modes.append(tensor._grad_enabled)
            inside.set()
            release.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    inside.wait()
    try:
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * 2.0).sum().backward()
        modes.append(tensor._grad_enabled)
    finally:
        release.set()
        holder.join()
    assert modes == [False, True]
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_detach_breaks_graph_and_storage():
    x = Tensor([1.0, 2.0], requires_grad=True)
    d = (x * 2).detach()
    assert not d.requires_grad
    d.data[0] = 99.0
    assert x.data[0] == 1.0


def test_concat_roundtrip_gradient():
    a = Tensor([[1.0], [2.0]], requires_grad=True)
    b = Tensor([[3.0], [4.0]], requires_grad=True)
    (concat([a, b], axis=0) * Tensor([[1.0], [2.0], [3.0], [4.0]])).sum().backward()
    assert np.array_equal(a.grad, [[1.0], [2.0]])
    assert np.array_equal(b.grad, [[3.0], [4.0]])


_UNARY_OPS = {
    "log": (lambda t: t.log(), 0.05, 5.0),
    "exp": (lambda t: t.exp(), -2.0, 2.0),
    "sigmoid": (lambda t: t.sigmoid(), -5.0, 5.0),
    "softplus": (softplus, -5.0, 5.0),
    "gelu": (lambda t: t.gelu(), -4.0, 4.0),
    "sin": (lambda t: t.sin(), -3.0, 3.0),
    "cos": (lambda t: t.cos(), -3.0, 3.0),
    "neg": (neg, -3.0, 3.0),
    "recip": (lambda t: div(1.0, t), 0.2, 3.0),
    # inputs stay strictly inside the clip window so the kink is not sampled
    "clip": (lambda t: clip(t, -10.0, 10.0), -3.0, 3.0),
}


def test_clip_blocks_gradient_outside_window():
    x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
    clip(x, -1.0, 1.0).sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("name", sorted(_UNARY_OPS))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_unary_gradients_match_finite_differences(name, seed):
    op, lo, hi = _UNARY_OPS[name]
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(lo, hi, size=6), requires_grad=True)
    weights = Tensor(rng.normal(size=6))

    def f():
        return float((op(x) * weights).sum().data)

    (op(x) * weights).sum().backward()
    assert_grads_close(x.grad, numeric_grad(f, x), rtol=1e-6, atol=1e-8, label=name)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_binary_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    s = Tensor(rng.uniform(0.5, 2.0), requires_grad=True)  # scalar broadcast

    def expr():
        return ((a * b + div(a, b) - b) * s).sum()

    def f():
        return float(expr().data)

    expr().backward()
    for t, label in ((a, "a"), (b, "b"), (s, "scalar")):
        assert_grads_close(t.grad, numeric_grad(f, t), rtol=1e-6, atol=1e-8, label=label)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_reduction_and_shape_gradients(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 8)))

    def expr():
        flat = x.transpose(1, 0, 2).reshape(3, 8)
        return mean((flat * w).sum(axis=1)) + x.sum(axis=(0, 2), keepdims=True).sum()

    def f():
        return float(expr().data)

    expr().backward()
    assert_grads_close(x.grad, numeric_grad(f, x), rtol=1e-6, atol=1e-8, label="shape-ops")


# -- in-place elementwise kernels -----------------------------------------------
#
# Each against its one-expression form in conftest, bit for bit, on values
# that reach every branch of the arithmetic: signed zeros, infinities, NaN,
# subnormals, magnitudes up to 1e300, where x * x * x overflows, and near
# the largest float, where a regrouped product overflows too.

_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
            1e-300, 20.0, -20.0, 750.0, -750.0, 1e308, -1e308, np.finfo(np.float64).max]
_kernel_inputs = dict(
    x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5),
                 elements=st.floats(-40.0, 40.0) | st.floats(-1e300, 1e300) | st.sampled_from(_SPECIAL)),
    transposed=st.booleans())


def _same_array(got, want):
    """Same dtype, shape, values and memory order; the stride of a length-1
    axis does not place any element, so it is not compared."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert [stride for n, stride in zip(got.shape, got.strides) if n > 1] == \
        [stride for n, stride in zip(want.shape, want.strides) if n > 1]
    assert np.array_equal(got, want, equal_nan=True)


@given(**_kernel_inputs)
@settings(max_examples=300, deadline=None)
def test_stable_sigmoid_is_bitwise_its_reference(x, transposed):
    x = x.T if transposed else x
    with np.errstate(all="ignore"):
        _same_array(_stable_sigmoid(x), stable_sigmoid_ref(x))


@given(**_kernel_inputs)
@settings(max_examples=300, deadline=None)
def test_gelu_kernels_are_bitwise_their_references(x, transposed):
    x = x.T if transposed else x
    with np.errstate(all="ignore"):
        (out, t), (out_ref, t_ref) = gelu_parts(x), gelu_parts_ref(x)
        _same_array(out, out_ref)
        _same_array(t, t_ref)
        _same_array(gelu_slope(x, t), gelu_slope_ref(x, t_ref))


# -- fused nodes -------------------------------------------------------------
#
# Each fused node against the same expression built from elementary ops in
# the test (bit for bit, output and every input gradient) and against
# central finite differences. Widths are not powers of two, so the scale
# factors 1/n and hd^-1/2 round and a reordered product shows.


def _composed_linear(x, w, b, lora=None, scale=1.0):
    out = x @ w.transpose() + b
    if lora is not None:
        a, bb = lora
        out = out + (x @ a.transpose() @ bb.transpose()) * scale
    return out


def _composed_layer_norm(x, g, b):
    mu = mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = mean(xc * xc, axis=-1, keepdims=True)
    return div(xc, sqrt(var + 1e-5)) * g + b


def _composed_attention(q, k, v, heads):
    nq, d = q.shape
    nk = k.shape[0]
    hd = d // heads
    qh = q.reshape(nq, heads, hd).transpose(1, 0, 2)
    kh = k.reshape(nk, heads, hd).transpose(1, 0, 2)
    vh = v.reshape(nk, heads, hd).transpose(1, 0, 2)
    att = softmax(qh @ kh.transpose(0, 2, 1) * (hd**-0.5), axis=-1)
    return (att @ vh).transpose(1, 0, 2).reshape(nq, d)


def _composed_upstage(model, f, prefix):
    hh, ww, din = f.shape
    flat = f.reshape(hh * ww, din)
    parts = []
    for pos in ("00", "01", "10", "11"):
        part = (flat @ model.params[f"{prefix}.{pos}.w"].transpose() + model.params[f"{prefix}.{pos}.b"]).gelu()
        parts.append(part.reshape(hh, ww, 1, part.shape[1]))
    dout = parts[0].shape[3]
    merged = concat(parts, axis=2)
    return merged.reshape(hh, ww, 2, 2, dout).transpose(0, 2, 1, 3, 4).reshape(2 * hh, 2 * ww, dout)


def _leaves(rng, shapes, trainable):
    return [Tensor(rng.normal(size=shape), requires_grad=i in trainable) for i, shape in enumerate(shapes)]


def _weighted_loss(out, first, seed):
    """A fixed random weighting of the output, plus a second use of the
    first input made after the node, so that input's gradient already holds
    a value when the node's backward adds to it."""
    rng = np.random.default_rng(seed)
    return (out * Tensor(rng.normal(size=out.shape))).sum() + (first * Tensor(rng.normal(size=first.shape))).sum()


def _output_and_grads(build, leaves):
    for t in leaves:
        t.grad = None
    out = build()
    _weighted_loss(out, leaves[0], 99).backward()
    return out.data.copy(), [None if t.grad is None else t.grad.copy() for t in leaves]


def _assert_bitwise_equal(fused, composed, leaves):
    out_f, grads_f = _output_and_grads(fused, leaves)
    out_c, grads_c = _output_and_grads(composed, leaves)
    assert np.array_equal(out_f, out_c)
    for i, (gf, gc) in enumerate(zip(grads_f, grads_c)):
        assert (gf is None) == (gc is None), f"input {i}"
        assert gf is None or np.array_equal(gf, gc), f"input {i} gradient differs"


def _assert_grads_match_finite_differences(build, leaves):
    def f():
        return float(_weighted_loss(build(), leaves[0], 99).data)

    for t in leaves:
        t.grad = None
    _weighted_loss(build(), leaves[0], 99).backward()
    for i, t in enumerate(leaves):
        if t.requires_grad:
            assert_grads_close(t.grad, numeric_grad(f, t), rtol=1e-6, atol=1e-8, label=f"input {i}")
        else:
            assert t.grad is None


# (x, w, b, a, bb): which of them require a gradient
_LINEAR_CASES = {
    "all": {0, 1, 2, 3, 4},
    "frozen-input": {1, 2, 3, 4},
    "input-only": {0},
    "adapters-only": {3, 4},
    "adapter-b-only": {4},
}


def _linear_case(case, with_lora, seed):
    rng = np.random.default_rng(seed)
    leaves = _leaves(rng, [(5, 4), (3, 4), (3,), (2, 4), (3, 2)], _LINEAR_CASES[case])
    x, w, b, a, bb = leaves
    lora = (a, bb) if with_lora else None
    if not with_lora:
        leaves = leaves[:3]
    return leaves, (lambda: linear(x, w, b, lora, 0.5)), (lambda: _composed_linear(x, w, b, lora, 0.5))


@pytest.mark.parametrize("case, with_lora", [(case, with_lora) for case in _LINEAR_CASES for with_lora in (False, True)
                                              if with_lora or _LINEAR_CASES[case] & {0, 1, 2}])
def test_linear_is_bitwise_the_composed_graph(case, with_lora):
    leaves, fused, composed = _linear_case(case, with_lora, 11)
    _assert_bitwise_equal(fused, composed, leaves)


@pytest.mark.parametrize("with_lora", [False, True], ids=["base", "lora"])
@pytest.mark.parametrize("case", ["all", "frozen-input", "input-only"])
def test_linear_gradients_match_finite_differences(case, with_lora):
    leaves, fused, _ = _linear_case(case, with_lora, 12)
    _assert_grads_match_finite_differences(fused, leaves)


@pytest.mark.parametrize("trainable", [{0, 1, 2}, {0}, {1, 2}], ids=["all", "input-only", "affine-only"])
def test_layer_norm_is_bitwise_the_composed_graph(trainable):
    leaves = _leaves(np.random.default_rng(13), [(5, 6), (6,), (6,)], trainable)
    _assert_bitwise_equal(lambda: layer_norm(*leaves), lambda: _composed_layer_norm(*leaves), leaves)


@pytest.mark.parametrize("trainable", [{0, 1, 2}, {0}], ids=["all", "input-only"])
def test_layer_norm_is_bitwise_the_composed_graph_under_a_transposed_gradient(trainable):
    """The output read through a transpose, so that the gradient reaching
    the node is transposed, as the encoder's last one is under ``l_ifc``:
    its backward mixes that layout with its own. Rows of 11 are long enough
    for a row sum's order to depend on the layout."""
    leaves = _leaves(np.random.default_rng(13), [(5, 11), (11,), (11,)], trainable)
    _assert_bitwise_equal(lambda: layer_norm(*leaves).transpose(),
                          lambda: _composed_layer_norm(*leaves).transpose(), leaves)


def test_layer_norm_gradients_match_finite_differences():
    leaves = _leaves(np.random.default_rng(14), [(5, 6), (6,), (6,)], {0, 1, 2})
    _assert_grads_match_finite_differences(lambda: layer_norm(*leaves), leaves)


@pytest.mark.parametrize("trainable", [{0, 1, 2}, {2}, {0, 1}, {0}], ids=["all", "values-only", "scores-only", "query-only"])
@pytest.mark.parametrize("nq", [1, 3])
def test_attention_is_bitwise_the_composed_graph(nq, trainable):
    leaves = _leaves(np.random.default_rng(15), [(nq, 6), (5, 6), (5, 6)], trainable)
    _assert_bitwise_equal(lambda: attention(*leaves, 2), lambda: _composed_attention(*leaves, 2), leaves)


def test_attention_gradients_match_finite_differences():
    leaves = _leaves(np.random.default_rng(16), [(3, 6), (5, 6), (5, 6)], {0, 1, 2})
    _assert_grads_match_finite_differences(lambda: attention(*leaves, 2), leaves)


def _upstage_case(model, train_input, train_weights):
    prefix = "dec.up0"
    model.set_trainable(lambda name: train_weights and name.startswith(prefix + "."))
    f = Tensor(np.random.default_rng(17).normal(size=(2, 2, model.config.embed_dim)), requires_grad=train_input)
    weights = [model.params[f"{prefix}.{pos}.{kind}"] for pos in ("00", "01", "10", "11") for kind in "wb"]
    return [f] + weights, (lambda: model._upstage(f, prefix)), (lambda: _composed_upstage(model, f, prefix))


@pytest.mark.parametrize("train_input, train_weights", [(True, True), (True, False), (False, True)],
                         ids=["all", "input-only", "weights-only"])
def test_upstage_is_bitwise_the_composed_graph(model16, train_input, train_weights):
    leaves, fused, composed = _upstage_case(model16, train_input, train_weights)
    _assert_bitwise_equal(fused, composed, leaves)


def test_upstage_gradients_match_finite_differences(model16):
    leaves, fused, _ = _upstage_case(model16, True, True)
    _assert_grads_match_finite_differences(fused, leaves)


# -- fused loss nodes ----------------------------------------------------------


# A loss spreads its gradient over every pixel, about 1/n of the upstream
# gradient each. The cases scale the loss by n, so that each pixel's
# contribution is as large as the reuse term of _weighted_loss and a
# regrouped sum shows in the bits.


def _soft_dice_case(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0.0, 2.0, (12, 23)), requires_grad=True)
    target = rng.uniform(0.0, 1.0, (12, 23))
    return ([x], (lambda: losses.soft_dice_logits(x, target) * x.data.size),
            (lambda: soft_dice(x.sigmoid(), Tensor(target)) * x.data.size))


def _bce_case(seed, soft=False):
    """A binary mask, or soft labels: with binary labels only one of the two
    softplus branches reaches each pixel, so only soft labels show the order
    in which the branches' gradients land."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0.0, 2.0, (12, 23)), requires_grad=True)
    gt = rng.uniform(0.0, 1.0, (12, 23))
    if not soft:
        gt = gt < 0.4
    return [x], (lambda: losses.bce_with_logits(x, gt) * x.data.size), (lambda: bce_composed(x, gt) * x.data.size)


def _soft_bce_case(seed):
    return _bce_case(seed, soft=True)


@pytest.mark.parametrize("case", [_soft_dice_case, _bce_case, _soft_bce_case], ids=["soft_dice", "bce", "bce-soft-labels"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_loss_is_bitwise_the_composed_graph(case, seed):
    leaves, fused, composed = case(seed)
    _assert_bitwise_equal(fused, composed, leaves)


# (fused node, composed graph) of each loss on logits x and a probability map t
_LOSS_PAIRS = {
    "soft_dice": (losses.soft_dice_logits, lambda x, t: soft_dice(x.sigmoid(), Tensor(t))),
    "bce": (lambda x, t: losses.bce_with_logits(x, t < 0.4), lambda x, t: bce_composed(x, t < 0.4)),
    "bce-soft-labels": (losses.bce_with_logits, bce_composed),
    "entropy": (lambda x, t: losses.entropy_loss(x), lambda x, t: entropy_composed(x)),
}


@pytest.mark.parametrize("name, transposed", [(name, which) for name in _LOSS_PAIRS
                                              for which in ("logits", "target", "both")
                                              if name != "entropy" or which == "logits"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_loss_is_bitwise_the_composed_graph_when_one_operand_is_transposed(name, transposed, seed):
    """The logits, the target or both stored transposed, with the loss the
    logits' only use, so the node's gradient becomes the leaf's. Where a
    product mixes the two layouts, numpy picks the result's, and with it the
    order in which the loss's sum, or a later sum of the gradient, adds."""
    def stored(a, which):
        return np.ascontiguousarray(a.T).T if transposed in (which, "both") else a

    def loss_and_grad(fn):
        rng = np.random.default_rng(seed)
        x = Tensor(stored(rng.normal(0.0, 2.0, (12, 23)), "logits"), requires_grad=True)
        loss = fn(x, stored(rng.uniform(0.0, 1.0, (12, 23)), "target"))
        (loss * float(x.data.size)).backward()
        return loss.data, x.grad

    (loss, grad), (loss_ref, grad_ref) = (loss_and_grad(fn) for fn in _LOSS_PAIRS[name])
    _same_array(loss, loss_ref)
    _same_array(grad, grad_ref)


@pytest.mark.parametrize("case", [_soft_dice_case, _bce_case, _soft_bce_case], ids=["soft_dice", "bce", "bce-soft-labels"])
def test_fused_loss_gradients_match_finite_differences(case):
    leaves, fused, _ = case(5)
    _assert_grads_match_finite_differences(fused, leaves)


def test_fused_losses_are_one_node_each():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    for out in (losses.soft_dice_logits(x, np.full((2, 3), 0.5)),
                losses.bce_with_logits(x, np.ones((2, 3), dtype=bool))):
        assert out._parents == (x,)


def test_fused_losses_reject_shape_mismatch():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        losses.soft_dice_logits(x, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        losses.bce_with_logits(x, np.zeros(6, dtype=bool))


# -- optimizer ---------------------------------------------------------------


def _reference_adam_step(params, state, lr, weight_decay=0.0):
    """The per-tensor Adam that ``adam_step`` replaced: a loop over named
    tensors with per-name moments, rebinding each ``.data``."""
    state["step"] += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state["step"]
    c2 = 1.0 - b2 ** state["step"]
    for name, p in params.items():
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.data
        m = state["m"].get(name, np.zeros_like(p.data))
        v = state["v"].get(name, np.zeros_like(p.data))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state["m"][name] = m
        state["v"][name] = v
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.grad = None


_MIXED_SHAPES = {"w": (7, 5), "b": (7,), "cube": (3, 2, 4), "one": (1,), "u": (3, 4)}


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2], ids=["plain", "weight-decay"])
@pytest.mark.parametrize("reset_at", [None, 3], ids=["kept", "reset-before-step-3"])
def test_adam_step_is_bitwise_the_per_tensor_reference(weight_decay, reset_at):
    rng = np.random.default_rng(11)
    init = {name: rng.normal(size=shape) for name, shape in _MIXED_SHAPES.items()}
    group = ParamGroup({name: Tensor(a, requires_grad=True) for name, a in init.items()})
    ref = {name: Tensor(a, requires_grad=True) for name, a in init.items()}
    ref_state = {"step": 0, "m": {}, "v": {}}
    for step in range(5):
        if step == reset_at:  # what AdaptConfig.reset_optimizer does per image
            group.reset_moments()
            ref_state = {"step": 0, "m": {}, "v": {}}
        for name, shape in _MIXED_SHAPES.items():
            # large and tiny gradients, and exact zeros
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
            g[rng.uniform(size=shape) < 0.2] = 0.0
            group[name].grad = g.copy()
            ref[name].grad = g.copy()
        adam_step(group, lr=0.01, weight_decay=weight_decay)
        _reference_adam_step(ref, ref_state, lr=0.01, weight_decay=weight_decay)
        for name in _MIXED_SHAPES:
            assert np.array_equal(group[name].data, ref[name].data), f"step {step}: {name}"
            assert group[name].grad is None
        assert np.array_equal(group.m, np.concatenate([ref_state["m"][n].reshape(-1) for n in _MIXED_SHAPES]))
        assert np.array_equal(group.v, np.concatenate([ref_state["v"][n].reshape(-1) for n in _MIXED_SHAPES]))
    assert group.step == 5 - (reset_at or 0)


def test_param_group_lays_members_out_in_one_vector():
    a, b = Tensor(np.arange(6.0).reshape(2, 3)), Tensor([7.0, 8.0])
    group = ParamGroup({"a": a, "b": b})
    assert np.array_equal(group.flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    assert a.data.shape == (2, 3) and a.data.base is group.flat and b.data.base is group.flat
    group.flat[-1] = 9.0
    assert b.data[1] == 9.0


def test_adam_first_step_closed_form():
    p = Tensor([3.0], requires_grad=True)
    p.grad = np.array([1.0])
    adam_step(ParamGroup({"p": p}), lr=0.01)
    assert abs(float(p.data[0]) - (3.0 - 0.01)) <= 1e-9
    assert p.grad is None


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor([1.5, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    adam_step(ParamGroup({"p": p}), lr=0.1)
    assert np.array_equal(p.data, [1.5, -2.0])


def test_adam_two_groups_use_their_own_rates():
    fast = Tensor([0.0], requires_grad=True)
    slow = Tensor([0.0], requires_grad=True)
    fast.grad = np.array([1.0])
    slow.grad = np.array([1.0])
    adam_step(ParamGroup({"fast": fast}), lr=0.01)
    adam_step(ParamGroup({"slow": slow}), lr=0.001)
    assert abs(float(fast.data[0]) + 0.01) <= 1e-9
    assert abs(float(slow.data[0]) + 0.001) <= 1e-9


def _two_member_group():
    group = ParamGroup({"p": Tensor([1.0, 2.0], requires_grad=True), "q": Tensor([3.0], requires_grad=True)})
    group["p"].grad = np.array([1.0, 1.0])
    group["q"].grad = np.array([1.0])
    return group


def test_adam_missing_gradient_rejected():
    group = _two_member_group()
    group["q"].grad = None
    with pytest.raises(ValueError, match="'q' has no gradient"):
        adam_step(group, lr=0.01)
    assert np.array_equal(group.flat, [1.0, 2.0, 3.0]) and group.step == 0


def test_adam_rebound_member_rejected_by_name():
    group = _two_member_group()
    group["p"].data = group["p"].data + 0.0  # a copy, no longer the group's view
    with pytest.raises(ValueError, match="'p' is not a view of its group's vector"):
        adam_step(group, lr=0.01)
    assert np.array_equal(group.flat, [1.0, 2.0, 3.0]) and group.step == 0


def test_adam_weight_decay_is_coupled_l2():
    p = Tensor([2.0], requires_grad=True)
    p.grad = np.array([0.0])
    adam_step(ParamGroup({"p": p}), lr=0.01, weight_decay=0.5)
    # effective gradient 0.5*2=1 on the first step -> bias-corrected unit step
    assert abs(float(p.data[0]) - (2.0 - 0.01)) <= 1e-9


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's mallopt")
def test_allocator_policy_applied_on_glibc():
    assert ttaseg.MALLOPT_RESULTS == (1, 1, 1)


_TURNS_SCRIPT = """
import resource
import threading

import numpy as np

import ttaseg  # noqa: F401  (applies the allocator policy)

WORKERS, ROUNDS = 4, 3
cond = threading.Condition()
holder = [0]


def work(k):
    for _ in range(ROUNDS):
        with cond:
            cond.wait_for(lambda: holder[0] == k)
        arrays = [np.ones(2**15) for _ in range(64)]  # 64 x 256 KiB = 16 MiB
        del arrays
        with cond:
            holder[0] = (k + 1) % WORKERS
            cond.notify_all()


before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
threads = [threading.Thread(target=work, args=(k,)) for k in range(WORKERS)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's mallopt")
def test_threads_taking_turns_share_one_arena():
    """Four live threads take turns allocating and freeing 16 MiB: with one
    arena the peak grows by about 16 MiB, with one arena each by 64."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", _TURNS_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert float(out.stdout) <= 24.0


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert isinstance(as_tensor(2.5), Tensor)


# -- gradient ownership ----------------------------------------------------------


def _copying_accum_owned(self, g):
    """The reference for ``Tensor._accum_owned``: every first gradient is
    copied, as ``Tensor._accum`` does."""
    self._accum(g)


def _recorded(monkeypatch, run):
    """Run ``run()`` and return every tape node it built."""
    created = []
    node = Tensor._node.__func__

    def recording(cls, *args):
        t = node(cls, *args)
        created.append(t)
        return t

    with monkeypatch.context() as m:
        m.setattr(Tensor, "_node", classmethod(recording))
        run()
    return created


def _sam_tta_step(monkeypatch):
    """One ``sam-tta`` image: the trained tensors' gradients as ``adam_step``
    receives them, and every tape node."""
    engine = adapt.AdaptEngine(SegModel.build(ModelConfig(), seed=5),
                               adapt.AdaptConfig(strategy="sam-tta", seed=0))
    grads = []
    step = adapt.adam_step

    def recording_step(group, lr, weight_decay=0.0):
        grads.extend((name, p.grad) for name, p in group.items())
        step(group, lr, weight_decay)

    sample = synthdata.gen_target(3, 1, "mri-like")[0]
    with monkeypatch.context() as m:
        m.setattr(adapt, "adam_step", recording_step)
        nodes = _recorded(m, lambda: engine.process(sample))
    assert grads and not engine.skipped
    return grads, nodes


def _pretrain_step(monkeypatch):
    """One pretraining sample's backward: every weight's gradient, and
    every tape node."""
    model = SegModel.build(ModelConfig(), seed=5)
    for p in model.params.values():
        p.requires_grad = True
    sample = synthdata.gen_source(4, 1)[0]
    nodes = _recorded(monkeypatch, lambda: sample_loss(model, sample)[0].backward())
    return [(name, p.grad) for name, p in model.params.items()], nodes


def _x34():
    return Tensor(np.random.default_rng(8).normal(size=(3, 4)), requires_grad=True)


def _graph_step(build):
    def step(monkeypatch):
        x = _x34()
        nodes = _recorded(monkeypatch, lambda: build(x).backward())
        return [("x", x.grad)], nodes
    return step


_W34 = np.arange(1.0, 13.0).reshape(3, 4)
_STEPS = {
    "sam-tta": _sam_tta_step,
    "pretrain": _pretrain_step,
    "x+x": _graph_step(lambda x: ((x + x) * _W34).sum()),
    "x-x": _graph_step(lambda x: ((x - x) * _W34 + x * x).sum()),
    "concat": _graph_step(lambda x: (concat([x, x]) * np.vstack([_W34, -_W34 * 0.5])).sum()),
    "reshape-transpose": _graph_step(
        lambda x: (x.transpose().reshape(2, 6).transpose().reshape(3, 4) * _W34).sum()),
    "transpose-matmul": _graph_step(lambda x: (x @ x.transpose()).sum() + (x * x).sum()),
}


@pytest.mark.parametrize("name", sorted(_STEPS))
def test_owned_gradients_are_bitwise_the_copies_and_never_shared(monkeypatch, name):
    """Adopting fresh first gradients changes no bit of any gradient, leaf
    or node, and after ``backward`` no two tensors' gradients share memory."""
    leaves, nodes = _STEPS[name](monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "_accum_owned", _copying_accum_owned)
        ref_leaves, ref_nodes = _STEPS[name](m)
    got = leaves + [(t._op, t.grad) for t in nodes]
    want = ref_leaves + [(t._op, t.grad) for t in ref_nodes]
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, a), (_, b) in zip(got, want):
        if b is None:
            assert a is None, key
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), key
    grads = [np.asarray(g) for _, g in got if g is not None]
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)
