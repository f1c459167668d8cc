import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_same_loss_and_grads, entropy_composed, loss_and_grads, soft_dice, softmax
from fdcheck import assert_grads_close, numeric_grad
from ttaseg.losses import (EPSILON, LossBreakdown, RunningMax, bce_with_logits, confidence_stat,
                           entropy_loss, iou_head_loss, l_dpc, l_icm, l_ifc, lambda_dpc, total_tta_loss)
from ttaseg.metrics import binary_iou
from ttaseg.model import SegOutputs, tokens_to_grid
from ttaseg.synthdata import BoxPrompt
from ttaseg.tensor import Tensor, no_grad


def make_outputs(rng, scale=1.0, low=4, high=8, s_logit=0.0, tokens=4, dim=4,
                 saturated=False):
    def logits(side):
        raw = rng.normal(size=(side, side))
        return 20.0 * np.sign(raw) if saturated else scale * raw

    return SegOutputs(
        m_low=Tensor(logits(low)),
        m_high=Tensor(logits(high)),
        s_iou=Tensor(s_logit).sigmoid(),
        z=Tensor(rng.normal(size=(tokens, dim))),
    )


# -- iou head target -----------------------------------------------------------


def test_iou_head_loss_zero_when_estimate_exact():
    m = Tensor(np.array([[5.0, 5.0], [-5.0, -5.0]]))
    gt = np.array([[True, True], [False, False]])
    assert float(iou_head_loss(Tensor(1.0), m, gt).data) == 0.0


def test_iou_head_loss_maximal_miss():
    m = Tensor(np.array([[5.0, -5.0]]))
    gt = np.array([[False, True]])  # true IoU 0
    assert float(iou_head_loss(Tensor(1.0), m, gt).data) == 1.0


def test_iou_head_loss_is_bitwise_the_numpy_square():
    """Value d*d, and the gradient g*d + g*d that the two uses of d send
    back to the IoU estimate (doubling is exact, so it equals g*(2d))."""
    rng = np.random.default_rng(8)
    m = Tensor(rng.normal(size=(6, 6)))
    gt = rng.uniform(size=(6, 6)) < 0.4
    s_iou = Tensor(0.7318, requires_grad=True)
    d = s_iou.data - binary_iou(m.data > 0.0, gt)
    loss = iou_head_loss(s_iou, m, gt) * 0.37
    loss.backward()
    g = np.float64(0.37)
    assert loss.data == d * d * g
    assert s_iou.grad == g * d + g * d
    assert s_iou.grad == g * (2.0 * d)


def test_iou_head_loss_hand_case():
    # prediction {(0,0),(0,1)}, gt {(0,1),(1,1)} -> IoU 1/3
    m = Tensor(np.array([[1.0, 1.0], [-1.0, -1.0]]))
    gt = np.array([[False, True], [False, True]])
    got = float(iou_head_loss(Tensor(0.5), m, gt).data)
    assert abs(got - (0.5 - 1.0 / 3.0) ** 2) <= 1e-12
    assert abs(got - 0.027778) <= 1e-5


# -- confidence term -------------------------------------------------------------


def test_l_icm_values():
    assert float(l_icm(Tensor(1.0)).data) == 0.0
    assert abs(float(l_icm(Tensor(0.8)).data) - 0.2) <= 1e-15


def test_l_icm_gradient_matches_finite_differences():
    logit = Tensor(0.3, requires_grad=True)
    l_icm(logit.sigmoid()).backward()

    def f():
        return 1.0 - 1.0 / (1.0 + math.exp(-float(logit.data)))

    assert_grads_close(logit.grad, numeric_grad(f, logit), rtol=1e-6, atol=1e-10)


# -- soft dice -------------------------------------------------------------------


def test_soft_dice_identical_binary_masks():
    a = Tensor(np.array([1.0, 1.0, 0.0, 0.0]))
    assert float(soft_dice(a, a).data) <= 1e-6


def test_soft_dice_both_empty_is_exactly_zero():
    z = Tensor(np.zeros(6))
    assert float(soft_dice(z, z).data) == 0.0


def test_soft_dice_hand_case():
    a = Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]))
    b = Tensor(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert abs(float(soft_dice(a, b).data) - 0.5) <= 1e-6


def test_soft_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        soft_dice(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# -- dual-scale consistency -------------------------------------------------------


def test_l_dpc_zero_for_identical_confident_outputs():
    rng = np.random.default_rng(0)
    out = make_outputs(rng, saturated=True)
    assert float(l_dpc(out, out).data) <= 1e-6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_l_dpc_bounded(seed):
    rng = np.random.default_rng(seed)
    val = float(l_dpc(make_outputs(rng), make_outputs(rng)).data)
    assert 0.0 <= val <= 2.0


def test_l_dpc_teacher_receives_no_gradient():
    rng = np.random.default_rng(1)
    student_low = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    student_high = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    teacher_low = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    teacher_high = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    student = SegOutputs(student_low, student_high, Tensor(0.5), Tensor(np.zeros((4, 4))))
    teacher = SegOutputs(teacher_low, teacher_high, Tensor(0.5), Tensor(np.zeros((4, 4))))
    l_dpc(student, teacher).backward()
    assert student_low.grad is not None and student_high.grad is not None
    assert teacher_low.grad is None and teacher_high.grad is None


def test_l_dpc_is_bitwise_the_composed_graph(model16):
    """The fused soft-Dice nodes give the loss and every weight gradient of
    the composed graph, through the shared decoder."""
    rng = np.random.default_rng(4)
    box = BoxPrompt(2.0, 2.0, 14.0, 14.0)
    x_student, x_teacher = rng.uniform(0.0, 1.0, (2, 3, 16, 16))
    with no_grad():
        teacher = model16.forward(x_teacher, box)

    def composed(s, t):
        return (soft_dice(s.m_high.sigmoid(), t.m_high.detach().sigmoid())
                + soft_dice(s.m_low.sigmoid(), t.m_low.detach().sigmoid()))

    fused, reference = (loss_and_grads(model16, lambda: fn(model16.forward(x_student, box), teacher) * 0.7)
                        for fn in (l_dpc, composed))
    assert_same_loss_and_grads(fused, reference)


def test_l_dpc_resolution_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="resolution"):
        l_dpc(make_outputs(rng, low=4), make_outputs(rng, low=8, high=8))


# -- stream-normalized weight ------------------------------------------------------


def test_lambda_first_sample_is_one():
    rm = RunningMax()
    rm.update(0.37)
    assert lambda_dpc(0.37, rm) == 1.0


def test_lambda_at_historical_max_is_one():
    rm = RunningMax()
    for s in (0.9, 0.4, 0.7):
        rm.update(s)
    assert lambda_dpc(0.9, rm) == 1.0


def test_lambda_hand_value_log2_over_log10():
    rm = RunningMax()
    rm.update(0.9)
    rm.update(0.5)
    got = lambda_dpc(0.5, rm)
    want = (-math.log(1.0 - 0.5 + EPSILON)) / (-math.log(1.0 - 0.9 + EPSILON))
    assert got == want
    assert abs(got - math.log(2.0) / math.log(10.0)) <= 1e-6


def test_lambda_monotone_in_confidence():
    rm = RunningMax()
    rm.update(0.95)
    values = [lambda_dpc(s, rm) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lambda_requires_prior_update():
    with pytest.raises(ValueError, match="never updated"):
        lambda_dpc(0.5, RunningMax())


def test_lambda_rejects_confidence_at_or_below_epsilon():
    # every confidence so far <= EPSILON leaves the running max at 0
    rm = RunningMax()
    rm.update(5e-7)
    with pytest.raises(ValueError, match="EPSILON"):
        lambda_dpc(5e-7, rm)
    # a positive running max, but this image's statistic is negative
    rm = RunningMax()
    rm.update(0.5)
    with pytest.raises(ValueError, match="EPSILON"):
        lambda_dpc(1e-7, rm)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(EPSILON, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                max_size=12))
def test_lambda_in_unit_interval_for_any_history(history):
    """Each confidence in (EPSILON, 1) gets a weight in (0, 1]. Within a few
    1e-17 of EPSILON, 1 - s + EPSILON rounds to 1 and the statistic to 0;
    those are the images the engine skips, and lambda_dpc refuses them."""
    rm = RunningMax()
    kept = []
    for s in history:
        if confidence_stat(s) <= 0.0:
            assert s < EPSILON + 1e-15
            with pytest.raises(ValueError):
                lambda_dpc(s, rm)
            continue
        rm.update(s)
        kept.append(s)
        assert 0.0 < lambda_dpc(s, rm) <= 1.0
    for s in kept:
        assert 0.0 < lambda_dpc(s, rm) <= 1.0


def test_running_max_nondecreasing_and_finite_guard():
    rm = RunningMax()
    last = 0.0
    for s in (0.2, 0.9, 0.1, 0.5):
        rm.update(s)
        assert rm.m >= last
        last = rm.m
    with pytest.raises(ValueError, match="non-finite"):
        rm.update(float("nan"))


# -- feature consistency -----------------------------------------------------------


def test_l_ifc_zero_for_identical_features():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(4, 3, 3)))
    assert float(l_ifc(z, z, 0.5).data) == 0.0


@given(seed=st.integers(0, 10_000), s_iou=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_l_ifc_nonnegative(seed, s_iou):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 2, 4)))
    b = Tensor(rng.normal(size=(3, 2, 4)))
    assert float(l_ifc(a, b, s_iou).data) >= 0.0


def test_l_ifc_hand_value():
    z_t = Tensor(np.array([0.0, math.log(3.0)]).reshape(1, 1, 2))
    z_s = Tensor(np.zeros((1, 1, 2)))
    got = float(l_ifc(z_s, z_t, 1.0 - EPSILON).data)
    want = (0.25 * math.log(0.5) + 0.75 * math.log(1.5)) / 2.0
    assert abs(got - want) <= 1e-9
    assert abs(got - 0.06540) <= 1e-5


def test_l_ifc_channelwise_normalization():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(5, 12))
    p = softmax(Tensor(z), axis=1, temperature=0.5 + EPSILON)
    assert np.all(np.abs(p.data.sum(axis=1) - 1.0) <= 1e-12)


def test_l_ifc_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    z_s = Tensor(rng.normal(size=(2, 2, 2)), requires_grad=True)
    z_t = Tensor(rng.normal(size=(2, 2, 2)))
    l_ifc(z_s, z_t, 0.6).backward()

    def f():
        return float(l_ifc(Tensor(z_s.data), z_t, 0.6).data)

    assert_grads_close(z_s.grad, numeric_grad(f, z_s), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("s_iou", [0.3, 0.95])
def test_l_ifc_gradient_through_the_token_grid_matches_finite_differences(s_iou):
    """Through ``tokens_to_grid``, as the engine calls it, on a non-square
    channel count and other temperatures."""
    rng = np.random.default_rng(12)
    tokens = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    z_t = tokens_to_grid(Tensor(rng.normal(size=(9, 3))))
    l_ifc(tokens_to_grid(tokens), z_t, s_iou).backward()

    def f():
        return float(l_ifc(tokens_to_grid(Tensor(tokens.data)), z_t, s_iou).data)

    assert_grads_close(tokens.grad, numeric_grad(f, tokens), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("side", ["student", "teacher"])
def test_l_ifc_nan_feature_gives_nan_loss(side):
    """A NaN anywhere in z makes the loss NaN, which the engine's
    non-finite-loss check turns into a skipped image."""
    rng = np.random.default_rng(10)
    student, teacher = rng.normal(size=(2, 3, 2, 2))
    (student if side == "student" else teacher)[1, 0, 1] = np.nan
    assert np.isnan(float(l_ifc(Tensor(student, requires_grad=True), Tensor(teacher), 0.4).data))


def test_l_ifc_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        l_ifc(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2, 3))), 0.5)


# -- combined objective ------------------------------------------------------------


def test_total_vanishes_for_confident_identical_pair():
    rng = np.random.default_rng(6)
    out = make_outputs(rng, saturated=True, s_logit=14.0)
    rm = RunningMax()
    rm.update(float(out.s_iou.data))
    total, bd = total_tta_loss(out, out, rm)
    assert float(total.data) <= 1e-5
    assert bd.l_ifc == 0.0


def test_breakdown_identity_and_weight_range():
    rng = np.random.default_rng(7)
    rm = RunningMax()
    rm.update(0.9)
    for trial in range(5):
        student = make_outputs(rng, s_logit=rng.normal())
        teacher = make_outputs(rng)
        rm.update(float(student.s_iou.data))
        total, bd = total_tta_loss(student, teacher, rm)
        recomputed = bd.l_icm + bd.lambda_dpc * bd.l_dpc + 1.0 * bd.l_ifc
        assert abs(bd.total - recomputed) <= 1e-12
        assert abs(float(total.data) - bd.total) == 0.0
        assert 0.0 < bd.lambda_dpc <= 1.0


def test_breakdown_fields():
    bd = LossBreakdown(0.1, 0.2, 0.3, 0.5, 0.55)
    assert bd.total == 0.55


# -- baselines and pretraining losses ----------------------------------------------


def test_entropy_all_zero_logits_is_ln2():
    assert abs(float(entropy_loss(Tensor(np.zeros((3, 3)))).data) - math.log(2.0)) <= 1e-12


def test_entropy_saturated_logits_near_zero():
    # the epsilon clamp floors the entropy at ~1.5e-5
    assert float(entropy_loss(Tensor(np.full((2, 2), 20.0))).data) <= 1e-4
    assert float(entropy_loss(Tensor(np.full((2, 2), -20.0))).data) <= 1e-4


def test_entropy_hand_value_at_three_quarters():
    logit = math.log(3.0)  # sigmoid -> 0.75
    want = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    got = float(entropy_loss(Tensor(np.full((4, 4), logit))).data)
    assert abs(got - want) <= 1e-9
    assert abs(got - 0.5623) <= 1e-4


def test_bce_matches_reference_formula():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(3, 3))
    gt = rng.uniform(size=(3, 3)) < 0.5
    p = 1.0 / (1.0 + np.exp(-logits))
    want = -np.mean(gt * np.log(p) + (~gt) * np.log(1.0 - p))
    assert abs(float(bce_with_logits(Tensor(logits), gt).data) - want) <= 1e-9


def _nodes_built(monkeypatch, build):
    """The ops of the tape nodes ``build()`` creates."""
    made = []
    node = Tensor._node.__func__

    def counted(cls, data, parents, backward, op):
        made.append(op)
        return node(cls, data, parents, backward, op)

    monkeypatch.setattr(Tensor, "_node", classmethod(counted))
    build()
    return made


def test_entropy_is_one_node(monkeypatch):
    m_high = Tensor(np.random.default_rng(9).normal(size=(4, 4)), requires_grad=True)
    assert _nodes_built(monkeypatch, lambda: entropy_loss(m_high)) == ["entropy"]


def _loss_and_input_grad(fn, x, transposed, weight_seed):
    """``fn``'s loss on a leaf holding ``x`` (or on its transposed view), and
    the leaf's gradient. The loss is scaled by a drawn weight, so the node's
    backward starts from an arbitrary gradient, and the leaf has a second use
    (through a sigmoid, finite at ±inf) made after the node, so the node's
    gradient lands on an already-written ``grad`` through the view."""
    leaf = Tensor(x, requires_grad=True)
    loss = fn(leaf.transpose() if transposed else leaf)
    rng = np.random.default_rng(weight_seed)
    (loss * rng.uniform(0.1, 3.0) + (leaf.sigmoid() * Tensor(rng.normal(size=leaf.shape))).sum()).backward()
    return loss.data, leaf.grad


# logit where sigmoid reaches the clip bound 1 - EPSILON; beyond it the
# entropy's gradient is exactly 0
_CLIP_LOGIT = math.log((1.0 - EPSILON) / EPSILON)


@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=st.floats(-40.0, 40.0) | st.sampled_from(
                        [np.inf, -np.inf, _CLIP_LOGIT, -_CLIP_LOGIT, 13.8, -13.8, 13.9, -13.9])),
       transposed=st.booleans(), weight_seed=st.integers(0, 1000))
@settings(max_examples=150, deadline=None)
def test_entropy_is_bitwise_the_composed_graph(x, transposed, weight_seed):
    """Logits inside and beyond the clip window and at ±inf, on a C-ordered
    map or a transposed view of one."""
    fused, composed = (_loss_and_input_grad(fn, x, transposed, weight_seed)
                       for fn in (entropy_loss, entropy_composed))
    assert np.isfinite(fused[0])
    for got, want in zip(fused, composed):
        assert np.array_equal(got, want, equal_nan=True)


def test_entropy_gradient_vanishes_beyond_the_clip_window():
    x = Tensor(np.array([[-np.inf, -14.0, -13.0, 0.5], [13.0, 14.0, np.inf, 13.9]]), requires_grad=True)
    entropy_loss(x).backward()
    outside = np.abs(x.data) > _CLIP_LOGIT
    assert np.all(x.grad[outside] == 0.0)
    assert np.all(x.grad[~outside] != 0.0)


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-5.0, 5.0, size=(3, 4)), requires_grad=True)
    entropy_loss(x).backward()

    def f():
        return float(entropy_loss(Tensor(x.data)).data)

    assert_grads_close(x.grad, numeric_grad(f, x), rtol=1e-6, atol=1e-10)
