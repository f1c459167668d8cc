"""Training and adaptation objectives.

The test-time objective is a confidence term (one minus the model's own
IoU estimate), a dual-resolution soft-Dice consistency term against an
EMA teacher weighted by the stream-normalized confidence, and a
channel-wise spatial-KL feature consistency term whose temperature is the
IoU estimate itself. The consistency weight and the temperature are
treated as detached scalars: they steer the loss but receive no gradient.
The baselines' objectives are sums of the same terms, or TENT's entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import binary_iou
from .model import SegOutputs, tokens_to_grid
from .tensor import Tensor, _stable_sigmoid, log_softmax

EPSILON = 1e-6


@dataclass
class LossBreakdown:
    l_icm: float
    l_dpc: float
    l_ifc: float
    lambda_dpc: float
    total: float


def confidence_stat(s_iou: float) -> float:
    """-log(1 - S_IoU + EPSILON): positive exactly when S_IoU > EPSILON,
    except within a few 1e-17 above it, where the argument rounds to 1."""
    return -math.log(1.0 - s_iou + EPSILON)


class RunningMax:
    """Nondecreasing maximum of the confidence statistic over the stream."""

    def __init__(self):
        self.m = 0.0
        self.count = 0

    def update(self, s_iou: float):
        if not math.isfinite(s_iou):
            raise ValueError(f"RunningMax.update: non-finite confidence {s_iou}")
        self.m = max(self.m, confidence_stat(s_iou))
        self.count += 1


def lambda_dpc(s_iou: float, running_max: RunningMax) -> float:
    """Per-image consistency weight in (0, 1], normalized by the stream maximum.

    The running max must already include the current sample, which makes
    the first image's weight exactly 1. A confidence whose statistic is not
    positive (S_IoU <= EPSILON) has no weight in (0, 1] and is refused.
    """
    if running_max.count == 0:
        raise ValueError("lambda_dpc: running max was never updated")
    stat = confidence_stat(s_iou)
    if stat <= 0.0 or running_max.m <= 0.0:
        raise ValueError(f"lambda_dpc: confidence {s_iou!r} (stream max statistic "
                         f"{running_max.m!r}) is at or below EPSILON, so the weight "
                         f"is not in (0, 1]")
    return stat / running_max.m


def l_icm(s_iou: Tensor) -> Tensor:
    """Confidence maximization: 1 - S_IoU."""
    return 1.0 - s_iou


# Each fused loss node in this module replaces a composite subgraph with one
# tape node, as tensor.linear does: forward and backward run the composed
# graph's numpy operations in its order, so the loss and every gradient are
# bit-identical to the composition they name.


def soft_dice_logits(logits: Tensor, target: np.ndarray) -> Tensor:
    """The soft Dice loss ``1 - (2*sum(a*t)+eps)/(sum(a)+sum(t)+eps)`` of
    ``a = sigmoid(logits)`` against a constant probability map ``t``, as one node."""
    if logits.shape != target.shape:
        raise ValueError(f"soft_dice_logits: shape mismatch {logits.shape} vs {target.shape}")
    a = _stable_sigmoid(logits.data)
    num = 2.0 * (a * target).sum() + EPSILON
    den = a.sum() + target.sum() + EPSILON

    def bw(g):
        gq = -g
        gnum = gq / den
        gden = -gq * num / (den * den)
        # sum(a) is the later use of a, so its gradient lands first; it is
        # C-ordered, as the composed sum's broadcast copy, whatever the
        # target's layout
        ga = np.multiply(gnum * 2.0, target, out=np.empty(target.shape))
        ga += gden
        part = ga * a
        part *= np.subtract(1.0, a, out=ga)
        logits._accum_owned(part)

    return Tensor._node(1.0 - num / den, (logits,), bw, "soft_dice")


def l_dpc(student: SegOutputs, teacher: SegOutputs) -> Tensor:
    """Dual-resolution prediction consistency; the teacher side is detached."""
    if student.m_high.shape != teacher.m_high.shape or student.m_low.shape != teacher.m_low.shape:
        raise ValueError("l_dpc: student/teacher resolution mismatch")
    return (soft_dice_logits(student.m_high, _stable_sigmoid(teacher.m_high.data))
            + soft_dice_logits(student.m_low, _stable_sigmoid(teacher.m_low.data)))


def l_ifc(z_student: Tensor, z_teacher: Tensor, s_iou: float) -> Tensor:
    """Channel-wise spatial softmax KL(teacher || student), temperature = S_IoU.

    Inputs are (D, H, W) feature grids; each channel is normalized over
    its spatial positions independently and the divergence is averaged
    over all D*H*W entries.
    """
    if z_student.shape != z_teacher.shape:
        raise ValueError(f"l_ifc: shape mismatch {z_student.shape} vs {z_teacher.shape}")
    d, h, w = z_student.shape
    tau = float(s_iou) + EPSILON
    logp_s = log_softmax(z_student.reshape(d, h * w), axis=1, temperature=tau)
    logp_t = log_softmax(z_teacher.detach().reshape(d, h * w), axis=1, temperature=tau)
    p_t = logp_t.exp()
    return (p_t * (logp_t - logp_s)).sum() * (1.0 / (d * h * w))


PAPER_OBJECTIVE = ("icm", "lambda_dpc", "ifc")


def total_tta_loss(student: SegOutputs, teacher: SegOutputs | None, running_max: RunningMax,
                   terms: tuple = PAPER_OBJECTIVE):
    """One adaptation objective, the sum of ``terms`` in order; returns the
    loss tensor and a float breakdown.

    Terms are "entropy", "icm", "dpc", "lambda_dpc" (l_dpc weighted by
    lambda_dpc) and "ifc". The breakdown always logs l_icm as 1 - S_IoU. It
    logs 0.0 for an l_dpc or l_ifc the objective leaves out, and for lambda
    unless the objective weights l_dpc by it. With "lambda_dpc" the caller
    updates ``running_max`` with the current sample first.
    """
    s_val = float(student.s_iou.data)
    weight = lambda_dpc(s_val, running_max) if "lambda_dpc" in terms else 0.0
    logged = {"l_icm": 1.0 - s_val, "l_dpc": 0.0, "l_ifc": 0.0}
    total = None
    for term in terms:
        if term == "entropy":
            part = entropy_loss(student.m_high)
        elif term == "icm":
            part = l_icm(student.s_iou)
        elif term == "ifc":
            part = l_ifc(tokens_to_grid(student.z), tokens_to_grid(teacher.z), s_val)
            logged["l_ifc"] = float(part.data)
        elif term in ("dpc", "lambda_dpc"):
            part = l_dpc(student, teacher)
            logged["l_dpc"] = float(part.data)
            if term == "lambda_dpc":
                part = weight * part
        else:
            raise ValueError(f"total_tta_loss: unknown term {term!r}")
        total = part if total is None else total + part
    return total, LossBreakdown(**logged, lambda_dpc=weight, total=float(total.data))


# -- pretraining and baseline objectives -------------------------------------


def iou_head_loss(s_iou: Tensor, m_high: Tensor, gt: np.ndarray) -> Tensor:
    """Squared error between the IoU estimate and the true IoU of the
    binarized fine mask; the target is a detached constant."""
    if m_high.shape != gt.shape:
        raise ValueError(f"iou_head_loss: shape mismatch {m_high.shape} vs {gt.shape}")
    d = s_iou - binary_iou(m_high.data > 0.0, gt.astype(bool))
    return d * d


def bce_with_logits(logits: Tensor, gt: np.ndarray) -> Tensor:
    """Stable binary cross-entropy, mean over pixels, as one node:
    ``(y * softplus(-x) + (1 - y) * softplus(x)).mean()``."""
    if logits.shape != gt.shape:
        raise ValueError(f"bce_with_logits: shape mismatch {logits.shape} vs {gt.shape}")
    x = logits.data
    inv_n = 1.0 / float(x.size)
    # y and 1 - y are made again by the backward rather than held
    y = gt.astype(np.float64)
    soft = -x
    np.logaddexp(0.0, soft, out=soft)
    terms = y * soft
    np.logaddexp(0.0, x, out=soft)
    soft *= np.subtract(1.0, y, out=y)
    terms += soft
    total = terms.sum() * inv_n

    def bw(g):
        gsum = g * inv_n
        # the softplus(x) branch was built last, so it lands first; the
        # composed mean's gradient is C-ordered, so these are too
        y = gt.astype(np.float64, order="C")
        part = 1.0 - y
        np.multiply(gsum, part, out=part)
        logits._accum_owned(part * _stable_sigmoid(x))
        np.multiply(gsum, y, out=y)
        part = y * _stable_sigmoid(-x)
        logits._accum_owned(np.negative(part, out=part))

    return Tensor._node(total, (logits,), bw, "bce")


def entropy_loss(m_high: Tensor) -> Tensor:
    """Mean binary entropy of the fine-mask probabilities (TENT objective) as one
    node: ``-(p * log(p) + (1 - p) * log(1 - p)).mean()``, ``p`` the sigmoid clipped to [EPSILON, 1 - EPSILON]."""
    s = _stable_sigmoid(m_high.data)
    p = np.clip(s, EPSILON, 1.0 - EPSILON)
    q = 1.0 - p
    lp, lq = np.log(p), np.log(q)
    inv_n = 1.0 / float(p.size)
    terms = p * lp
    terms += q * lq

    def bw(g):
        # every pixel's share of the mean; the gradient is C-ordered whatever
        # the layout of the input
        gsum = -g * inv_n
        gp = np.full(p.shape, gsum)
        # p reaches the sum four times; the later uses land first: log(1 - p),
        # 1 - p as a factor, log(p), p as a factor
        gp *= q
        gp /= q
        np.negative(gp, out=gp)
        term = gsum * lq
        gp -= term
        np.multiply(gsum, lp, out=term)
        gp += term
        np.multiply(gsum, p, out=term)
        term /= p
        gp += term
        gp *= (s >= EPSILON) & (s <= 1.0 - EPSILON)
        gp *= s
        gp *= np.subtract(1.0, s, out=term)
        m_high._accum_owned(gp)

    return Tensor._node(-(terms.sum() * inv_n), (m_high,), bw, "entropy")
