"""Supervised source-domain pretraining of the toy segmenter.

Trains every weight (no adapters at this stage) on synthetic color scenes
with oracle box prompts: soft Dice plus BCE on the fine mask, soft Dice on
the coarse mask against a box-averaged target, and a squared-error term
teaching the IoU head to predict the true IoU of its own binarized output.
The best-validation parameters are what gets checkpointed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import adapt, losses, metrics, synthdata
from .model import ModelConfig, SegModel, save_checkpoint
from .tensor import ParamGroup, adam_step

# fixed offset separating the held-out validation stream from training data
VAL_SEED_OFFSET = 500_009


@dataclass
class PretrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    seed: int = 0
    n_train: int = 2000
    n_val: int = 200

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("PretrainConfig: epochs must be at least 1")
        if self.n_val <= 0:
            raise ValueError("PretrainConfig: n_val must be positive")
        if self.n_train <= 0:
            raise ValueError("PretrainConfig: n_train must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"PretrainConfig: lr must be a positive finite number, got {self.lr!r}")
        if self.seed < 0:
            raise ValueError(f"PretrainConfig: seed must not be negative, got {self.seed}")


def downsample_mask(gt: np.ndarray, factor: int) -> np.ndarray:
    """Block-average a binary mask into a soft low-resolution target."""
    h, w = gt.shape
    return gt.astype(np.float64).reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def sample_loss(model: SegModel, sample: synthdata.StreamSample):
    """The training loss of one sample, unweighted."""
    out = model.forward(sample.image, sample.box)
    gt = sample.gt_mask
    factor = model.config.highres_size // model.config.lowres_size
    gt_low = downsample_mask(gt, factor)
    loss = (losses.soft_dice_logits(out.m_high, gt.astype(np.float64))
            + losses.bce_with_logits(out.m_high, gt)
            + losses.soft_dice_logits(out.m_low, gt_low)
            + losses.iou_head_loss(out.s_iou, out.m_high, gt))
    return loss, out


def evaluate(model: SegModel, samples) -> dict:
    """Frozen inference over samples, any iterable, in one pass through the
    adaptation engine's ``none`` strategy: mean Dice and IoU-head calibration."""
    engine = adapt.AdaptEngine(model, adapt.AdaptConfig(strategy="none"))
    rows, sentinels = [], []
    for s in samples:
        rows.append(engine.process(s)[1])
        sentinels.append(metrics.hd95_sentinel(s.gt_mask.shape))
    return metrics.summarize(rows, sentinels)


def pretrain(cfg: PretrainConfig, out_path) -> dict:
    """Train from scratch and write the best-validation checkpoint.

    Returns a summary dict (per-epoch validation Dice, final calibration).
    Aborts with RuntimeError if the loss goes non-finite.
    """
    model = SegModel.build(ModelConfig(), cfg.seed)
    source = synthdata.PROFILES["source"]
    scenes = [synthdata.draw_scene(synthdata.sample_spec(cfg.seed, i, source)) for i in range(cfg.n_train)]
    # the scenes of gen_source(cfg.seed + VAL_SEED_OFFSET, cfg.n_val), each
    # painted only while it is scored
    val_scenes = [synthdata.draw_scene(synthdata.sample_spec(cfg.seed + VAL_SEED_OFFSET, i, source))
                  for i in range(cfg.n_val)]

    for p in model.params.values():
        p.requires_grad = True
    group = ParamGroup(model.params)

    best = None
    best_flat = None
    history = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, 37, epoch]).permutation(len(scenes))
        for idx in order:
            # painted as it trains, so one training image is alive at a time
            loss, _ = sample_loss(model, synthdata.paint(scenes[idx]))
            if not math.isfinite(float(loss.data)):
                raise RuntimeError(f"pretrain: non-finite loss at epoch {epoch}, sample {int(idx)}")
            loss.backward()
            adam_step(group, cfg.lr)
        val_summary = evaluate(model, map(synthdata.paint, val_scenes))
        history.append(val_summary["mean_dice"])
        if best is None or val_summary["mean_dice"] > best["mean_dice"]:
            best = val_summary
            best_flat = group.flat.copy()

    group.flat[...] = best_flat
    save_checkpoint(model, out_path)
    # evaluation is deterministic, so the best epoch's summary is what
    # re-scoring the restored parameters on the same samples would give
    return {
        "config": asdict(cfg),
        "val_dice_history": history,
        "best_val_dice": best["mean_dice"],
        "final_val_dice": best["mean_dice"],
        "final_val_pearson_r": best["pearson_r"],
        "checkpoint": str(out_path),
    }
