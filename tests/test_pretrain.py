import tracemalloc

import numpy as np
import pytest

from conftest import PINNED, assert_same_loss_and_grads, bce_composed, loss_and_grads, soft_dice
from ttaseg import losses, synthdata
from ttaseg.model import load_checkpoint
from ttaseg.pretrain import (VAL_SEED_OFFSET, PretrainConfig, downsample_mask, evaluate, pretrain,
                             sample_loss)
from ttaseg.tensor import Tensor

TINY = PretrainConfig(epochs=1, lr=1e-3, seed=0, n_train=8, n_val=4)


def test_config_validation():
    with pytest.raises(ValueError, match="n_val"):
        PretrainConfig(n_val=0)
    with pytest.raises(ValueError, match="epochs"):
        PretrainConfig(epochs=0)
    for n_train in (0, -3):
        with pytest.raises(ValueError, match="n_train"):
            PretrainConfig(n_train=n_train)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            PretrainConfig(lr=lr)
    with pytest.raises(ValueError, match="seed must not be negative, got -1"):
        PretrainConfig(seed=-1)


def test_downsample_mask_block_average():
    gt = np.zeros((4, 4), dtype=bool)
    gt[:2, :2] = True
    low = downsample_mask(gt, 2)
    assert low.shape == (2, 2)
    assert low[0, 0] == 1.0 and low[1, 1] == 0.0


def test_same_seed_gives_identical_checkpoint_bytes(tmp_path):
    pretrain(TINY, tmp_path / "a.ckpt")
    pretrain(TINY, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_training_images_held_do_not_grow_with_n_train(tmp_path):
    """Training scenes are drawn once and each is painted as it trains: 128
    more training samples (12 MiB of colour images) add only their drawn
    scenes, about 4.5 KiB each, to the peak."""
    peaks = []
    for n_train in (32, 160):
        tracemalloc.start()
        try:
            pretrain(PretrainConfig(epochs=1, n_train=n_train, n_val=2), tmp_path / "m.ckpt")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20


def test_pretrained_model_has_no_lora(tmp_path):
    pretrain(TINY, tmp_path / "m.ckpt")
    model = load_checkpoint(tmp_path / "m.ckpt")
    assert not model.has_lora
    assert not any(".lora_" in name for name in model.params)


def test_pinned_run_meets_quality_gates(accept_model):
    """The committed thresholds for the reference pretraining run."""
    cfg = PretrainConfig(**PINNED["pretrain"]["config"])
    val = synthdata.gen_source(cfg.seed + 500_009, cfg.n_val)
    summary = evaluate(accept_model, val)
    gates = PINNED["pretrain"]["thresholds"]
    assert summary["mean_dice"] >= gates["min_val_dice"]
    assert summary["pearson_r"] >= gates["min_val_iou_r"]


def test_shift_gap_source_vs_target(accept_model):
    for seed in (0, 1, 2):
        src = evaluate(accept_model, synthdata.gen_source(7000 + seed, 40))
        tgt = evaluate(accept_model, synthdata.gen_target(7000 + seed, 40, "mri-like"))
        assert src["mean_dice"] > tgt["mean_dice"], (
            f"seed {seed}: shift did not hurt ({src['mean_dice']:.3f} vs {tgt['mean_dice']:.3f})"
        )


def test_lowres_head_tracks_highres_after_pretraining(accept_model):
    """Coarse logits, bilinearly upsampled, correlate with fine logits."""
    from ttaseg.metrics import pearson_r
    from ttaseg.tensor import no_grad

    rs = []
    for s in synthdata.gen_source(123, 6):
        with no_grad():
            out = accept_model.forward(s.image, s.box)
        low = out.m_low.data
        grid = np.linspace(0, low.shape[0] - 1, out.m_high.shape[0])
        i0 = np.clip(np.floor(grid).astype(int), 0, low.shape[0] - 2)
        f = grid - i0
        rows = low[i0] * (1 - f)[:, None] + low[i0 + 1] * f[:, None]
        up = rows[:, i0] * (1 - f)[None, :] + rows[:, i0 + 1] * f[None, :]
        rs.append(pearson_r(up.reshape(-1), out.m_high.data.reshape(-1)))
    assert np.mean(rs) > 0.0
    assert min(rs) > 0.0


def test_iou_target_is_detached_from_mask_heads(model16):
    """The squared-error confidence term must not push gradient into the
    mask heads; its only path is through the IoU estimate itself."""
    from ttaseg import losses

    sample = synthdata.gen_source(3, 1)[0]
    small = np.random.default_rng(0).uniform(0, 1, (3, 16, 16))
    box = synthdata.BoxPrompt(2.0, 2.0, 14.0, 14.0)
    for p in model16.params.values():
        p.requires_grad = True
    out = model16.forward(small, box)
    gt = np.zeros((16, 16), dtype=bool)
    gt[4:12, 4:12] = True
    losses.iou_head_loss(out.s_iou, out.m_high, gt).backward()
    for name, p in model16.params.items():
        if name.startswith(("dec.up", "dec.lowhead", "dec.highhead")):
            assert p.grad is None or not np.any(p.grad), name
    assert np.any(model16.params["dec.iou.w1"].grad)


def test_divergence_aborts_with_epoch(tmp_path, monkeypatch):
    from ttaseg import pretrain as pt

    def bad_loss(model, sample):
        from ttaseg.tensor import Tensor
        return Tensor(float("nan")), None

    monkeypatch.setattr(pt, "sample_loss", bad_loss)
    with pytest.raises(RuntimeError, match="epoch 0"):
        pt.pretrain(TINY, tmp_path / "m.ckpt")


def _sample16():
    return synthdata.StreamSample(
        np.random.default_rng(1).uniform(0, 1, (3, 16, 16)),
        np.pad(np.ones((6, 6), dtype=bool), 5),
        synthdata.BoxPrompt(3.0, 3.0, 13.0, 13.0),
    )


def test_sample_loss_components_positive(model16):
    sample = _sample16()
    for p in model16.params.values():
        p.requires_grad = True
    loss, out = sample_loss(model16, sample)
    assert float(loss.data) > 0.0
    loss.backward()
    assert model16.params["patch_embed.w"].grad is not None


def test_sample_loss_is_bitwise_the_composed_graph(model16):
    """The fused soft-Dice and BCE nodes give the loss and every weight
    gradient of the composed graph; the fine mask gets its three gradient
    contributions in the composed graph's order."""
    sample = _sample16()

    def composed():
        out = model16.forward(sample.image, sample.box)
        gt = sample.gt_mask
        return (soft_dice(out.m_high.sigmoid(), Tensor(gt.astype(np.float64)))
                + bce_composed(out.m_high, gt)
                + soft_dice(out.m_low.sigmoid(), Tensor(downsample_mask(gt, 4)))
                + losses.iou_head_loss(out.s_iou, out.m_high, gt))

    fused = loss_and_grads(model16, lambda: sample_loss(model16, sample)[0])
    assert_same_loss_and_grads(fused, loss_and_grads(model16, composed))


def test_final_summary_is_an_evaluation_of_the_written_checkpoint(tmp_path):
    """The returned final validation figures are the best epoch's, and they
    equal a fresh evaluation of the checkpoint on the validation samples."""
    cfg = PretrainConfig(epochs=3, lr=1e-3, seed=0, n_train=8, n_val=4)
    summary = pretrain(cfg, tmp_path / "m.ckpt")
    history = summary["val_dice_history"]
    assert history.index(max(history)) < len(history) - 1  # the best parameters are restored
    final = evaluate(load_checkpoint(tmp_path / "m.ckpt"), synthdata.gen_source(cfg.seed + VAL_SEED_OFFSET, cfg.n_val))
    assert summary["final_val_dice"] == final["mean_dice"] == summary["best_val_dice"] == max(history)
    assert summary["final_val_pearson_r"] == final["pearson_r"]
