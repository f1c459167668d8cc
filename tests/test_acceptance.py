"""Acceptance suite: one test per criterion, tolerances pinned here.

Measured experiments (criteria 6 and 7) assert against thresholds derived
from the committed reference run in benchmarks/pinned.json.
"""

import math

import numpy as np
import pytest

from conftest import CONFIG16, PINNED, lora_param_names
from fdcheck import numeric_grad
from test_metrics import oracle_hd95, random_mask
from test_sbct import bezier_scalar
from ttaseg import losses, sbct, synthdata
from ttaseg.adapt import AdaptConfig, AdaptEngine, adapt_stream, ema_update, run_calibration
from ttaseg.cli import main as cli_main
from ttaseg.metrics import dice, hd95, read_metrics_csv, summarize, hd95_sentinel
from ttaseg.model import SegModel, load_checkpoint, save_checkpoint, tokens_to_grid
from ttaseg.synthdata import StreamSample
from ttaseg.tensor import ParamGroup, Tensor, _stable_sigmoid, adam_step, no_grad

EPS = losses.EPSILON


# -- shared experiment runs ----------------------------------------------------


@pytest.fixture(scope="module")
def shift_experiment(accept_model):
    """The pinned strategy-comparison experiment; also collects every
    per-image loss record of the adapted streams for criterion 3."""
    spec = PINNED["shift_recovery"]
    per_seed = {}
    records = []
    for seed in spec["seeds"]:
        stream = synthdata.gen_target(spec["stream_seed_base"] + seed, spec["n_images"],
                                      spec["profile"])
        entry = {}
        for strategy in ("none", "mean-teacher", "sam-tta"):
            engine = AdaptEngine(accept_model, AdaptConfig(strategy=strategy, seed=seed))
            rows = [engine.process(s)[1] for s in stream]
            entry[strategy] = float(np.mean([r.dice for r in rows]))
            if strategy == "sam-tta":
                records.extend(engine.records)
                assert not engine.skipped
        per_seed[seed] = entry
    return {"per_seed": per_seed, "records": records}


# -- criteria -------------------------------------------------------------------


def test_c01_gradient_correctness_full_path():
    """Autodiff through SBCT -> encoder(+LoRA) -> decoder for each loss
    term and the combined objective matches central finite differences on
    every trainable leaf (rel. err <= 1e-4, h = 1e-5)."""
    rng = np.random.default_rng(42)
    model = SegModel.build(CONFIG16, seed=6)
    model.attach_lora(seed=7)
    for name in lora_param_names(model.config):
        model.params[name].data = 0.05 * rng.normal(size=model.params[name].shape)
    model.set_trainable(lambda n: ".lora_" in n or n.startswith("prompt."))

    teacher = model.clone()
    for p in teacher.params.values():
        p.data = p.data + 0.02 * rng.normal(size=p.shape)

    curve = sbct.init_identity()
    curve.data += 0.1 * rng.normal(size=(3, 4))
    image = rng.uniform(0.0, 1.0, (16, 16))
    box = synthdata.BoxPrompt(3.0, 3.0, 13.0, 13.0)

    with no_grad():
        t_out = teacher.forward(sbct.transform(image, curve), box)
    base = model.forward(sbct.transform(image, curve), box)
    s0 = float(base.s_iou.data)  # temperature and weight frozen at the base point
    rm = losses.RunningMax()
    rm.update(min(s0 + 0.2, 0.99))
    rm.update(s0)
    lam = losses.lambda_dpc(s0, rm)

    def forward_losses():
        out = model.forward(sbct.transform(image, curve), box)
        icm = losses.l_icm(out.s_iou)
        dpc = losses.l_dpc(out, t_out)
        ifc = losses.l_ifc(tokens_to_grid(out.z), tokens_to_grid(t_out.z), s0)
        return {"l_icm": icm, "l_dpc": dpc, "l_ifc": ifc,
                "l_tta": icm + lam * dpc + 1.0 * ifc}

    leaves = {"sbct.u": curve, **model.trainable()}
    worst = 0.0
    for term in ("l_icm", "l_dpc", "l_ifc", "l_tta"):
        for leaf in leaves.values():
            leaf.grad = None
        forward_losses()[term].backward()
        for name, leaf in leaves.items():
            got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            want = numeric_grad(lambda: float(forward_losses()[term].data), leaf, h=1e-5)
            err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-3))
            worst = max(worst, float(err))
            assert err <= 1e-4, f"{term}/{name}: rel err {err:.2e}"
    print(f"criterion 1: max rel err {worst:.2e} over {sum(l.data.size for l in leaves.values())} leaves x 4 losses")


def test_c02_closed_form_loss_values():
    """Hand-computed reference values reproduce within 1e-6."""
    # logits of +-40 give the probability map [[1, 1], [0, 0]]
    logits = Tensor(np.array([[40.0, 40.0], [-40.0, -40.0]]))
    target = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert abs(float(losses.soft_dice_logits(logits, target).data) - 0.5) <= 1e-6

    rm = losses.RunningMax()
    rm.update(0.9)
    rm.update(0.5)
    assert abs(losses.lambda_dpc(0.5, rm) - math.log(2.0) / math.log(10.0)) <= 1e-6

    z_t = Tensor(np.array([0.0, math.log(3.0)]).reshape(1, 1, 2))
    z_s = Tensor(np.zeros((1, 1, 2)))
    kl = float(losses.l_ifc(z_s, z_t, 1.0 - EPS).data)
    assert abs(kl - (0.25 * math.log(0.5) + 0.75 * math.log(1.5)) / 2.0) <= 1e-6
    assert abs(kl - 0.06540) <= 1e-5

    entropy = float(losses.entropy_loss(Tensor(np.full((4, 4), math.log(3.0)))).data)
    assert abs(entropy - 0.562335) <= 1e-6

    p = Tensor([3.0], requires_grad=True)
    p.grad = np.array([1.0])
    adam_step(ParamGroup({"p": p}), lr=0.01)
    assert abs(float(p.data[0]) - 3.0 + 0.01) <= 1e-6
    print("criterion 2: all five closed-form values reproduced")


def test_c03_decomposition_identity_on_streams(shift_experiment):
    """total == l_icm + lambda*l_dpc + l_ifc exactly, and lambda in (0, 1],
    on every logged image of every adapted stream."""
    records = shift_experiment["records"]
    assert len(records) == 3 * PINNED["shift_recovery"]["n_images"]
    for bd in records:
        assert abs(bd.total - (bd.l_icm + bd.lambda_dpc * bd.l_dpc + 1.0 * bd.l_ifc)) <= 1e-12
        assert 0.0 < bd.lambda_dpc <= 1.0
    print(f"criterion 3: identity and weight range hold on {len(records)} logged images")


def test_c04_oracle_equivalence():
    """dice/hd95 equal brute-force references exactly on 200 random pairs;
    the curve transform equals per-pixel scalar evaluation."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        pred, gt = random_mask(rng), random_mask(rng)
        want_dice = 2 * int((pred & gt).sum()) / (int(pred.sum()) + int(gt.sum()))
        assert dice(pred, gt) == want_dice
        assert hd95(pred, gt) == oracle_hd95(pred, gt)

    u = Tensor(rng.normal(0, 1.5, (3, 4)))
    image = rng.uniform(0, 1, (8, 8))
    out = sbct.transform(image, u).data
    heights = _stable_sigmoid(u.data)
    worst = 0.0
    for c in range(3):
        for i in range(8):
            for j in range(8):
                worst = max(worst, abs(out[c, i, j] - bezier_scalar(float(image[i, j]), heights[c])))
    assert worst <= 1e-15
    print(f"criterion 4: 200 mask pairs exact; curve transform within {worst:.1e} of scalar oracle")


def test_c05_freeze_and_ema_contracts(accept_model, tmp_path):
    """After a 100-image adapted stream the frozen weights are bit-identical
    to the checkpoint; EMA decays geometrically; teacher gets no gradient."""
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(accept_model, ckpt)
    reference = load_checkpoint(ckpt)

    stream = synthdata.gen_target(4321, 100, "mri-like")
    engine = AdaptEngine(accept_model, AdaptConfig(strategy="sam-tta", seed=0))
    for p in engine.teacher.params.values():
        p.requires_grad = True  # gradients must still never arrive
    for s in stream:
        engine.process(s)
    assert not engine.skipped
    frozen = moved = 0
    for name, p in engine.student.params.items():
        if ".lora_" in name or name.startswith("prompt."):
            moved += 1
            continue
        assert np.array_equal(p.data, reference.params[name].data), f"{name} changed"
        frozen += 1
    assert frozen > 0 and moved > 0
    grad_total = sum(0.0 if p.grad is None else float(np.abs(p.grad).sum())
                     for p in engine.teacher.params.values())
    assert grad_total == 0.0
    # EMA averages only the adapters and the prompt encoder: every other
    # teacher tensor is the checkpoint's, bit for bit
    teacher_frozen = 0
    for name, p in engine.teacher.params.items():
        if ".lora_" in name or name.startswith("prompt."):
            continue
        assert np.array_equal(p.data, reference.params[name].data), f"teacher {name} changed"
        teacher_frozen += 1
    assert teacher_frozen == frozen

    teacher = ParamGroup(accept_model.clone().params)
    student = ParamGroup(accept_model.clone().params)
    teacher["pos_embed"].data[:] = 1.0
    student["pos_embed"].data[:] = 0.0
    n, alpha = 100, 0.95
    for _ in range(n):
        ema_update(teacher, student, alpha)
    assert np.max(np.abs(teacher["pos_embed"].data - alpha**n)) <= n * 1e-12
    print(f"criterion 5: {frozen} frozen tensors bit-identical after 100 images; "
          f"EMA decay within {n}e-12 of alpha^n; teacher grad sum 0")


def test_c06_shift_recovery_ordering_and_margin(shift_experiment):
    """Strategy ordering and the pinned Dice margin on the degraded stream."""
    per_seed = shift_experiment["per_seed"]
    margin = PINNED["shift_recovery"]["margin_dice"]
    avg = {k: float(np.mean([per_seed[s][k] for s in per_seed]))
           for k in ("none", "mean-teacher", "sam-tta")}
    assert avg["sam-tta"] > avg["mean-teacher"] >= avg["none"]
    gain = avg["sam-tta"] - avg["none"]
    assert gain >= margin, f"gain {gain:.4f} below pinned margin {margin}"
    for seed, entry in per_seed.items():
        assert entry["sam-tta"] > entry["none"], f"seed {seed}: no recovery"
    print(f"criterion 6: dice none {avg['none']:.4f} <= mt {avg['mean-teacher']:.4f} "
          f"< sam-tta {avg['sam-tta']:.4f}; gain {gain:.4f} >= margin {margin}")


def test_c07_calibration_improves_in_all_seeds(accept_model):
    """Curve-only adaptation raises the IoU-estimate correlation on the
    pinned degraded stream in 3/3 seeds (direction only)."""
    spec = PINNED["calibration"]
    deltas = []
    for seed in spec["seeds"]:
        stream = synthdata.gen_target(spec["stream_seed_base"] + seed, spec["n_images"],
                                      spec["profile"])
        report = run_calibration(accept_model, stream, seed)
        r_off = report["modes"]["off"]["pearson_r"]
        r_on = report["modes"]["sbct-only"]["pearson_r"]
        assert r_on > r_off, f"seed {seed}: r {r_off:.4f} -> {r_on:.4f}"
        deltas.append(r_on - r_off)
    print("criterion 7: calibration deltas " + ", ".join(f"{d:+.4f}" for d in deltas) + " (3/3 positive)")


def test_c08_parameter_count_claims():
    curve = sbct.init_identity()
    assert curve.data.size == 12
    assert curve.data.shape == (3, 4)
    from ttaseg.model import ModelConfig
    config = ModelConfig()
    assert config.lora_rank == 4
    model = SegModel.build(config, seed=0)
    model.attach_lora(seed=0)
    for i in range(config.encoder_blocks):
        for proj in config.lora_targets:
            assert model.params[f"enc{i}.attn.{proj}.lora_a"].shape[0] == 4
            assert model.params[f"enc{i}.attn.{proj}.lora_b"].shape[1] == 4

    # the adapted trainable set is exactly: 12 curve scalars + adapters + prompt encoder
    engine = AdaptEngine(SegModel.build(config, seed=0), AdaptConfig(strategy="sam-tta", seed=0))
    trainable = engine.student.trainable()
    assert set(trainable) == (set(lora_param_names(config))
                              | {n for n in engine.student.params if n.startswith("prompt.")})
    d = config.embed_dim
    lora_total = config.encoder_blocks * 2 * config.lora_rank * (d + d)
    assert sum(engine.student.params[n].data.size for n in lora_param_names(config)) == lora_total
    assert engine.sbct_u.data.size == 12
    print(f"criterion 8: 12 curve scalars; rank-4 adapters ({lora_total} scalars); "
          f"trainable set enumerated exactly")


def test_c09_pipeline_determinism(tmp_path):
    """gen -> pretrain -> adapt -> eval twice with seed 0: byte-identical
    metrics."""

    def pipeline(root):
        root.mkdir()
        data = root / "data"
        ckpt = root / "model.ckpt"
        out = root / "run"
        assert cli_main(["gen", "--profile", "mri-like", "--n", "6", "--seed", "0",
                         "--out", str(data)]) == 0
        assert cli_main(["pretrain", "--epochs", "2", "--n-train", "12", "--n-val", "6",
                         "--seed", "0", "--out", str(ckpt)]) == 0
        assert cli_main(["adapt", "--checkpoint", str(ckpt), "--manifest",
                         str(data / "manifest.csv"), "--strategy", "sam-tta", "--seed", "0",
                         "--out", str(out)]) == 0
        assert cli_main(["eval", "--pred", str(out), "--manifest", str(data / "manifest.csv"),
                         "--out", str(root / "scored.csv")]) == 0
        return (out / "metrics.csv").read_bytes(), (root / "scored.csv").read_bytes()

    a = pipeline(tmp_path / "a")
    b = pipeline(tmp_path / "b")
    assert a == b
    print("criterion 9: repeated seed-0 pipeline produced byte-identical metrics")


def test_c10_robustness_sentinel_and_nan(accept_model, tmp_path, caplog):
    """A stream with an empty-mask sentinel and a NaN-corrupted sample
    completes with logged skips and a defined report."""
    stream = synthdata.gen_target(777, 6, "mri-like")
    empty = StreamSample(np.full((64, 64), 0.4), np.zeros((64, 64), dtype=bool), None)
    corrupt = StreamSample(np.full_like(stream[2].image, np.nan), stream[2].gt_mask,
                           stream[2].box)
    samples = stream[:2] + [empty, corrupt] + stream[4:]
    with caplog.at_level("WARNING", logger="ttaseg.adapt"):
        result = adapt_stream(accept_model, samples, AdaptConfig(strategy="sam-tta", seed=0),
                              tmp_path / "out")
    skipped = {s["index"] for s in result["engine"].skipped}
    assert skipped == {2, 3}
    assert caplog.text.count("skipped") >= 2
    rows = read_metrics_csv(tmp_path / "out" / "metrics.csv")
    assert len(rows) == len(samples)
    for row in rows:
        assert math.isfinite(row.dice) and math.isfinite(row.true_iou)
    summary = summarize(rows, [hd95_sentinel(s.gt_mask.shape) for s in samples])
    assert math.isfinite(summary["mean_dice"])
    assert summary["hd95_excluded"] >= 1
    assert len(result["record"]["skipped"]) == 2
    assert not (tmp_path / "out" / "run.json").exists()  # the CLI alone writes run.json
    print(f"criterion 10: stream of {len(samples)} completed with skips at {sorted(skipped)}; "
          f"report mean dice {summary['mean_dice']:.4f}")
