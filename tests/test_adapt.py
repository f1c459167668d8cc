import dataclasses
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG16, sqrt
from ttaseg import losses, sbct, synthdata
from ttaseg.adapt import (AdaptConfig, AdaptEngine, adapt_stream, ema_update, load_stream,
                          replicate_channels, run_calibration)
from ttaseg.model import ModelConfig, SegModel, save_checkpoint
from ttaseg.synthdata import StreamSample
from ttaseg.tensor import ParamGroup, Tensor, no_grad


@pytest.fixture()
def base_model():
    return SegModel.build(ModelConfig(), seed=11)


def target_stream(n=6, seed=5, profile="mri-like"):
    return synthdata.gen_target(seed, n, profile)


FROZEN_IS = lambda name: not (".lora_" in name or name.startswith("prompt."))  # noqa: E731


def test_config_validation():
    with pytest.raises(ValueError, match="strategy"):
        AdaptConfig(strategy="cotta")
    with pytest.raises(ValueError, match="positive"):
        AdaptConfig(steps_per_image=0)
    with pytest.raises(ValueError, match="seed must not be negative, got -1"):
        AdaptConfig(seed=-1)


def test_replicate_channels():
    g = np.random.default_rng(0).uniform(size=(4, 4))
    rep = replicate_channels(g)
    assert rep.shape == (3, 4, 4)
    assert np.array_equal(rep[0], g) and np.array_equal(rep[2], g)
    color = np.random.default_rng(1).uniform(size=(3, 4, 4))
    assert replicate_channels(color) is not None
    assert np.array_equal(replicate_channels(color), color)


# -- EMA -----------------------------------------------------------------------


def _groups(model):
    """Teacher and student groups over two clones of every tensor of ``model``."""
    return ParamGroup(model.clone().params), ParamGroup(model.clone().params)


def test_ema_single_value(base_model):
    teacher, student = _groups(base_model)
    teacher["pos_embed"].data[:] = 1.0
    student["pos_embed"].data[:] = 0.0
    ema_update(teacher, student, 0.95)
    assert np.allclose(teacher["pos_embed"].data, 0.95, atol=0)


def test_ema_geometric_decay_per_step_accuracy(base_model):
    teacher, student = _groups(base_model)
    teacher["pos_embed"].data[:] = 1.0
    student["pos_embed"].data[:] = 0.0
    alpha, n = 0.95, 100
    for _ in range(n):
        ema_update(teacher, student, alpha)
    predicted = alpha**n
    assert np.max(np.abs(teacher["pos_embed"].data - predicted)) <= n * 1e-12


def test_ema_alpha_zero_copies_student(base_model):
    teacher, student = _groups(base_model)
    student["pos_embed"].data[:] = 7.0
    ema_update(teacher, student, 0.0)
    assert np.array_equal(teacher["pos_embed"].data, student["pos_embed"].data)
    assert np.array_equal(teacher.flat, student.flat)


def test_ema_tree_mismatch_rejected(base_model):
    teacher = base_model.clone()
    student = base_model.clone()
    student.attach_lora(seed=0)
    with pytest.raises(ValueError, match="tree mismatch, names only in the teacher \\[\\], only in the student "
                                         "\\['enc0.attn.q.lora_a'"):
        ema_update(ParamGroup(teacher.params), ParamGroup(student.params), 0.95)


def _group(**shapes):
    return ParamGroup({name: Tensor(np.ones(shape)) for name, shape in shapes.items()})


@pytest.mark.parametrize("teacher, student, problem", [
    (_group(a=(2,), b=(3,)), _group(b=(3,), a=(2,)),
     "the same names in another order: teacher \\['a', 'b'\\], student \\['b', 'a'\\]"),
    (_group(a=(2,), b=(3,)), _group(a=(3,), b=(2,)),
     "'a' has shape \\(2,\\) in the teacher, \\(3,\\) in the student"),
    (_group(a=(1,), b=(3,)), _group(a=(3,), b=(3,)),
     "'a' has shape \\(1,\\) in the teacher, \\(3,\\) in the student"),
    (_group(a=(2, 3)), _group(a=(3, 2)),
     "'a' has shape \\(2, 3\\) in the teacher, \\(3, 2\\) in the student"),
], ids=["order", "sizes-swapped", "size-broadcastable", "same-size-other-shape"])
def test_ema_rejects_groups_laid_out_differently(teacher, student, problem):
    """The EMA runs over the two groups' whole vectors, so they must line up
    element for element: a difference in order or in size is named, and
    nothing is averaged."""
    before = teacher.flat.copy()
    with pytest.raises(ValueError, match=f"ema_update: parameter tree mismatch, {problem}"):
        ema_update(teacher, student, 0.5)
    assert np.array_equal(teacher.flat, before)


# -- tape-node guard -------------------------------------------------------------

# tape nodes one image builds, (created, taped), on SegModel.build(ModelConfig(), 5)
# and synthdata.gen_target(3, 4, "mri-like"); the same on every image. Unlike
# timings they are deterministic, so a change in the graph fails here.
NODES_PER_IMAGE = {
    "none": (67, 0),
    "tent": (135, 61),
    "mean-teacher": (204, 63),
    "sam-tta": (237, 90),
    "sbct-only": (216, 66),
}
SAM_TTA_TAPED_BY_OP = {
    "add": 10, "attention": 3, "concat": 1, "cos": 1, "exp": 1, "gelu": 5, "layer_norm": 5,
    "linear": 27, "log": 1, "matmul": 2, "mul": 6, "reshape": 11, "sigmoid": 2, "sin": 1,
    "soft_dice": 2, "sub": 4, "sum": 2, "transpose": 3, "upstage": 3,
}


@pytest.mark.parametrize("strategy", NODES_PER_IMAGE)
def test_tape_nodes_per_image_are_pinned(strategy, monkeypatch):
    made = []  # (op, taped) of every node built
    node = Tensor._node.__func__

    def counted(cls, data, parents, backward, op):
        t = node(cls, data, parents, backward, op)
        made.append((op, t.requires_grad))
        return t

    monkeypatch.setattr(Tensor, "_node", classmethod(counted))
    engine = AdaptEngine(SegModel.build(ModelConfig(), 5), AdaptConfig(strategy=strategy))
    for i, sample in enumerate(synthdata.gen_target(3, 4, "mri-like")):
        made.clear()
        engine.process(sample)
        counts = (len(made), sum(taped for _, taped in made))
        assert counts == NODES_PER_IMAGE[strategy], f"image {i}: (created, taped) {counts}"
        if strategy == "sam-tta":
            assert Counter(op for op, taped in made if taped) == SAM_TTA_TAPED_BY_OP, f"image {i}"
    assert not engine.skipped


# -- strategies ------------------------------------------------------------------


def test_none_strategy_equals_frozen_inference(base_model):
    samples = target_stream(4)
    engine = AdaptEngine(base_model, AdaptConfig(strategy="none", seed=0))
    for s in samples:
        pred, row = engine.process(s)
        with no_grad():
            out = base_model.forward(replicate_channels(s.image), s.box)
        assert np.array_equal(pred, out.m_high.data > 0.0)
        assert row.pred_iou == float(out.s_iou.data)
        assert row.lambda_dpc == 0.0


def test_none_strategy_leaves_model_bytes_identical(base_model, tmp_path):
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(base_model, ckpt)
    result = adapt_stream(base_model, target_stream(5), AdaptConfig(strategy="none"), tmp_path / "out")
    adapted = tmp_path / "out" / "adapted.ckpt"
    assert adapted.read_bytes() == ckpt.read_bytes()
    assert result["summary"]["n"] == 5


def test_sam_tta_freezes_decoder_and_base_encoder(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=1))
    before = {n: p.data.copy() for n, p in engine.student.params.items()}
    for s in target_stream(5):
        engine.process(s)
    moved_lora = moved_prompt = False
    for name, p in engine.student.params.items():
        if FROZEN_IS(name):
            assert np.array_equal(p.data, before[name]), f"{name} moved"
        elif ".lora_" in name:
            moved_lora = moved_lora or not np.array_equal(p.data, before[name])
        else:
            moved_prompt = moved_prompt or not np.array_equal(p.data, before[name])
    assert moved_lora and moved_prompt
    assert not np.array_equal(engine.sbct_u.data, sbct.init_identity().data)


def test_teacher_receives_no_gradient(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=2))
    # teacher params flagged trainable on purpose: gradients must still never reach them
    for p in engine.teacher.params.values():
        p.requires_grad = True
    engine.process(target_stream(1)[0])
    total = sum(0.0 if p.grad is None else float(np.abs(p.grad).sum())
                for p in engine.teacher.params.values())
    assert total == 0.0


@pytest.mark.parametrize("strategy", ["mean-teacher", "sam-tta", "sbct-only"])
def test_teacher_shares_no_memory_with_student(base_model, strategy):
    """The student's optimizer groups are views into flat vectors; the
    teacher, cloned from the student, must hold copies, before and after
    an update."""
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=2))

    def assert_disjoint():
        teacher = [p.data for p in engine.teacher.params.values()] + [engine.teacher_group.flat]
        if engine.teacher_u is not None:
            teacher.append(engine.teacher_u.data)
        student = [p.data for p in engine.student.params.values()]
        student += [engine.adapters.flat, engine.curves.flat]
        if engine.sbct_u is not None:
            student.append(engine.sbct_u.data)
        for t in teacher:
            assert not any(np.shares_memory(t, s) for s in student)

    assert_disjoint()
    engine.process(target_stream(1)[0])
    assert len(engine.records) == 1
    assert_disjoint()


def test_lambda_logged_in_unit_interval_and_first_is_one(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=3))
    rows = [engine.process(s)[1] for s in target_stream(6)]
    assert rows[0].lambda_dpc == 1.0
    for row in rows:
        assert 0.0 < row.lambda_dpc <= 1.0


@pytest.mark.parametrize("strategy", ["sam-tta", "sbct-only"])
def test_lambda_in_unit_interval_with_two_steps_per_image(base_model, strategy):
    # a second step whose confidence beats the stream maximum must raise
    # the maximum before it is weighted, or its lambda exceeds 1
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=0, steps_per_image=2))
    for s in target_stream(6):
        engine.process(s)
    assert not engine.skipped and len(engine.records) == 12
    for bd in engine.records:
        assert 0.0 < bd.lambda_dpc <= 1.0, bd.lambda_dpc


def test_running_max_nondecreasing_across_stream(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=3))
    values = []
    for s in target_stream(6):
        engine.process(s)
        values.append(engine.running_max.m)
    assert all(a <= b for a, b in zip(values, values[1:]))


# loss columns each objective leaves out; they log 0.0
_UNUSED_TERMS = {
    "tent": ("l_dpc", "l_ifc", "lambda_dpc"),
    "mean-teacher": ("l_ifc", "lambda_dpc"),
    "sam-tta": (),
    "sbct-only": ("l_ifc",),
}
_LAMBDA_WEIGHTED = ("sam-tta", "sbct-only")
_TERMS = ("l_icm", "l_dpc", "l_ifc", "lambda_dpc")


@pytest.mark.parametrize("strategy", ["none", "tent", "mean-teacher", "sam-tta", "sbct-only"])
def test_breakdown_identity_on_stream_rows(base_model, strategy):
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=4))
    rows = [engine.process(s)[1] for s in target_stream(5)]
    assert not engine.skipped
    if strategy == "none":
        assert not engine.records
        for row in rows:
            assert row.l_icm == 1.0 - row.pred_iou
            assert (row.l_dpc, row.l_ifc, row.lambda_dpc) == (0.0, 0.0, 0.0)
        return
    assert len(engine.records) == len(rows)
    for row, bd in zip(rows, engine.records):
        assert [getattr(row, k) for k in _TERMS] == [getattr(bd, k) for k in _TERMS]
        for k in _UNUSED_TERMS[strategy]:
            assert getattr(row, k) == 0.0, k
        if strategy in _LAMBDA_WEIGHTED:
            total = bd.l_icm + bd.lambda_dpc * bd.l_dpc + bd.l_ifc
            assert abs(bd.total - total) <= 1e-12 * abs(bd.total)
            assert 0.0 < bd.lambda_dpc <= 1.0


def test_mean_teacher_first_loss_small(accept_model):
    """With teacher == student, the consistency loss is the soft-Dice
    self-overlap, which is near zero wherever predictions are confident
    (in-distribution samples)."""
    engine = AdaptEngine(accept_model, AdaptConfig(strategy="mean-teacher", seed=0))
    vals = []
    for sample in synthdata.gen_source(900, 5):
        x = engine._student_input(sample.image)
        s_out = engine.student.forward(x, sample.box)
        t_out = engine._teacher_forward(sample.image, x, sample.box)
        vals.append(float(losses.l_dpc(s_out, t_out).data))
    assert np.mean(vals) <= 0.25
    assert max(vals) <= 0.5  # far below the O(1) loss of divergent pairs


def test_mean_teacher_trails_student_geometrically(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="mean-teacher", seed=5))
    for s in target_stream(4):
        engine.process(s)
    name = "prompt.mlp.w1"
    gap = np.abs(engine.teacher.params[name].data - engine.student.params[name].data)
    assert gap.max() > 0.0  # teacher lags while the student moves


def test_tent_updates_only_model_group(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="tent", seed=6))
    assert engine.sbct_u is None and engine.teacher is None
    before = {n: p.data.copy() for n, p in engine.student.params.items()}
    for s in target_stream(3):
        engine.process(s)
    for name, p in engine.student.params.items():
        if FROZEN_IS(name):
            assert np.array_equal(p.data, before[name])


def test_tent_zero_gradient_keeps_parameters(base_model, monkeypatch):
    # weight decay off: with L2 decay even a zero loss-gradient moves weights
    monkeypatch.setattr("ttaseg.adapt.WEIGHT_DECAY", 0.0)
    engine = AdaptEngine(base_model, AdaptConfig(strategy="tent", seed=7))
    monkeypatch.setattr("ttaseg.adapt.losses.entropy_loss", lambda m: (m * 0.0).sum())
    sample = target_stream(1)[0]
    before = {n: p.data.copy() for n, p in engine.student.params.items()}
    pred, _ = engine.process(sample)
    for name, p in engine.student.params.items():
        assert np.array_equal(p.data, before[name]), name
    with no_grad():
        out = engine.student.forward(replicate_channels(sample.image), sample.box)
    assert np.array_equal(pred, out.m_high.data > 0.0)


def test_tent_step_decreases_entropy_on_same_image(accept_model):
    for sample in synthdata.gen_target(33, 6, "mri-like"):
        engine = AdaptEngine(accept_model, AdaptConfig(strategy="tent", seed=0))
        with no_grad():
            before = float(losses.entropy_loss(
                engine.student.forward(engine._student_input(sample.image), sample.box).m_high
            ).data)
        engine.process(sample)
        with no_grad():
            after = float(losses.entropy_loss(
                engine.student.forward(engine._student_input(sample.image), sample.box).m_high
            ).data)
        assert after <= before


def test_tent_deterministic_under_fixed_seed(base_model):
    samples = target_stream(3)

    def run():
        engine = AdaptEngine(base_model, AdaptConfig(strategy="tent", seed=4))
        return [engine.process(s)[0] for s in samples]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_sbct_only_keeps_every_model_weight(base_model):
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sbct-only", seed=8))
    before = {n: p.data.copy() for n, p in engine.student.params.items()}
    for s in target_stream(5):
        engine.process(s)
    for name, p in engine.student.params.items():
        assert np.array_equal(p.data, before[name]), name
    assert not np.array_equal(engine.sbct_u.data, engine.teacher_u.data)


def test_sbct_only_teacher_keeps_every_model_weight(base_model):
    # the curves teacher averages only the curves: its weights stay the checkpoint's
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sbct-only", seed=8))
    for s in target_stream(5):
        engine.process(s)
    assert not engine.skipped
    assert engine.teacher.params.keys() == base_model.params.keys()
    for name, p in engine.teacher.params.items():
        assert np.array_equal(p.data, base_model.params[name].data), name
    assert not np.array_equal(engine.teacher_u.data, sbct.init_identity().data)


def test_color_stream_uses_per_channel_curves(base_model):
    samples = synthdata.gen_source(3, 3)
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=9))
    for s in samples:
        pred, row = engine.process(s)
        assert pred.shape == s.gt_mask.shape
        assert math.isfinite(row.dice)


# -- robustness -------------------------------------------------------------------


def test_nan_image_skips_update_and_stream_continues(base_model, caplog):
    samples = target_stream(3)
    bad = StreamSample(np.full_like(samples[1].image, np.nan), samples[1].gt_mask, samples[1].box)
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=10))
    before_u = engine.sbct_u.data.copy()
    engine.process(samples[0])
    after_first_u = engine.sbct_u.data.copy()
    assert not np.array_equal(before_u, after_first_u)
    with caplog.at_level("WARNING", logger="ttaseg.adapt"):
        pred, row = engine.process(bad)
    assert engine.skipped and engine.skipped[0]["index"] == 1
    assert "skipped" in caplog.text
    assert np.array_equal(engine.sbct_u.data, after_first_u)  # no update on the bad image
    assert not pred.any()
    assert math.isnan(row.pred_iou) and math.isnan(row.l_icm)
    # stream continues normally
    _, row3 = engine.process(samples[2])
    assert math.isfinite(row3.dice)


def _state(engine) -> dict:
    """Every value the update of one image may change."""
    state = {f"student.{n}": p.data.copy() for n, p in engine.student.params.items()}
    if engine.teacher is not None:
        state.update({f"teacher.{n}": p.data.copy() for n, p in engine.teacher.params.items()})
    for owner in ("sbct_u", "teacher_u"):
        u = getattr(engine, owner)
        if u is not None:
            state[owner] = u.data.copy()
    for owner in ("curves", "adapters"):
        group = getattr(engine, owner)
        state[f"{owner}.step"] = np.array(group.step)
        state[f"{owner}.m"] = group.m.copy()
        state[f"{owner}.v"] = group.v.copy()
    return state


def _assert_same_state(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("value", [1.0000001, np.nan, np.inf, -np.inf], ids=["above-one", "nan", "inf", "-inf"])
@pytest.mark.parametrize("strategy", ["none", "tent", "mean-teacher", "sam-tta", "sbct-only"])
def test_bad_pixel_is_a_logged_skip_for_every_strategy(base_model, strategy, value, caplog):
    samples = target_stream(3)
    image = samples[1].image.copy()
    image[10, 20] = value
    bad = StreamSample(image, samples[1].gt_mask, samples[1].box)
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=13))
    engine.process(samples[0])
    before = _state(engine)
    with caplog.at_level("WARNING", logger="ttaseg.adapt"):
        pred, row = engine.process(bad)
    assert [s["index"] for s in engine.skipped] == [1]
    assert "pixel" in engine.skipped[0]["reason"] and "skipped" in caplog.text
    _assert_same_state(before, _state(engine))
    # the empty-mask sentinel's row: all background, nothing logged
    assert pred.shape == bad.gt_mask.shape and not pred.any()
    for column in ("pred_iou", "l_icm", "l_dpc", "l_ifc", "lambda_dpc"):
        assert math.isnan(getattr(row, column)), column
    _, row3 = engine.process(samples[2])
    assert math.isfinite(row3.dice) and len(engine.skipped) == 1


@pytest.mark.parametrize("strategy", ["tent", "mean-teacher", "sam-tta", "sbct-only"])
def test_non_finite_gradient_skips_before_adam_and_ema(base_model, strategy, monkeypatch, caplog):
    samples = target_stream(3)
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=14))
    engine.process(samples[0])
    before = _state(engine)
    objective = losses.total_tta_loss

    def nan_gradient(student, *args):
        # value 0, gradient 0 * inf = nan on every tensor behind the confidence
        total, breakdown = objective(student, *args)
        return total + sqrt(student.s_iou * 0.0), breakdown

    monkeypatch.setattr("ttaseg.adapt.losses.total_tta_loss", nan_gradient)
    with np.errstate(divide="ignore", invalid="ignore"), \
            caplog.at_level("WARNING", logger="ttaseg.adapt"):
        engine.process(samples[1])
    assert engine.skipped == [{"index": 1, "reason": "non-finite gradient"}]
    assert "skipped" in caplog.text and len(engine.records) == 1
    _assert_same_state(before, _state(engine))
    trained = [*engine.student.trainable().values()] + ([engine.sbct_u] if engine.sbct_u is not None else [])
    assert all(p.grad is None for p in trained)
    monkeypatch.undo()
    _, row = engine.process(samples[2])
    assert math.isfinite(row.l_icm) and len(engine.records) == 2
    for name, p in _state(engine).items():
        assert np.isfinite(p).all(), name


@pytest.mark.parametrize("strategy", ["sam-tta", "sbct-only"])
def test_confidence_at_epsilon_skips_instead_of_crashing(base_model, strategy, caplog):
    # sigmoid(-30) ~ 1e-13: every confidence is below EPSILON, so lambda has
    # no positive running max to divide by
    base_model.params["dec.iou.b2"].data = np.full((1,), -30.0)
    engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=12))
    u_before = engine.sbct_u.data.copy()
    before = {n: p.data.copy() for n, p in engine.student.params.items()}
    with caplog.at_level("WARNING", logger="ttaseg.adapt"):
        rows = [engine.process(s)[1] for s in target_stream(3)]
    assert [s["index"] for s in engine.skipped] == [0, 1, 2]
    assert all("EPSILON" in s["reason"] for s in engine.skipped)
    assert caplog.text.count("skipped") == 3
    assert engine.running_max.count == 0 and not engine.records
    assert np.array_equal(engine.sbct_u.data, u_before)
    for name, p in engine.student.params.items():
        assert np.array_equal(p.data, before[name]), name
    for row in rows:
        assert 0.0 < row.pred_iou <= losses.EPSILON and math.isnan(row.l_icm)


def test_empty_mask_sentinel_sample_is_skipped(base_model):
    empty = StreamSample(np.full((64, 64), 0.5), np.zeros((64, 64), dtype=bool), None)
    engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=11))
    pred, row = engine.process(empty)
    assert not pred.any()
    assert row.dice == 1.0 and row.true_iou == 1.0  # empty prediction vs empty gt
    assert engine.skipped[0]["reason"].startswith("empty")


def test_unreadable_sample_aborts_with_index(tmp_path):
    manifest = synthdata.write_dataset(target_stream(2), tmp_path)
    (tmp_path / "img_00001.pgm").write_bytes(b"P5\n4 4\n255\n..")  # truncated
    with pytest.raises(RuntimeError, match="sample 1"):
        load_stream(manifest)


def test_missing_sample_file_aborts_with_index(tmp_path):
    manifest = synthdata.write_dataset(target_stream(3), tmp_path)
    (tmp_path / "mask_00002.pgm").unlink()
    with pytest.raises(RuntimeError, match="stream sample 2 unreadable"):
        load_stream(manifest)


def _same_layout_and_bytes(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _assert_reads_as_load_sample(stream, manifest):
    pairs = synthdata.load_manifest(manifest)
    assert len(stream) == len(pairs)
    for got, (img, mask) in zip(stream, pairs):
        want = synthdata.load_sample(img, mask)
        _same_layout_and_bytes(got.image, want.image)
        _same_layout_and_bytes(got.gt_mask, want.gt_mask)
        assert got.box == want.box


@pytest.mark.parametrize("profile", ["mri-like", "source"], ids=["P5", "P6"])
def test_loaded_stream_reads_as_load_sample(tmp_path, profile):
    """Each read is load_sample's sample: bytes, dtype, shape and strides of
    the image (P6's a transposed view) and the mask, and the box; a header
    with a comment, and an empty mask, read back too."""
    manifest = synthdata.write_dataset(target_stream(5, profile=profile), tmp_path)
    ext = "pgm" if profile == "mri-like" else "ppm"
    blob = (tmp_path / f"img_00002.{ext}").read_bytes()
    (tmp_path / f"img_00002.{ext}").write_bytes(blob[:3] + b"# a comment\n" + blob[3:])
    synthdata.netpbm.write_pgm(tmp_path / "mask_00003.pgm", np.zeros((64, 64), dtype=bool))
    stream = load_stream(manifest)
    assert stream[3].box is None
    _assert_reads_as_load_sample(stream, manifest)


def test_loaded_stream_reiterates_and_indexes(tmp_path):
    manifest = synthdata.write_dataset(target_stream(4), tmp_path)
    stream = load_stream(manifest)
    assert len(stream) == 4
    _assert_reads_as_load_sample(stream, manifest)
    _assert_reads_as_load_sample(stream, manifest)  # a second pass reads the same
    _same_layout_and_bytes(stream[-1].image, stream[3].image)
    with pytest.raises(IndexError):
        stream[4]


def test_writing_into_a_read_sample_changes_no_later_read(tmp_path):
    manifest = synthdata.write_dataset(target_stream(2) + synthdata.gen_source(3, 1), tmp_path)
    stream = load_stream(manifest)
    for sample in stream:
        sample.image[...] = 0.25
        sample.gt_mask[...] = ~sample.gt_mask
    _assert_reads_as_load_sample(stream, manifest)


def test_threads_reading_one_loaded_stream_each_read_every_sample(tmp_path):
    """Six threads, more than the cores, iterate one stream at once with a
    short switch interval, writing into what they read, as the benchmark's
    strategies share a set-up's stream: every read is the file's sample."""
    manifest = synthdata.write_dataset(target_stream(3) + synthdata.gen_source(4, 2), tmp_path)
    stream = load_stream(manifest)
    want = [synthdata.load_sample(*pair).image.tobytes() for pair in synthdata.load_manifest(manifest)]
    mismatches, done = [], []

    def read(k):
        for _ in range(20):
            for i, sample in enumerate(stream):
                if sample.image.tobytes() != want[i]:
                    mismatches.append((k, i))
                sample.image[...] = k
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(6)) and mismatches == []


def test_a_loaded_gray_stream_holds_its_payloads_not_its_images(tmp_path):
    """200 gray 64x64 images are 6.25 MiB as float64 and 0.78 MiB as bytes;
    with their masks the stream holds less than 2.5 MiB."""
    manifest = synthdata.write_dataset(map(synthdata.paint, synthdata.scenes(9, 200, "mri-like")), tmp_path)
    tracemalloc.start()
    try:
        stream = load_stream(manifest)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stream) == 200
    assert held < 2.5 * 2**20


# -- streaming and state ------------------------------------------------------------


def test_adapt_stream_writes_all_outputs(base_model, tmp_path):
    out = tmp_path / "run"
    result = adapt_stream(base_model, target_stream(4), AdaptConfig(strategy="sam-tta", seed=0),
                          out, dump_sbct_dir=out / "sbct")
    assert sorted(p.name for p in out.glob("pred_*.pgm")) == [f"pred_{i:05d}.pgm" for i in range(4)]
    assert (out / "metrics.csv").exists() and (out / "adapted.ckpt").exists()
    assert not (out / "run.json").exists()  # the CLI alone writes run.json
    record = result["record"]
    assert result["engine"].cfg.strategy == "sam-tta"
    assert record["n_images"] == 4
    assert "sbct_u" in record and len(record["sbct_u"]) == 3
    assert (out / "sbct" / "sbct_00003.csv").exists()
    assert (out / "sbct" / "composite_00003.ppm").exists()
    assert len(result["rows"]) == 4


@pytest.mark.parametrize("value", [1.0000001, np.nan, np.inf, -np.inf], ids=["above-one", "nan", "inf", "-inf"])
def test_dump_sbct_writes_no_composite_of_a_bad_image(base_model, tmp_path, value):
    samples = target_stream(3)
    samples[1].image[0, 0] = value
    out = tmp_path / "run"
    adapt_stream(base_model, samples, AdaptConfig(strategy="sam-tta", seed=0), out,
                 dump_sbct_dir=out / "sbct")
    written = sorted(p.name for p in (out / "sbct").iterdir())
    assert written == ["composite_00000.ppm", "composite_00002.ppm",
                       "sbct_00000.csv", "sbct_00001.csv", "sbct_00002.csv"]


def test_adapt_stream_deterministic(base_model, tmp_path):
    samples = target_stream(4)
    for tag in ("a", "b"):
        adapt_stream(base_model, samples, AdaptConfig(strategy="sam-tta", seed=0), tmp_path / tag)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "adapted.ckpt").read_bytes() == (tmp_path / "b" / "adapted.ckpt").read_bytes()


def test_streams_in_free_running_threads_match_serial_runs(base_model, tmp_path):
    """One strategy per thread, with no turn-taking: each run writes the
    bytes its serial run writes, so no thread's no_grad reaches another."""
    samples = target_stream(4)
    strategies = ("none", "tent", "mean-teacher", "sam-tta")
    for strategy in strategies:
        adapt_stream(base_model, samples, AdaptConfig(strategy=strategy), tmp_path / "serial" / strategy)
    errors = []

    def run(strategy):
        try:
            adapt_stream(base_model, samples, AdaptConfig(strategy=strategy), tmp_path / "threads" / strategy)
        except Exception as exc:  # a thread's failure is asserted on below
            errors.append((strategy, exc))

    threads = [threading.Thread(target=run, args=(strategy,)) for strategy in strategies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    for strategy in strategies:
        serial, threaded = tmp_path / "serial" / strategy, tmp_path / "threads" / strategy
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in threaded.iterdir())
        assert {"metrics.csv", "adapted.ckpt", "pred_00003.pgm"} <= set(names)
        for name in names:
            assert (threaded / name).read_bytes() == (serial / name).read_bytes(), f"{strategy}: {name}"


def test_order_sensitivity_and_frozen_invariance(base_model):
    samples = target_stream(5)
    shuffled = [samples[i] for i in (2, 0, 4, 1, 3)]

    def final_pred(stream, strategy):
        engine = AdaptEngine(base_model, AdaptConfig(strategy=strategy, seed=0))
        preds = {}
        for s in stream:
            preds[id(s)] = engine.process(s)[0]
        return preds[id(samples[3])]

    assert not np.array_equal(final_pred(samples, "sam-tta"), final_pred(shuffled, "sam-tta"))
    assert np.array_equal(final_pred(samples, "none"), final_pred(shuffled, "none"))


def test_gt_poisoning_does_not_change_trajectory(base_model):
    samples = target_stream(4)
    poisoned = [StreamSample(s.image, np.zeros_like(s.gt_mask), s.box) for s in samples]

    def run(stream):
        engine = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=0))
        preds = [engine.process(s)[0] for s in stream]
        return preds, engine

    preds_a, eng_a = run(samples)
    preds_b, eng_b = run(poisoned)
    for a, b in zip(preds_a, preds_b):
        assert np.array_equal(a, b)
    for name in eng_a.student.params:
        assert np.array_equal(eng_a.student.params[name].data, eng_b.student.params[name].data)


def test_steps_per_image_and_optimizer_reset(base_model):
    one = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=0, steps_per_image=1))
    two = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=0, steps_per_image=2))
    sample = target_stream(1)[0]
    one.process(sample)
    two.process(sample)
    assert not np.array_equal(one.sbct_u.data, two.sbct_u.data)
    reset = AdaptEngine(base_model, AdaptConfig(strategy="sam-tta", seed=0, reset_optimizer=True))
    moments = [reset.adapters.m, reset.curves.v]
    for s in target_stream(2):
        reset.process(s)
    assert reset.adapters.step == 1 and reset.curves.step == 1  # cleared before each image
    assert moments[0] is reset.adapters.m and moments[1] is reset.curves.v  # in place


def test_calibration_modes_and_delta(base_model):
    samples = target_stream(8, seed=21, profile="ct-like")
    report = run_calibration(base_model, samples, seed=0)
    assert set(report["modes"]) == {"off", "sbct-only"}
    assert "delta" in report
    with pytest.raises(ValueError, match="invalid mode"):
        run_calibration(base_model, samples, seed=0, modes=("both",))


def test_calibration_off_equals_none_strategy(base_model):
    samples = target_stream(5, seed=22)
    report = run_calibration(base_model, samples, seed=0, modes=("off",))
    engine = AdaptEngine(base_model, AdaptConfig(strategy="none", seed=0))
    rows = [engine.process(s)[1] for s in samples]
    for a, b in zip(report["modes"]["off"]["rows"], rows):
        assert a == b


# -- adversarial streams ----------------------------------------------------------

_SIDE = CONFIG16.image_size
# pixels no image may hold: not finite, or one step outside [0, 1]
_BAD_PIXELS = [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)]
_LOSS_COLUMNS = ("l_icm", "l_dpc", "l_ifc", "lambda_dpc")
# each objective term's value in the float breakdown, as total_tta_loss sums it
_TERM_VALUES = {
    "icm": lambda bd: bd.l_icm,
    "dpc": lambda bd: bd.l_dpc,
    "lambda_dpc": lambda bd: bd.lambda_dpc * bd.l_dpc,
    "ifc": lambda bd: bd.l_ifc,
}


@st.composite
def _adversarial_samples(draw):
    """A gray or colour CONFIG16 sample: a good image, a constant one, or one
    with a single bad pixel; its mask a rectangle of any size, or empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (3, _SIDE, _SIDE) if draw(st.booleans()) else (_SIDE, _SIDE)
    kind = draw(st.sampled_from(["good", "constant", "bad-pixel"]))
    if kind == "constant":
        image = np.full(shape, draw(st.sampled_from([0.0, 0.5, 1.0])))
    else:
        image = rng.uniform(0.0, 1.0, shape)
    if kind == "bad-pixel":
        image.reshape(-1)[draw(st.integers(0, image.size - 1))] = draw(st.sampled_from(_BAD_PIXELS))
    mask = np.zeros((_SIDE, _SIDE), dtype=bool)
    if draw(st.integers(0, 4)):  # one mask in five is empty
        y0, x0 = draw(st.integers(0, _SIDE - 1)), draw(st.integers(0, _SIDE - 1))
        mask[y0:draw(st.integers(y0 + 1, _SIDE)), x0:draw(st.integers(x0 + 1, _SIDE))] = True
    return StreamSample(image, mask, synthdata.oracle_box(mask) if mask.any() else None)


def _row_values(row) -> np.ndarray:
    return np.array(dataclasses.astuple(row), dtype=np.float64)


def _run_checking_contracts(base, stream, config) -> list:
    """Adapt on ``stream``, checking the engine's contracts after every
    image; returns each image's prediction and row values."""
    engine = AdaptEngine(base, config)
    spec = engine.spec
    frozen = [n for n in engine.student.params if n not in engine.adapters]
    teachers = [] if engine.teacher is None else [engine.teacher]
    teacher_tensors = [p for t in teachers for p in t.params.values()]
    teacher_tensors += [] if engine.teacher_group is None else list(engine.teacher_group.values())
    for p in teacher_tensors:  # flagged trainable, so that only the engine keeps gradients away
        p.requires_grad = True
    outputs = []
    for i, sample in enumerate(stream):
        made = len(engine.records)
        pred, row = engine.process(sample)
        outputs.append((pred, _row_values(row)))
        skipped = [s["index"] for s in engine.skipped]
        assert skipped.count(i) <= 1 and all(j <= i for j in skipped)
        assert pred.shape == sample.gt_mask.shape and pred.dtype == bool
        # frozen weights are bit for bit the base model's, in student and teacher
        for model in (engine.student, *teachers):
            for name in frozen:
                assert np.array_equal(model.params[name].data, base.params[name].data), name
        assert all(p.grad is None for p in teacher_tensors)
        # a row's loss columns are nan exactly when the image was skipped
        losses_logged = [getattr(row, c) for c in _LOSS_COLUMNS]
        assert [math.isnan(v) for v in losses_logged] == [i in skipped] * len(_LOSS_COLUMNS), (i, row)
        new = engine.records[made:]
        assert len(new) <= config.steps_per_image
        if i not in skipped and spec.objective:
            assert len(new) == config.steps_per_image
            assert losses_logged == [getattr(new[-1], c) for c in _LOSS_COLUMNS]
        for bd in new:
            if "lambda_dpc" in spec.objective:
                assert 0.0 < bd.lambda_dpc <= 1.0, bd.lambda_dpc
            else:
                assert bd.lambda_dpc == 0.0
            if "entropy" in spec.objective:
                assert (bd.l_dpc, bd.l_ifc) == (0.0, 0.0)
                continue
            total = None
            for term in spec.objective:
                value = _TERM_VALUES[term](bd)
                total = value if total is None else total + value
            assert bd.total == total, (bd, spec.objective)
        groups = [engine.curves, engine.adapters]
        vectors = [v for g in groups for v in (g.flat, g.m, g.v)]
        if engine.teacher_group is not None:
            vectors.append(engine.teacher_group.flat)
        assert all(np.isfinite(v).all() for v in vectors)
    return outputs


@pytest.mark.parametrize("reset", [False, True], ids=["carry", "reset"])
@pytest.mark.parametrize("steps", [1, 2], ids=["K1", "K2"])
@pytest.mark.parametrize("strategy", ["none", "tent", "mean-teacher", "sam-tta", "sbct-only"])
@given(stream=st.lists(_adversarial_samples(), min_size=1, max_size=4),
       iou_bias=st.sampled_from([None, -30.0, 30.0]))
@settings(max_examples=15, deadline=None)
def test_adversarial_streams_keep_every_contract(strategy, steps, reset, stream, iou_bias):
    """Good, bad-pixel and constant images, gray and colour, empty masks and
    a saturated IoU head, mixed in one stream: after every image the frozen
    weights are untouched, the teacher has no gradient, lambda is in (0, 1],
    the logged terms add up to the loss bit for bit, a row logs its losses
    exactly when the image was not skipped, and every parameter and Adam
    moment is finite; a second run writes the same rows."""
    base = SegModel.build(CONFIG16, seed=3)
    if iou_bias is not None:
        base.params["dec.iou.b2"].data[...] = iou_bias
    config = AdaptConfig(strategy=strategy, seed=1, steps_per_image=steps, reset_optimizer=reset)
    first = _run_checking_contracts(base, stream, config)
    second = _run_checking_contracts(base, stream, config)
    for (pred_a, row_a), (pred_b, row_b) in zip(first, second):
        assert np.array_equal(pred_a, pred_b)
        assert np.array_equal(row_a, row_b, equal_nan=True)
