"""Streaming test-time adaptation engine.

Per image: remap the input through the learnable curves, run the student,
run the EMA teacher on the same remapped image under stop-gradient, form
the combined objective, take one Adam step per parameter group (curve
scalars at their own rate; adapters and prompt encoder with weight
decay), EMA the teacher toward the student, and save a fresh post-update
forward as the prediction. State (parameters, optimizer moments, the
confidence running max) carries across the stream. An image with a bad
pixel, a non-finite forward, loss or gradient, or a confidence too low to
weight the consistency term is skipped and logged before any update. The
teacher is a frozen copy of the student whose trainable tensors (or curves)
alone follow the student by EMA.

Every strategy is one row of ``STRATEGY_TABLE``:

    strategy      curves  LoRA+prompt  teacher                           objective
    none          -       -            -                                 -
    tent          -       yes          -                                 entropy
    mean-teacher  -       yes          EMA LoRA+prompt, student's input  l_dpc
    sam-tta       yes     yes          EMA LoRA+prompt, student's input  l_icm + lambda*l_dpc + l_ifc
    sbct-only     yes     -            EMA curves, frozen weights        l_icm + lambda*l_dpc

``none`` is frozen inference; ``sbct-only`` freezes every model weight
and is the curve-only calibration mode.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses, metrics, netpbm, sbct, synthdata
from .model import SegModel, save_checkpoint
from .tensor import ParamGroup, Tensor, adam_step, no_grad

log = logging.getLogger("ttaseg.adapt")


@dataclass(frozen=True)
class Strategy:
    """One row of the table in the module docstring."""

    curves: bool  # trains the 12 curve scalars
    adapters: bool  # trains LoRA adapters and the prompt encoder
    teacher: str | None  # "weights" (EMA of the trainable tensors) or "curves" (EMA curves)
    objective: tuple  # losses.total_tta_loss terms; empty for frozen inference


STRATEGY_TABLE = {
    "sam-tta": Strategy(True, True, "weights", losses.PAPER_OBJECTIVE),
    "tent": Strategy(False, True, None, ("entropy",)),
    "mean-teacher": Strategy(False, True, "weights", ("dpc",)),
    "none": Strategy(False, False, None, ()),
    "sbct-only": Strategy(True, False, "curves", ("icm", "lambda_dpc")),
}
# the strategies ``ttaseg adapt`` offers; sbct-only is reached through calibrate
STRATEGIES = ("sam-tta", "tent", "mean-teacher", "none")


LR_SBCT = 0.01  # Adam rate of the 12 curve scalars
LR_LORA_PROMPT = 0.001  # Adam rate of the LoRA adapters and the prompt encoder
WEIGHT_DECAY = 1e-4  # coupled L2 on the LoRA adapters and the prompt encoder
EMA_ALPHA = 0.95  # teacher <- EMA_ALPHA * teacher + (1 - EMA_ALPHA) * student


@dataclass
class AdaptConfig:
    strategy: str = "sam-tta"
    steps_per_image: int = 1
    seed: int = 0
    reset_optimizer: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGY_TABLE:
            raise ValueError(f"AdaptConfig: unknown strategy {self.strategy!r}")
        if self.steps_per_image < 1:
            raise ValueError("AdaptConfig: steps_per_image must be positive")
        if self.seed < 0:
            raise ValueError(f"AdaptConfig: seed must not be negative, got {self.seed}")


def replicate_channels(image: np.ndarray) -> np.ndarray:
    """The plain channel-duplication baseline input."""
    image = np.asarray(image, dtype=np.float64)
    return np.stack([image] * 3) if image.ndim == 2 else image


def ema_update(teacher: ParamGroup, student: ParamGroup, alpha: float):
    """teacher <- alpha * teacher + (1 - alpha) * student, one expression
    over the two groups' vectors, which must be laid out alike."""
    if teacher.layout != student.layout:
        raise ValueError(f"ema_update: parameter tree mismatch, {_layout_difference(teacher, student)}")
    teacher.flat[...] = alpha * teacher.flat + (1.0 - alpha) * student.flat


def _layout_difference(teacher: ParamGroup, student: ParamGroup) -> str:
    t, s = dict(teacher.layout), dict(student.layout)
    if t.keys() != s.keys():
        return (f"names only in the teacher {sorted(t.keys() - s.keys())}, "
                f"only in the student {sorted(s.keys() - t.keys())}")
    if list(t) != list(s):
        return f"the same names in another order: teacher {list(t)}, student {list(s)}"
    return next(f"{n!r} has shape {t[n]} in the teacher, {s[n]} in the student" for n in t if t[n] != s[n])


class AdaptEngine:
    """Holds the adaptation state and processes one sample at a time."""

    def __init__(self, base_model: SegModel, config: AdaptConfig):
        self.cfg = config
        self.spec = spec = STRATEGY_TABLE[config.strategy]

        self.student = base_model.clone()
        if spec.adapters:
            self.student.attach_lora(config.seed)
            self.student.set_trainable(lambda name: ".lora_" in name or name.startswith("prompt."))
        # the two optimizer groups, each laid out in one vector with its own
        # Adam moments; either may be empty
        self.curves = ParamGroup({"sbct.u": sbct.init_identity()} if spec.curves else {})
        self.adapters = ParamGroup(self.student.trainable())
        self.sbct_u = self.curves.get("sbct.u")  # the (3, 4) curve scalars, or None
        # the teacher's EMA'd tensors (its LoRA+prompt copies, or its own
        # curves), laid out like the student group they follow
        self.teacher = self.teacher_group = self.teacher_u = None
        if spec.teacher:
            self.teacher = self.student.clone()
            if spec.teacher == "weights":
                self.teacher_group = ParamGroup({n: self.teacher.params[n] for n in self.adapters})
            else:
                self.teacher_group = ParamGroup({"sbct.u": Tensor(self.sbct_u.data)})
                self.teacher_u = self.teacher_group["sbct.u"]

        self.running_max = losses.RunningMax()
        self.index = 0
        self.skipped = []
        self.records = []  # one LossBreakdown per completed update step

    def _student_input(self, image: np.ndarray) -> Tensor:
        if self.sbct_u is not None:
            return sbct.transform(image, self.sbct_u)
        return Tensor(replicate_channels(image))

    def _teacher_forward(self, image: np.ndarray, x_student: Tensor, box):
        with no_grad():
            # the curves teacher remaps through its own curves
            x = x_student.detach() if self.teacher_u is None else sbct.transform(image, self.teacher_u)
            return self.teacher.forward(x, box)

    def _train_step(self, sample: synthdata.StreamSample):
        """One update; returns the student's outputs, the loss breakdown,
        and the reason when the image is skipped instead."""
        spec = self.spec
        x_s = self._student_input(sample.image)
        s_out = self.student.forward(x_s, sample.box)
        s_val = float(s_out.s_iou.data)
        if not math.isfinite(s_val):
            return s_out, None, "non-finite forward"
        weighted = "lambda_dpc" in spec.objective
        if weighted and losses.confidence_stat(s_val) <= 0.0:
            return s_out, None, f"confidence {s_val!r} at or below EPSILON, no consistency weight"

        t_out = self._teacher_forward(sample.image, x_s, sample.box) if spec.teacher else None
        if weighted:  # on every step, so that lambda stays in (0, 1] at any K
            self.running_max.update(s_val)
        total, breakdown = losses.total_tta_loss(s_out, t_out, self.running_max, spec.objective)
        if not math.isfinite(breakdown.total):
            return s_out, None, "non-finite loss"

        total.backward()
        trained = [*self.curves.values(), *self.adapters.values()]
        if not all(p.grad is None or np.isfinite(p.grad).all() for p in trained):
            for p in trained:
                p.grad = None
            return s_out, None, "non-finite gradient"
        if self.curves:
            adam_step(self.curves, LR_SBCT)
        if self.adapters:
            adam_step(self.adapters, LR_LORA_PROMPT, WEIGHT_DECAY)
        if self.teacher_group is not None:
            followed = self.curves if self.spec.teacher == "curves" else self.adapters
            ema_update(self.teacher_group, followed, EMA_ALPHA)
        self.records.append(breakdown)
        return s_out, breakdown, None

    def process(self, sample: synthdata.StreamSample):
        """Adapt on one sample and return (prediction mask, metrics row)."""
        i = self.index
        self.index += 1
        if self.cfg.reset_optimizer:
            self.curves.reset_moments()
            self.adapters.reset_moments()

        reason = self._input_fault(sample)
        if reason is not None:
            self._record_skip(i, reason)
            pred = np.zeros(sample.gt_mask.shape, dtype=bool)
            return pred, metrics.score_row(i, pred, sample.gt_mask)

        breakdown = None
        for _ in range(self.cfg.steps_per_image if self.spec.objective else 0):
            s_out, breakdown, reason = self._train_step(sample)
            if reason is not None:
                self._record_skip(i, reason)
                pred = s_out.m_high.data > 0.0
                s_val = float(s_out.s_iou.data)
                return pred, metrics.score_row(i, pred, sample.gt_mask,
                                               s_val if math.isfinite(s_val) else float("nan"))

        with no_grad():
            x = self._student_input(sample.image)
            out = self.student.forward(x, sample.box)
        pred = out.m_high.data > 0.0
        s_final = float(out.s_iou.data)
        if breakdown is None:  # frozen inference logs its own confidence term
            return pred, metrics.score_row(i, pred, sample.gt_mask, s_final, 1.0 - s_final,
                                           0.0, 0.0, 0.0)
        return pred, metrics.score_row(i, pred, sample.gt_mask, s_final, breakdown.l_icm,
                                       breakdown.l_dpc, breakdown.l_ifc, breakdown.lambda_dpc)

    def _input_fault(self, sample: synthdata.StreamSample) -> str | None:
        """Why the sample cannot go through the model at all, if it cannot;
        checked before any forward, the same way for every strategy."""
        if sample.box is None:
            return "empty ground-truth mask, no prompt"
        size = self.student.config.image_size
        h, w = sample.image.shape[-2:]
        if (h, w) != (size, size):
            return f"image is {h}x{w}, the model takes {size}x{size}"
        if not sbct.in_unit_range(sample.image):
            return "pixel outside [0, 1] or not finite"
        return None

    def _record_skip(self, index: int, reason: str):
        self.skipped.append({"index": index, "reason": reason})
        log.warning("image %d: adaptation skipped (%s)", index, reason)

    def dump_sbct(self, index: int, image: np.ndarray, out_dir):
        """Diagnostic export: curve samples as CSV plus the image remapped
        through the curves as a pseudo-color composite. An image with bad
        pixels gets no composite."""
        if self.sbct_u is None:
            return
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        samples = sbct.curve_samples(self.sbct_u)
        lines = ["t,c1,c2,c3"]
        lines += [",".join(repr(v) for v in row) for row in samples]
        (out / f"sbct_{index:05d}.csv").write_text("\n".join(lines) + "\n")
        if sbct.in_unit_range(image):
            with no_grad():
                composite = sbct.transform(image, self.sbct_u).data
            netpbm.write_ppm(out / f"composite_{index:05d}.ppm", composite)


def adapt_stream(model: SegModel, samples, config: AdaptConfig, out_dir, dump_sbct_dir=None) -> dict:
    """Run a whole stream in order, writing predictions, metrics.csv and
    the adapted checkpoint. The returned ``record`` (image count, skips,
    summary and the final curves) is what ``ttaseg adapt`` stores under
    ``result`` in its run.json; this function writes no run.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine = AdaptEngine(model, config)
    rows = []
    sentinels = []
    for i, sample in enumerate(samples):
        pred, row = engine.process(sample)
        rows.append(row)
        sentinels.append(metrics.hd95_sentinel(sample.gt_mask.shape))
        netpbm.write_pgm(out / f"pred_{i:05d}.pgm", pred)
        if dump_sbct_dir is not None:
            engine.dump_sbct(i, sample.image, dump_sbct_dir)
    if not rows:
        raise ValueError("adapt_stream: empty stream")
    metrics.write_metrics_csv(rows, out / "metrics.csv")
    save_checkpoint(engine.student, out / "adapted.ckpt")
    summary = metrics.summarize(rows, sentinels)
    record = {"n_images": len(rows), "skipped": engine.skipped, "summary": summary}
    if engine.sbct_u is not None:
        record["sbct_u"] = engine.sbct_u.data.tolist()
        record["sbct_heights"] = sbct.heights(engine.sbct_u.detach()).data.tolist()
    return {"rows": rows, "summary": summary, "record": record, "engine": engine}


class LoadedStream(Sequence):
    """A manifest's samples in manifest order, each held as its image's 8-bit
    payload, its mask and its box. Every read builds a fresh ``StreamSample``
    whose arrays are bit for bit, and laid out as, ``synthdata.load_sample``'s,
    so a caller that writes into a sample changes no later read."""

    def __init__(self, items: list):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> synthdata.StreamSample:
        payload, mask, box = self._items[i]
        return synthdata.StreamSample(netpbm.decode(payload), mask.copy(), box)


def load_stream(manifest_path) -> LoadedStream:
    """Every sample of a manifest, read and checked up front; unreadable
    files abort with their index."""
    pairs = synthdata.load_manifest(manifest_path)
    items = []
    for i, (img, mask) in enumerate(pairs):
        try:
            sample = synthdata.load_sample(img, mask)
        except (OSError, ValueError) as exc:
            raise RuntimeError(f"stream sample {i} unreadable ({img}): {exc}") from exc
        # the file's own payload: encode inverts read_pnm's decode exactly
        items.append((netpbm.encode(sample.image), sample.gt_mask, sample.box))
    return LoadedStream(items)


def run_calibration(model: SegModel, samples, seed: int, modes=("off", "sbct-only")) -> dict:
    """Correlation between the model's IoU estimate and true IoU with the
    model frozen, input curves either fixed (off) or adapted (sbct-only).
    An undefined correlation, and a delta taken from one, is None."""
    report = {"seed": seed, "n": len(samples), "modes": {}}
    for mode in modes:
        if mode not in ("off", "sbct-only"):
            raise ValueError(f"run_calibration: invalid mode {mode!r}")
        strategy = "none" if mode == "off" else "sbct-only"
        engine = AdaptEngine(model, AdaptConfig(strategy=strategy, seed=seed))
        rows = [engine.process(s)[1] for s in samples]
        report["modes"][mode] = {"pearson_r": metrics.iou_correlation(rows), "rows": rows}
    if {"off", "sbct-only"} <= set(report["modes"]):
        r_off, r_on = (report["modes"][m]["pearson_r"] for m in ("off", "sbct-only"))
        report["delta"] = None if r_off is None or r_on is None else r_on - r_off
    return report
