"""The benchmark's two workloads, their output checks and their metrics.

Both are closed loops in one process with one image or sample in flight at
a time: ttaseg adapts in stream order, so a strategy's next image goes in
only after its previous prediction has been written.

* ``adapt-mri`` runs ``adapt.adapt_stream`` once per strategy over a
  grayscale mri-like stream, the four taking turns image by image, and
  repeats these passes. It is the only workload whose measured loop uses
  every layer.
* ``pretrain-source`` runs ``pretrain.pretrain`` on colour source scenes:
  weight gradients reach all 42,619 scalars, Adam is a large share, and
  there is no teacher and no curves.

Both share one set-up (a source checkpoint pretrained from a fixed seed,
and the mri-like stream written as a dataset and read back), and both
report every end-to-end metric: ``pretrain-source`` ends with one pass of
the four strategies, and ``adapt-mri`` takes its pretraining metrics from
the set-up. The adaptation metrics use the fixed-seed checkpoint because
the Dice of a checkpoint pretrained from the workload seed varies too much
from seed to seed to bound.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import threading
from dataclasses import astuple, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from ttaseg import adapt, metrics, model, pretrain, synthdata

STRATEGIES = ("none", "tent", "mean-teacher", "sam-tta")
ADAPTING = STRATEGIES[1:]
STREAM_PROFILE = "mri-like"
STREAM_LEN = 100
# each set-up of a run generates its own stream, so a run's Dice covers
# SETUP_REPEATS x STREAM_LEN images at no extra cost
STREAM_SEED_STEP = 1_000_003
# the set-up checkpoint: two epochs of 400 samples is the smallest
# pretraining tried whose Dice stays steady from stream seed to stream seed
SETUP_SEED = 0
PRETRAIN = {"epochs": 2, "n_train": 400, "n_val": 50}
SETUP_REPEATS = 2
# at least this many per-image latencies must lie beyond a reported p90
P90_TAIL = 10
# a pass takes about 12 s; one that takes this long is stuck
JOIN_TIMEOUT_S = 120


class Run:
    """Counts and check results of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.skipped = 0
        self.adapting_images = 0
        self.record = {}

    def check(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def digest(self, key: str, value: str):
        """Record a determinism digest; a repeat within the run must match."""
        previous = self.digests.setdefault(key, value)
        self.check(previous == value, f"{key}: digest {value} differs from {previous} in the same run")


# -- timing ----------------------------------------------------------------------


def timed(samples, spans: list, between=lambda: None):
    """Yield ``samples`` in order and append ``[start, end]`` of the
    consumer's work on each: it starts when the sample is pulled and ends
    when the next one is pulled, or when the stream runs out. ``between``
    runs after one sample's end and before the next one's start."""
    for i, sample in enumerate(samples):
        if i:
            spans[-1][1] = perf_counter()
            between()
        spans.append([perf_counter(), None])
        yield sample
    if spans:
        spans[-1][1] = perf_counter()


class Turns:
    """A turn passed round-robin between worker threads; the holder runs
    and every other worker waits."""

    def __init__(self, workers: int):
        self._cond = threading.Condition()
        self._active = list(range(workers))
        self._holder = 0

    def wait(self, k: int):
        with self._cond:
            self._cond.wait_for(lambda: self._holder == k)

    def pass_on(self, k: int, leave: bool = False):
        with self._cond:
            i = self._active.index(k)
            if leave:
                self._active.pop(i)
            else:
                i += 1
            if self._active:
                self._holder = self._active[i % len(self._active)]
            self._cond.notify_all()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p90(values) -> float:
    """The 90th percentile, valid only with ``P90_TAIL`` values beyond it."""
    value = percentile(values, 90.0)
    beyond = int(np.sum(np.asarray(values) > value))
    if beyond < P90_TAIL:
        raise ValueError(f"p90 of {len(values)} values has {beyond} beyond it, "
                         f"fewer than {P90_TAIL}")
    return value


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _same_rows(a, b) -> bool:
    """Field-by-field equality in which NaN equals NaN."""
    if len(a) != len(b):
        return False
    return all(x == y or (x != x and y != y)
               for ra, rb in zip(a, b) for x, y in zip(astuple(ra), astuple(rb)))


# -- set-up ----------------------------------------------------------------------


@dataclass
class Setup:
    source: model.SegModel
    stream: list
    stream_id: int
    seconds: float
    pretrain: dict


def run_pretrain(cfg: pretrain.PretrainConfig, path: Path, tracer: tracing.Tracer,
                 context: str, run: Run) -> dict:
    """One timed ``pretrain.pretrain`` call."""
    run.attempted += 1
    with tracer.span("pretrain", context=context):
        start = perf_counter()
        summary = pretrain.pretrain(cfg, path)
        wall = perf_counter() - start
    summary["wall_s"] = wall
    summary["ms_per_sample"] = 1000.0 * wall / (cfg.epochs * cfg.n_train)
    return summary


def check_pretrain(cfg: pretrain.PretrainConfig, path: Path, summary: dict, run: Run):
    """The checkpoint round-trips, and repeats match the run's digests."""
    blob = path.read_bytes()
    copy = path.with_suffix(".roundtrip")
    model.save_checkpoint(model.load_checkpoint(path), copy)
    run.check(copy.read_bytes() == blob, f"{path.name}: checkpoint does not round-trip")
    copy.unlink()
    key = f"pretrain[seed={cfg.seed}]"
    run.digest(f"{key}.val_dice_history",
               _sha(json.dumps([repr(v) for v in summary["val_dice_history"]]).encode()))
    run.digest(f"{key}.checkpoint", _sha(blob))


def set_up(work: Path, seed: int, tracer: tracing.Tracer, run: Run, stream_id: int = 0) -> Setup:
    """Pretrain the fixed-seed source checkpoint, generate stream number
    ``stream_id`` of ``seed``, write it as a dataset and read both back, as
    ``ttaseg adapt`` would."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ckpt = work / "source.ckpt"
    cfg = pretrain.PretrainConfig(seed=SETUP_SEED, **PRETRAIN)
    start = perf_counter()
    with tracer.span("setup", context="setup"):
        summary = run_pretrain(cfg, ckpt, tracer, "pretrain:setup", run)
        with tracer.span("setup.synthdata"):
            samples = synthdata.gen_target(seed + STREAM_SEED_STEP * stream_id, STREAM_LEN,
                                           STREAM_PROFILE)
            manifest = synthdata.write_dataset(samples, work / "stream")
        source = model.load_checkpoint(ckpt)
        stream = adapt.load_stream(manifest)
    seconds = perf_counter() - start
    saved = tracer.context
    tracer.context = "check"
    check_pretrain(cfg, ckpt, summary, run)
    tracer.context = saved
    return Setup(source, stream, stream_id, seconds, summary)


# -- adaptation ------------------------------------------------------------------


@dataclass
class StrategyRun:
    latency_ms: np.ndarray
    mean_dice: float
    stream_id: int


def adapt_pass(setup: Setup, seed: int, work: Path, tracer: tracing.Tracer,
               run: Run) -> tuple:
    """The four strategies over the stream, checked: one ``adapt_stream``
    call each, in a thread of its own. The threads take turns image by
    image in ``STRATEGIES`` order, so one image at a time is in flight in
    the process and a slow spell of the machine falls on every strategy
    alike. Returns the result per strategy and the wall time of the pass."""
    turns = Turns(len(STRATEGIES))
    spans = {s: [] for s in STRATEGIES}
    results, errors = {}, {}

    def worker(k: int, strategy: str):
        def between():
            turns.pass_on(k)
            turns.wait(k)
            tracer.context = strategy

        turns.wait(k)
        tracer.context = strategy
        try:
            results[strategy] = adapt.adapt_stream(
                setup.source, timed(setup.stream, spans[strategy], between),
                adapt.AdaptConfig(strategy=strategy, seed=seed), work / strategy)
        except Exception as exc:  # re-raised below, in the calling thread
            errors[strategy] = exc
        finally:
            turns.pass_on(k, leave=True)

    n = len(setup.stream)
    run.attempted += n * len(STRATEGIES)
    threads = [threading.Thread(target=worker, args=(k, s), daemon=True)
               for k, s in enumerate(STRATEGIES)]
    start = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=max(0.0, start + JOIN_TIMEOUT_S - perf_counter()))
    wall = perf_counter() - start
    if any(t.is_alive() for t in threads):
        raise RuntimeError(f"adaptation threads still running after {JOIN_TIMEOUT_S} s")
    if errors:
        run.failed += n * len(errors)
        strategy, exc = next(iter(errors.items()))
        raise RuntimeError(f"{strategy}: adapt_stream raised") from exc

    tracer.context = "check"
    out = {}
    for strategy in STRATEGIES:
        result = results[strategy]
        _check_strategy(strategy, setup, result, work / strategy, run)
        skipped = len(result["engine"].skipped)
        run.failed += skipped
        if strategy in ADAPTING:
            run.skipped += skipped
            run.adapting_images += n
        latency = 1000.0 * np.diff(np.array(spans[strategy]), axis=1)[:, 0]
        out[strategy] = StrategyRun(latency, result["summary"]["mean_dice"], setup.stream_id)
        shutil.rmtree(work / strategy)
    tracer.context = ""
    return out, wall


def _check_strategy(strategy: str, setup: Setup, result: dict, out_dir: Path, run: Run):
    n = len(setup.stream)
    preds = sorted(p.name for p in out_dir.glob("pred_*.pgm"))
    run.check(preds == [f"pred_{i:05d}.pgm" for i in range(n)],
              f"{strategy}: {len(preds)} predictions written for {n} images")
    csv_path = out_dir / "metrics.csv"
    run.check(_same_rows(metrics.read_metrics_csv(csv_path), result["rows"]),
              f"{strategy}: metrics.csv does not re-read as the returned rows")
    run.digest(f"{strategy}.metrics_csv[stream {setup.stream_id}]", _sha(csv_path.read_bytes()))

    adapted = model.load_checkpoint(out_dir / "adapted.ckpt")
    engine = result["engine"]
    trainable = set(engine.student.trainable())
    run.check(bool(trainable) == (strategy in ADAPTING),
              f"{strategy}: {len(trainable)} trainable tensors")
    moved = [name for name, p in setup.source.params.items()
             if name not in trainable
             and adapted.params[name].data.tobytes() != p.data.tobytes()]
    run.check(not moved, f"{strategy}: frozen weights changed: {moved[:3]}")

    if strategy == "sam-tta":
        run.check(len(engine.records) == n - len(engine.skipped),
                  f"sam-tta: {len(engine.records)} loss records for {n} images")
        for i, r in enumerate(engine.records):
            total = r.l_icm + r.lambda_dpc * r.l_dpc + r.l_ifc
            run.check(0.0 < r.lambda_dpc <= 1.0, f"sam-tta record {i}: lambda {r.lambda_dpc}")
            run.check(abs(r.total - total) <= 1e-12 * abs(r.total),
                      f"sam-tta record {i}: total {r.total!r} != terms {total!r}")


def adapt_metrics(passes: list, run: Run) -> dict:
    """Per-image latency over every image of every pass: the mean and the
    p90 are bounded metrics, the p50 goes to the record. A shared machine
    runs at two speeds; the p50 jumps between them with the share of the run
    spent at each, while the mean moves in proportion to that share (and is
    what the per-layer ms-per-image figures add up to)."""
    out = {}
    p50 = {}
    for strategy in STRATEGIES:
        latency = np.concatenate([p[strategy].latency_ms for p in passes])
        out[f"{strategy}.ms_per_image_mean"] = float(np.mean(latency))
        out[f"{strategy}.ms_per_image_p90"] = p90(latency)
        p50[strategy] = percentile(latency, 50.0)
    run.record["ms_per_image_p50"] = p50
    # one pass per stream: repeats of a stream give the same Dice
    per_stream = {p["none"].stream_id: p for p in passes}
    dice = {s: statistics.mean(p[s].mean_dice for p in per_stream.values()) for s in STRATEGIES}
    gain = dice["sam-tta"] - dice["none"]
    run.check(gain > 0.0, f"dice_gain {gain} is not positive")
    run.record.update(mean_dice=dice, dice_gain=gain)
    # the gain is a difference of two close means, so it varies between
    # stream seeds far more than either mean; the bounded metrics are the
    # means, and the gain is a check
    out["none.mean_dice"] = dice["none"]
    out["sam-tta.mean_dice"] = dice["sam-tta"]
    out["adapted_rate"] = 1.0 - run.skipped / run.adapting_images
    return out


# -- workloads -------------------------------------------------------------------


def _set_up(work: Path, seed: int, setups: list, run: Run):
    setups.append(set_up(work / f"setup{len(setups)}", seed, tracing.Tracer(), run, len(setups)))
    run.record["setup_s_each"] = [s.seconds for s in setups]


def _common(setups: list, measured_calls: list) -> dict:
    """Set-up and pretraining metrics. ``pretrain.ms_per_sample`` is the
    median over every pretraining call of the run, the set-ups' included:
    they share one configuration, so they cost the same per sample."""
    calls = [s.pretrain for s in setups] + measured_calls
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pretrain.ms_per_sample": statistics.median(c["ms_per_sample"] for c in calls),
        "pretrain.val_dice": calls[-1]["best_val_dice"],
    }


# Set-ups alternate with measured work, so that the measurement samples the
# machine across the whole run rather than in one stretch at its end.


def adapt_mri(seed: int, seconds: float, work: Path, run: Run) -> dict:
    """End-to-end metrics, tracing off: a set-up then a pass of the four
    strategies, ``SETUP_REPEATS`` times, then more passes until ``seconds``
    have passed since the start."""
    deadline = perf_counter() + seconds
    setups, passes = [], []
    while len(setups) < SETUP_REPEATS or perf_counter() < deadline:
        if len(setups) < SETUP_REPEATS:
            _set_up(work, seed, setups, run)
        passes.append(adapt_pass(setups[-1], seed, work / "adapt", tracing.Tracer(), run)[0])
    run.record["passes"] = len(passes)
    out = _common(setups, [])
    out.update(adapt_metrics(passes, run))
    return out


def pretrain_source(seed: int, seconds: float, work: Path, run: Run) -> dict:
    """End-to-end metrics, tracing off: a set-up and a pass of the four
    strategies, then pretraining calls on source scenes from ``seed``, each
    followed by a further set-up and pass while fewer than
    ``SETUP_REPEATS`` set-ups were made, until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    cfg = pretrain.PretrainConfig(seed=seed, **PRETRAIN)
    ckpt = work / "pretrain.ckpt"
    setups, calls, passes = [], [], []

    def set_up_and_pass():
        _set_up(work, seed, setups, run)
        passes.append(adapt_pass(setups[-1], seed, work / "adapt", tracing.Tracer(), run)[0])

    set_up_and_pass()
    while not calls or perf_counter() < deadline:
        calls.append(run_pretrain(cfg, ckpt, tracing.Tracer(), "pretrain", run))
        check_pretrain(cfg, ckpt, calls[-1], run)
        if len(setups) < SETUP_REPEATS:
            set_up_and_pass()
    run.record.update(pretrain_calls=len(calls), passes=len(passes))
    out = _common(setups, calls)
    out.update(adapt_metrics(passes, run))
    return out


def traced(workload: str, seed: int, seconds: float, work: Path, run: Run,
           tracer: tracing.Tracer) -> dict:
    """Per-layer metrics: one traced set-up, then the workload's measured
    loop alternating untraced and traced repeats for ``trace_overhead``."""
    deadline = perf_counter() + seconds
    with tracing.installed(tracer):
        setup = set_up(work / "setup0", seed, tracer, run)
    untraced_s, traced_s = [], []
    if workload == "adapt-mri":
        while not traced_s or perf_counter() < deadline:
            untraced_s.append(adapt_pass(setup, seed, work / "adapt", tracing.Tracer(), run)[1])
            with tracing.installed(tracer):
                traced_s.append(adapt_pass(setup, seed, work / "adapt", tracer, run)[1])
        pretrain_context, samples = "pretrain:setup", PRETRAIN["epochs"] * PRETRAIN["n_train"]
    else:
        cfg = pretrain.PretrainConfig(seed=seed, **PRETRAIN)
        ckpt = work / "pretrain.ckpt"
        while not traced_s or perf_counter() < deadline:
            summary = run_pretrain(cfg, ckpt, tracing.Tracer(), "pretrain", run)
            check_pretrain(cfg, ckpt, summary, run)
            untraced_s.append(summary["wall_s"])
            with tracing.installed(tracer):
                summary = run_pretrain(cfg, ckpt, tracer, "pretrain", run)
            check_pretrain(cfg, ckpt, summary, run)
            traced_s.append(summary["wall_s"])
        with tracing.installed(tracer):
            adapt_pass(setup, seed, work / "adapt", tracer, run)
        pretrain_context = "pretrain"
        samples = len(traced_s) * cfg.epochs * cfg.n_train
    out = {}
    for strategy in STRATEGIES:
        out.update(tracing.adapt_layers(tracer, strategy))
    out.update(tracing.setup_layers(tracer))
    out.update(tracing.pretrain_layers(tracer, pretrain_context, samples))
    out["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out


WORKLOADS = {"adapt-mri": adapt_mri, "pretrain-source": pretrain_source}
