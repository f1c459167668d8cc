"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from ttaseg import adapt, synthdata, tensor  # noqa: E402
from ttaseg.model import ModelConfig, SegModel  # noqa: E402


def test_p90_needs_ten_values_beyond_it():
    assert workloads.p90(np.arange(100.0)) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="fewer than 10"):
        workloads.p90(np.arange(90.0))
    with pytest.raises(ValueError, match="0 beyond"):
        workloads.p90(np.full(500, 3.0))


def test_timed_pulls_bracket_each_item():
    """Against a fake stream: each item's span covers the consumer's work
    on it, and the work done between items falls outside every span."""
    work = [0.004, 0.012, 0.002, 0.008]
    spans = []
    for item in workloads.timed(work, spans, between=lambda: time.sleep(0.02)):
        time.sleep(item)
    latency = [end - start for start, end in spans]
    assert len(latency) == len(work)
    for took, slept in zip(latency, work):
        assert slept <= took < slept + 0.004
    assert all(b[0] - a[1] >= 0.02 for a, b in zip(spans, spans[1:]))


def test_turns_interleave_threads_image_by_image():
    turns = workloads.Turns(3)
    order = []

    def worker(k, items):
        def between():
            turns.pass_on(k)
            turns.wait(k)

        turns.wait(k)
        try:
            for item in workloads.timed(items, [], between):
                order.append((k, item))
        finally:
            turns.pass_on(k, leave=True)

    threads = [threading.Thread(target=worker, args=(k, list(range(n))))
               for k, n in enumerate((3, 1, 2))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]


def _targets():
    owners = [(owner, attr) for owner, attr, _ in tracing._TARGETS]
    owners += [(adapt.AdaptEngine, "process"), (tensor.Tensor, "_node")]
    return {(owner, attr): owner.__dict__[attr] for owner, attr in owners}


def _stream(n):
    return synthdata.gen_target(3, n, "mri-like")


def test_untraced_code_is_unpatched_after_a_traced_block():
    before = _targets()
    tracer = tracing.Tracer()
    model = SegModel.build(ModelConfig(), seed=5)
    with tracing.installed(tracer):
        assert all(_targets()[key] is not original for key, original in before.items())
        adapt.AdaptEngine(model, adapt.AdaptConfig(strategy="sam-tta")).process(_stream(1)[0])
    assert tracer.spans and tracer.nodes
    assert all(_targets()[key] is original for key, original in before.items())

    spans, nodes = len(tracer.spans), sum(tracer.nodes.values())
    adapt.AdaptEngine(model, adapt.AdaptConfig(strategy="sam-tta")).process(_stream(1)[0])
    assert (len(tracer.spans), sum(tracer.nodes.values())) == (spans, nodes)

    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            raise RuntimeError("boom")
    assert all(_targets()[key] is original for key, original in before.items())


def _traced_strategy(strategy, samples, out_dir):
    tracer = tracing.Tracer()
    tracer.context = strategy
    with tracing.installed(tracer):
        adapt.adapt_stream(SegModel.build(ModelConfig(), seed=5), samples,
                           adapt.AdaptConfig(strategy=strategy), out_dir)
    return tracer


@pytest.mark.parametrize("strategy", workloads.STRATEGIES)
def test_node_counts_repeat_exactly(strategy, tmp_path):
    samples = _stream(3)
    first = _traced_strategy(strategy, samples, tmp_path / "first")
    second = _traced_strategy(strategy, samples, tmp_path / "second")
    assert first.nodes == second.nodes
    layers = tracing.adapt_layers(first, strategy)
    again = tracing.adapt_layers(second, strategy)
    assert {k: v for k, v in layers.items() if ".nodes" in k} == \
        {k: v for k, v in again.items() if ".nodes" in k}
    names = {f"{strategy}.{m}" for m in tracing.ADAPT_RUNS[strategy]}
    if strategy == "sam-tta":
        names |= {f"sam-tta.tensor.nodes.{op}" for op in tracing.OPS}
    assert set(layers) == names
    assert all(v > 0 for v in layers.values())


def test_forward_kinds_follow_the_backward(tmp_path):
    """A sam-tta image runs one taped student forward, one no_grad teacher
    forward before its backward and one no_grad final forward after it."""
    tracer = _traced_strategy("sam-tta", _stream(2), tmp_path)
    ix = tracing._Index(tracer.spans)
    processes = [i for i, s in enumerate(tracer.spans) if s[0] == "adapt.process"]
    assert len(processes) == 2
    for p in processes:
        kinds = sorted(tracing._forward_kinds(ix, p).values())
        assert kinds == ["final_forward", "student_forward", "teacher_forward"]


def test_declared_per_layer_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == tracing.layer_metric_names()
