"""Outside-in tracing of ttaseg: spans and tape-node counts, kept in memory.

Wrappers are installed at the names callers look up (module attributes
such as ``ttaseg.adapt.adam_step``, and class attributes such as
``SegModel.forward``) and removed again when the traced block ends, so an
untraced run executes the original functions. Nothing under ``src/`` is
edited.

A span is ``[name, start, end, parent, image, context]``: ``parent`` is the
index of the enclosing span (or None), ``image`` the index of the stream
image being processed (or None), and ``context`` a label the workload sets,
such as the strategy. Times come from ``time.perf_counter``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ttaseg import adapt, losses, metrics, model, netpbm, pretrain, sbct, synthdata, tensor

# tape ops whose counts are reported one by one
OPS = ("transpose", "matmul", "add", "mul", "reshape", "gelu", "sum", "concat")


class Tracer:
    """Spans and node counts for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.nodes = Counter()  # (context, op, taped) -> count
        self.context = ""
        self.image = None
        self._open = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.image, self.context])
        self._open.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, context: str | None = None):
        """A span around a block of the benchmark's own code."""
        saved = self.context
        if context is not None:
            self.context = context
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.context = saved

    def write(self, path):
        """One JSON object per line: every span, then the node counts."""
        with open(path, "w") as f:
            for name, start, end, parent, image, context in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "image": image, "context": context}) + "\n")
            for (context, op, taped), count in sorted(self.nodes.items()):
                f.write(json.dumps({"nodes": count, "context": context, "op": op,
                                    "taped": taped}) + "\n")


def _wrap(tracer: Tracer, fn, name):
    """``fn`` inside a span; ``name`` may be a callable evaluated per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name() if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def _forward_name() -> str:
    return "model.forward.taped" if tensor._grad_enabled else "model.forward.no_grad"


# (owner, attribute, span name); looked up where the callers look them up
_TARGETS = (
    (adapt, "adam_step", "tensor.adam_step"),
    (pretrain, "adam_step", "tensor.adam_step"),
    (adapt, "ema_update", "adapt.ema_update"),
    (model.SegModel, "forward", _forward_name),
    (model.SegModel, "encode", "model.encode"),
    (model.SegModel, "encode_prompt", "model.encode_prompt"),
    (model.SegModel, "decode", "model.decode"),
    (losses, "total_tta_loss", "losses.objective"),
    (losses, "l_dpc", "losses.objective"),
    (losses, "entropy_loss", "losses.objective"),
    (pretrain, "sample_loss", "losses.sample_loss"),
    (pretrain, "evaluate", "pretrain.evaluate"),
    (synthdata, "gen_source", "synthdata.gen_source"),
    (sbct, "transform", "sbct.transform"),
    (metrics, "dice", "metrics.score"),
    (metrics, "hd95", "metrics.score"),
    (metrics, "binary_iou", "metrics.score"),
    (netpbm, "write_pgm", "netpbm.write"),
    (netpbm, "read_pnm", "netpbm.read"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (tensor.Tensor, "backward", "tensor.backward"),
)


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore
    the exact original objects."""
    saved = []
    try:
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name))

        process = adapt.AdaptEngine.__dict__["process"]
        saved.append((adapt.AdaptEngine, "process", process))

        @functools.wraps(process)
        def traced_process(engine, sample):
            tracer.image = engine.index
            index = tracer.begin("adapt.process")
            try:
                return process(engine, sample)
            finally:
                tracer.end(index)
                tracer.image = None

        adapt.AdaptEngine.process = traced_process

        node = tensor.Tensor.__dict__["_node"]
        saved.append((tensor.Tensor, "_node", node))
        make_node = node.__func__

        def counted_node(cls, data, parents, backward, op):
            t = make_node(cls, data, parents, backward, op)
            tracer.nodes[(tracer.context, op, t.requires_grad)] += 1
            return t

        tensor.Tensor._node = classmethod(counted_node)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------


class _Index:
    """Parent/child structure of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                self.children[s[3]].append(i)

    def duration(self, i) -> float:
        s = self.spans[i]
        return s[2] - s[1]

    def self_time(self, i) -> float:
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def outermost(self, i) -> bool:
        """No ancestor carries the same name (l_dpc inside total_tta_loss)."""
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def within(self, i, root) -> bool:
        parent = self.spans[i][3]
        while parent is not None:
            if parent == root:
                return True
            parent = self.spans[parent][3]
        return False


def _forward_kinds(ix: _Index, process: int) -> dict:
    """Classify the forwards inside one ``adapt.process`` span: taped is the
    student; a no_grad forward before the image's first backward is the
    teacher, and one after it (or with no backward at all) the final one."""
    spans = ix.spans
    stack, inside = [process], []
    while stack:
        for c in ix.children[stack.pop()]:
            inside.append(c)
            stack.append(c)
    backward = [spans[c][1] for c in inside if spans[c][0] == "tensor.backward"]
    first_backward = min(backward) if backward else None
    kinds = {}
    for c in inside:
        if spans[c][0] == "model.forward.taped":
            kinds[c] = "student_forward"
        elif spans[c][0] == "model.forward.no_grad":
            before = first_backward is not None and spans[c][1] < first_backward
            kinds[c] = "teacher_forward" if before else "final_forward"
    return kinds


# per-strategy layer metrics: metric suffix -> span name
_ADAPT_LAYERS = {
    "sbct.transform_ms": "sbct.transform",
    "model.encode_ms": "model.encode",
    "model.encode_prompt_ms": "model.encode_prompt",
    "model.decode_ms": "model.decode",
    "losses.objective_ms": "losses.objective",
    "tensor.backward_ms": "tensor.backward",
    "tensor.adam_step_ms": "tensor.adam_step",
    "adapt.ema_update_ms": "adapt.ema_update",
    "metrics.score_ms": "metrics.score",
    "netpbm.write_ms": "netpbm.write",
}

# which layers each strategy runs; the metric list is built from this table
ADAPT_RUNS = {
    "none": {"model.encode_ms", "model.encode_prompt_ms", "model.decode_ms",
             "model.final_forward_ms", "metrics.score_ms", "netpbm.write_ms",
             "adapt.self_ms", "tensor.nodes"},
    "tent": {"model.student_forward_ms", "losses.objective_ms", "tensor.backward_ms",
             "tensor.adam_step_ms", "tensor.nodes_taped"},
    "mean-teacher": {"model.teacher_forward_ms", "adapt.ema_update_ms"},
    "sam-tta": {"sbct.transform_ms"},
}
ADAPT_RUNS["tent"] |= ADAPT_RUNS["none"]
ADAPT_RUNS["mean-teacher"] |= ADAPT_RUNS["tent"]
ADAPT_RUNS["sam-tta"] |= ADAPT_RUNS["mean-teacher"]

PRETRAIN_LAYERS = ("model.forward_ms", "losses.sample_loss_ms", "tensor.backward_ms",
                   "tensor.adam_step_ms", "evaluate_ms", "synthdata.gen_source_ms", "self_ms",
                   "tensor.nodes", "tensor.nodes_taped") + tuple(f"tensor.nodes.{op}" for op in OPS)
SETUP_LAYERS = ("pretrain_ms", "synthdata_ms", "netpbm.read_ms", "model.load_checkpoint_ms")


def layer_metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for s, layers in ADAPT_RUNS.items():
        for suffix in sorted(layers):
            names.append((f"{s}.{suffix}", "count" if ".nodes" in suffix else "ms"))
    names += [(f"sam-tta.tensor.nodes.{op}", "count") for op in OPS]
    names += [(f"setup.{m}", "ms") for m in SETUP_LAYERS]
    names += [(f"pretrain.{m}", "count" if ".nodes" in m else "ms") for m in PRETRAIN_LAYERS]
    names.append(("trace_overhead", "ratio"))
    return names


def adapt_layers(tracer: Tracer, strategy: str) -> dict:
    """ms per image for every layer ``strategy`` runs, plus nodes per image."""
    ix = _Index(tracer.spans)
    spans = tracer.spans
    processes = [i for i, s in enumerate(spans)
                 if s[0] == "adapt.process" and s[5] == strategy]
    if not processes:
        raise ValueError(f"no traced images for strategy {strategy!r}")
    totals = Counter()
    for p in processes:
        totals["adapt.self_ms"] += ix.self_time(p)
        for c, kind in _forward_kinds(ix, p).items():
            totals[f"model.{kind}_ms"] += ix.duration(c)
    by_name = {v: k for k, v in _ADAPT_LAYERS.items()}
    for i, s in enumerate(spans):
        if s[5] == strategy and s[0] in by_name and ix.outermost(i):
            totals[by_name[s[0]]] += ix.duration(i)
    n = len(processes)
    out = {f"{strategy}.{k}": 1000.0 * totals[k] / n
           for k in ADAPT_RUNS[strategy] if k.endswith("_ms")}
    nodes = {(op, taped): c for (ctx, op, taped), c in tracer.nodes.items() if ctx == strategy}
    out[f"{strategy}.tensor.nodes"] = sum(nodes.values()) / n
    if "tensor.nodes_taped" in ADAPT_RUNS[strategy]:
        out[f"{strategy}.tensor.nodes_taped"] = sum(
            c for (op, taped), c in nodes.items() if taped) / n
    if strategy == "sam-tta":
        for op in OPS:
            out[f"sam-tta.tensor.nodes.{op}"] = sum(
                c for (o, _), c in nodes.items() if o == op) / n
    return out


def pretrain_layers(tracer: Tracer, context: str, samples: int) -> dict:
    """ms per training sample of each layer inside the ``pretrain`` spans
    of ``context``, plus tape nodes per training sample."""
    ix = _Index(tracer.spans)
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[0] == "pretrain" and s[5] == context]
    if not roots:
        raise ValueError(f"no traced pretraining in context {context!r}")
    totals = Counter()
    for r in roots:
        totals["self_ms"] += ix.self_time(r)
    names = {"model.forward.taped": "model.forward_ms", "tensor.backward": "tensor.backward_ms",
             "tensor.adam_step": "tensor.adam_step_ms", "pretrain.evaluate": "evaluate_ms",
             "synthdata.gen_source": "synthdata.gen_source_ms"}
    for i, s in enumerate(spans):
        if s[5] != context:
            continue
        if s[0] == "losses.sample_loss":
            totals["losses.sample_loss_ms"] += ix.self_time(i)
        elif s[0] in names and ix.outermost(i):
            totals[names[s[0]]] += ix.duration(i)
    out = {f"pretrain.{k}": 1000.0 * totals[k] / samples
           for k in PRETRAIN_LAYERS if k.endswith("_ms")}
    nodes = {(op, taped): c for (ctx, op, taped), c in tracer.nodes.items() if ctx == context}
    out["pretrain.tensor.nodes"] = sum(nodes.values()) / samples
    out["pretrain.tensor.nodes_taped"] = sum(c for (_, taped), c in nodes.items() if taped) / samples
    for op in OPS:
        out[f"pretrain.tensor.nodes.{op}"] = sum(c for (o, _), c in nodes.items() if o == op) / samples
    return out


def setup_layers(tracer: Tracer) -> dict:
    """ms per set-up for each set-up stage."""
    ix = _Index(tracer.spans)
    spans = tracer.spans
    setups = [i for i, s in enumerate(spans) if s[0] == "setup"]
    stages = {"pretrain": "pretrain_ms", "setup.synthdata": "synthdata_ms",
              "netpbm.read": "netpbm.read_ms", "model.load_checkpoint": "model.load_checkpoint_ms"}
    totals = Counter()
    for i, s in enumerate(spans):
        if s[0] in stages and ix.outermost(i) and any(ix.within(i, r) for r in setups):
            totals[stages[s[0]]] += ix.duration(i)
    return {f"setup.{k}": 1000.0 * totals[k] / len(setups) for k in SETUP_LAYERS}
