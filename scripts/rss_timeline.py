#!/usr/bin/env python3
"""Resident-memory timeline of one benchmark workload, run in this process.

    python3 scripts/rss_timeline.py --workload adapt-mri --seed 21 --seconds 0

Run it from the root of a source tree, as ``perfbench/run.py``: it imports
``ttaseg`` from ``src/`` and the workloads from ``perfbench/`` there, and
writes only under ``.bench_work/`` there. It wraps ``workloads.set_up`` and
``workloads.adapt_pass`` from outside (nothing under ``perfbench/`` is
edited), ``ttaseg.pretrain.pretrain`` and ``ttaseg.adapt.load_stream``,
while a thread samples ``VmRSS`` from ``/proc/self/status`` every 5 ms. It
prints the RSS after the imports and at the start and end of every set-up,
pretraining call, stream load and adaptation pass, each with the highest
sample since the previous line, then the sampled peak, the kernel's
high-water mark and the workload's own ``peak_rss_mb``. A set-up's
pretraining and stream-load lines separate its pretraining share from its
stream share. ``--seconds 0`` gives the shortest run:
two set-ups, each followed by a pass of the four strategies (and, for
``pretrain-source``, a pretraining call after the first pass).
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
STATUS = Path("/proc/self/status")
INTERVAL_S = 0.005


def vm_rss_mb() -> float:
    for line in STATUS.read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{STATUS} has no VmRSS line")


class Sampler:
    """VmRSS every ``INTERVAL_S`` in a daemon thread: the highest sample
    since the last ``mark``, and overall."""

    def __init__(self):
        self.since_mark = self.peak = vm_rss_mb()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self._take(vm_rss_mb())

    def _take(self, rss: float):
        with self._lock:
            self.since_mark = max(self.since_mark, rss)
            self.peak = max(self.peak, rss)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def mark(self, label: str):
        """Print the RSS now and the highest sample since the last mark."""
        rss = vm_rss_mb()
        self._take(rss)
        with self._lock:
            high, self.since_mark = self.since_mark, rss
        print(f"{label:<24} {rss:8.1f} MB   (highest since the previous line {high:8.1f} MB)",
              flush=True)


def _marked(sampler: Sampler, fn, label: str):
    count = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal count
        name = f"{label} {count}"
        count += 1
        sampler.mark(f"{name} start")
        try:
            return fn(*args, **kwargs)
        finally:
            sampler.mark(f"{name} end")

    return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="adapt-mri", choices=("adapt-mri", "pretrain-source"))
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if not STATUS.is_file():
        print(f"rss_timeline: {STATUS} is absent; this script needs Linux procfs", file=sys.stderr)
        return 2
    if not (ROOT / "perfbench" / "workloads.py").is_file():
        print(f"rss_timeline: no perfbench/workloads.py under {ROOT}; run from the root of a "
              "source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as perfbench_run

    perfbench_run._blas_threads()  # as the benchmark pins them, before numpy loads
    import workloads
    from ttaseg import adapt, pretrain

    sampler = Sampler()
    sampler.mark("after imports")
    workloads.set_up = _marked(sampler, workloads.set_up, "set-up")
    workloads.adapt_pass = _marked(sampler, workloads.adapt_pass, "pass")
    pretrain.pretrain = _marked(sampler, pretrain.pretrain, "pretrain")
    adapt.load_stream = _marked(sampler, adapt.load_stream, "load_stream")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    run = workloads.Run()
    start = time.perf_counter()
    sampler.start()
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            values = workloads.WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp), run)
    finally:
        sampler.stop()
    sampler.mark("end")
    print(f"sampled peak {sampler.peak:.1f} MB; ru_maxrss "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB; workload "
          f"peak_rss_mb {values['peak_rss_mb']:.1f}; {time.perf_counter() - start:.1f} s; "
          f"checks failed: {len(run.failures)}")
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
