"""ttaseg benchmark: one run of one workload.

    python3 perfbench/run.py --workload adapt-mri --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree; it imports ``ttaseg`` from ``src/``
there and writes only under ``.bench_work/`` there. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``). The line before
it is a record of the environment, the determinism digests and the checks.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"


def _blas_threads() -> int:
    """Pin BLAS threads before numpy loads: the requested count, or the
    number of usable cores, and never more than that."""
    nproc = len(os.sched_getaffinity(0))
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    threads = max(1, min(requested, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs between numpy versions
        blas = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "ttaseg").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("adapt-mri", "pretrain-source"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ttaseg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no ttaseg sources under {SRC} or no {spec_path.name}; "
              "run from the root of a source tree", file=sys.stderr)
        return 2
    threads = _blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]

    import tracing
    import workloads

    spec = json.loads(spec_path.read_text())
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    run = workloads.Run()
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed, threads)}
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            if args.trace:
                tracer = tracing.Tracer()
                values = workloads.traced(args.workload, args.seed, args.seconds, Path(tmp), run,
                                          tracer)
                trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
                tracer.write(trace_path)
                record["trace_file"] = str(trace_path.relative_to(ROOT))
            else:
                values = workloads.WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp), run)
    except Exception:
        traceback.print_exc()
        record.update(run.record, checks_failed=run.failures, digests=run.digests)
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    run.check(set(values) == set(units),
              f"metrics measured {sorted(set(values) ^ set(units))} differ from those declared")
    record.update(run.record, skip_rate=run.skipped / max(run.adapting_images, 1),
                  checks_failed=run.failures, digests=run.digests)
    for message in run.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
