#!/usr/bin/env python3
"""Record the benchmark of one or more source trees in ``BENCH_<tag>.json``.

    python3 scripts/bench.py new=. old=../old-checkout --seeds 1 2 3

For every seed, workload of ``BENCHMARK.json`` and trace mode
(``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones) it runs ``python3 perfbench/run.py`` once in each tree, from that
tree's root, alternating which tree goes first so that a drift of the
machine's speed falls on every tree alike. Then it writes one
``BENCH_<tag>.json`` per tree into ``--out-dir``: for every metric its
unit, trace mode, median over the seeds, IQR/median and the value of each
run; every run's correctness and wall time; and the environment record of
the tree's first run. A run that fails or reports ``correct=false`` is kept
in the file and makes the script exit with status 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result line, record line and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=30 * seconds + 600)
    wall = time.perf_counter() - start
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = lines[-1] if lines and "correct" in lines[-1] else {"correct": False, "metrics": {}}
    record = next((line["record"] for line in lines if "record" in line), {})
    if proc.returncode or not result["correct"]:
        print(f"bench: {tree} {workload} seed {seed} trace {trace} failed "
              f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
    return {"result": result, "record": record, "wall_s": wall}


def spread(values: list) -> dict:
    """Median, IQR/median (quartiles by the inclusive method) and the values."""
    median = statistics.median(values)
    iqr = None
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = (q3 - q1) / abs(median)
    return {"median": median, "iqr_over_median": iqr, "values": values}


def summarize(tag: str, runs: list, seeds: list, seconds: float) -> dict:
    out = {"tag": tag,
           "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace X",
           "seeds": seeds, "seconds": seconds, "environment": None, "workloads": {}}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        values, units = {}, {}
        for r in mine:
            for name, m in r["result"]["metrics"].items():
                values.setdefault((r["trace"], name), []).append(m["value"])
                units[name] = m["unit"]
        out["workloads"][workload] = {
            "runs": [{"seed": r["seed"], "trace": r["trace"], "correct": r["result"]["correct"],
                      "attempted": r["result"].get("attempted"), "failed": r["result"].get("failed"),
                      "wall_s": round(r["wall_s"], 2)} for r in mine],
            "metrics": {name: {"unit": units[name], "trace": trace, **spread(v)}
                        for (trace, name), v in sorted(values.items())},
        }
        if out["environment"] is None and mine:
            # the sources are named by source_sha256; the commit that run.py
            # reads from .git misnames an uncommitted tree
            env = dict(mine[0]["record"].get("environment", {}))
            env.pop("seed", None)
            env.pop("commit", None)
            out["environment"] = env
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="TAG=DIR",
                        help="a tag for the output file name and the root of a source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out-dir", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)

    trees = []
    for item in args.trees:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"{item!r} is not TAG=DIR with DIR/perfbench/run.py")
        trees.append((tag, Path(path).resolve()))

    runs = {tag: [] for tag, _ in trees}
    plan = list(itertools.product(args.seeds, WORKLOADS, (0, 1)))
    for i, (seed, workload, trace) in enumerate(plan):
        for tag, tree in trees if i % 2 == 0 else reversed(trees):
            run = run_once(tree, workload, seed, args.seconds, trace)
            runs[tag].append({"workload": workload, "seed": seed, "trace": trace, **run})
            print(f"bench: {i + 1}/{len(plan)} {tag} {workload} seed {seed} trace {trace} "
                  f"correct={run['result']['correct']} {run['wall_s']:.1f} s", file=sys.stderr)

    ok = True
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for tag, _ in trees:
        path = args.out_dir / f"BENCH_{tag}.json"
        path.write_text(json.dumps(summarize(tag, runs[tag], args.seeds, args.seconds), indent=1) + "\n")
        ok = ok and all(r["result"]["correct"] for r in runs[tag])
        print(f"bench: wrote {path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
