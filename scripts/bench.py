#!/usr/bin/env python3
"""Record the benchmark of one or more source trees in ``BENCH_<tag>.json``,
and compare two of them pair by pair.

    python3 scripts/bench.py new=. old=../old-checkout --seeds 1 2 3
    python3 scripts/bench.py compare BENCH_old.json BENCH_new.json
    python3 scripts/bench.py compare old=../old-checkout new=. --seeds 201 202 ... 210

For every seed, workload of ``BENCHMARK.json`` and trace mode
(``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones) the first form runs ``python3 perfbench/run.py`` once in each tree,
from that tree's root, alternating seed by seed which tree goes first, so
that a drift of the machine's speed falls on every tree alike. Then it
writes one ``BENCH_<tag>.json`` per tree into ``--out-dir``: for every
metric its unit, trace mode, median over the seeds, IQR/median and the
value of each run; every run's correctness, wall time and metrics; and the
environment record of the tree's first run. A run that fails or reports
``correct=false`` is kept in the file and makes the script exit with
status 1.

``compare`` pairs the runs of two BENCH files by workload, seed and trace
mode. Given two trees instead, it first runs one untraced pair per seed
and workload, interleaved as above, and writes both BENCH files, so the
pairs a verdict rests on are stored. For every metric it prints each
side's median and quartiles, the ratio (second over first) of each pair
and their median, how many pairs moved each way, and a verdict: faster or
slower (better or worse, for metrics not in time units) only when at least
nine tenths of at least ten pairs moved that way, "within noise"
otherwise. Dice metrics, ``pretrain.val_dice`` and ``adapted_rate`` are
"equal" when every pair matches exactly, and "changed" otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# metrics that a change meant to keep results byte for byte must not move
EXACT = {"adapted_rate", "pretrain.val_dice"}
# a verdict needs this many pairs, this share of them moving one way
MIN_PAIRS = 10
AGREE = 0.9


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
                      "wall_s": round(r["wall_s"], 2),
                      "metrics": {name: m["value"] for name, m in r["result"]["metrics"].items()}}
                     for r in mine],
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


def _trees(parser, items) -> list:
    trees = []
    for item in items:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"{item!r} is not TAG=DIR with DIR/perfbench/run.py")
        trees.append((tag, Path(path).resolve()))
    return trees


def record(trees: list, seeds: list, seconds: float, out_dir: Path, traces=(0, 1)) -> tuple:
    """Run the plan in every tree, interleaved, and write one BENCH file per
    tree; returns the summaries by tag and whether every run was correct."""
    runs = {tag: [] for tag, _ in trees}
    plan = list(itertools.product(enumerate(seeds), WORKLOADS, traces))
    for i, ((k, seed), workload, trace) in enumerate(plan):
        # seed by seed, so that each (workload, trace) alternates on its own
        for tag, tree in trees if k % 2 == 0 else reversed(trees):
            run = run_once(tree, workload, seed, seconds, trace)
            runs[tag].append({"workload": workload, "seed": seed, "trace": trace, **run})
            print(f"bench: {i + 1}/{len(plan)} {tag} {workload} seed {seed} trace {trace} "
                  f"correct={run['result']['correct']} {run['wall_s']:.1f} s", file=sys.stderr)

    ok = True
    summaries = {}
    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, _ in trees:
        summaries[tag] = summarize(tag, runs[tag], seeds, seconds)
        path = out_dir / f"BENCH_{tag}.json"
        path.write_text(json.dumps(summaries[tag], indent=1) + "\n")
        ok = ok and all(r["result"]["correct"] for r in runs[tag])
        print(f"bench: wrote {path}", file=sys.stderr)
    return summaries, ok


# -- compare -------------------------------------------------------------------


def run_values(entry: dict) -> dict:
    """{(seed, trace): {metric: value}} of one workload of a BENCH file.
    Files that predate per-run metrics list each metric's values in run
    order; those are matched to the runs of the metric's trace mode."""
    out = {}
    for r in entry["runs"]:
        if "metrics" in r:
            out[(r["seed"], r["trace"])] = r["metrics"]
    if out:
        return out
    for name, m in entry["metrics"].items():
        keys = [(r["seed"], r["trace"]) for r in entry["runs"] if r["trace"] == m["trace"]]
        if len(keys) == len(m["values"]):
            for key, value in zip(keys, m["values"]):
                out.setdefault(key, {})[name] = value
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def moves(name: str, old: list, new: list) -> tuple:
    """How many pairs moved the better way, and how many the worse way."""
    lower = BETTER.get(name, "lower") == "lower"
    better = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
    worse = sum((b > a) if lower else (b < a) for a, b in zip(old, new))
    return better, worse


def verdict(name: str, unit: str, old: list, new: list) -> str:
    n = len(old)
    if unit == "dice" or name in EXACT:
        changed = sum(a != b for a, b in zip(old, new))
        return f"changed ({changed} of {n} pairs)" if changed else "equal"
    if n < MIN_PAIRS:
        return f"no verdict ({n} pairs, {MIN_PAIRS} needed)"
    better, worse = moves(name, old, new)
    words = ("faster", "slower") if unit in ("ms", "s") else ("better", "worse")
    need = math.ceil(AGREE * n)
    return words[0] if better >= need else words[1] if worse >= need else "within noise"


def compare(old: dict, new: dict) -> list:
    """One line per workload and metric measured in both files."""
    lines = [f"compare: {old['tag']} -> {new['tag']}; ratio = {new['tag']} / {old['tag']}"]
    for workload in WORKLOADS:
        if workload not in old["workloads"] or workload not in new["workloads"]:
            continue
        a, b = run_values(old["workloads"][workload]), run_values(new["workloads"][workload])
        units = {n: m["unit"] for n, m in old["workloads"][workload]["metrics"].items()}
        keys = sorted(a.keys() & b.keys())
        for name in sorted({n for k in keys for n in a[k].keys() & b[k].keys()}):
            pairs = [k for k in keys if name in a[k] and name in b[k]]
            xs, ys = [a[k][name] for k in pairs], [b[k][name] for k in pairs]
            better, worse = moves(name, xs, ys)
            ratios = [y / x if x else math.nan for x, y in zip(xs, ys)]
            q_old, q_new = quartiles(xs), quartiles(ys)
            lines.append(
                f"{workload} {name} [{units.get(name, '?')}, trace {pairs[0][1]}]: "
                f"{old['tag']} {q_old[1]:.6g} [{q_old[0]:.6g}, {q_old[2]:.6g}], "
                f"{new['tag']} {q_new[1]:.6g} [{q_new[0]:.6g}, {q_new[2]:.6g}]; "
                f"median ratio {statistics.median(ratios):.4f}, pairs "
                f"{' '.join(f'{r:.3f}' for r in ratios)}; {better} better, {worse} worse, "
                f"{len(pairs) - better - worse} tied -> {verdict(name, units.get(name, ''), xs, ys)}")
    return lines


def _parser(description: str, sides_help: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("sides", nargs="+", metavar="TAG=DIR", help=sides_help)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out-dir", type=Path, default=Path.cwd())
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] != ["compare"]:
        parser = _parser(__doc__.splitlines()[0],
                         "a tag for the output file name and the root of a source tree")
        args = parser.parse_args(argv)
        return 0 if record(_trees(parser, args.sides), args.seeds, args.seconds, args.out_dir)[1] else 1

    parser = _parser("Compare two BENCH files, or run untraced interleaved pairs of two trees "
                     "and compare them.", "two BENCH files, or two trees: first the base, then the change")
    parser.prog += " compare"
    args = parser.parse_args(argv[1:])
    if len(args.sides) != 2:
        parser.error("compare takes two BENCH files or two TAG=DIR trees")
    ok = True
    if all(Path(side).is_file() for side in args.sides):
        old, new = (json.loads(Path(side).read_text()) for side in args.sides)
    else:
        trees = _trees(parser, args.sides)
        summaries, ok = record(trees, args.seeds, args.seconds, args.out_dir, traces=(0,))
        old, new = (summaries[tag] for tag, _ in trees)
    print("\n".join(compare(old, new)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
