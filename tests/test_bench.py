"""``scripts/bench.py``: the order of a pair's runs, and ``compare``'s
pairing by seed, counts and verdicts."""

import importlib.util

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench", REPO_ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _line(lines, workload, metric):
    (line,) = [x for x in lines if x.startswith(f"{workload} {metric} ")]
    return line


def test_committed_bench_pair_counts_and_withholds_a_verdict():
    old, new = (bench.json.loads((REPO_ROOT / name).read_text())
                for name in ("BENCH_parent.json", "BENCH_pr8.json"))
    lines = bench.compare(old, new)
    assert "3 better, 0 worse, 0 tied -> no verdict" in _line(lines, "adapt-mri", "sam-tta.ms_per_image_mean")
    # the pretrain-source p90s moved both ways
    for strategy, moved in (("none", "1 better, 2 worse"), ("tent", "2 better, 1 worse"),
                            ("sam-tta", "1 better, 2 worse")):
        assert moved in _line(lines, "pretrain-source", f"{strategy}.ms_per_image_p90")
    assert _line(lines, "adapt-mri", "sam-tta.mean_dice").endswith("-> equal")
    assert _line(lines, "pretrain-source", "pretrain.val_dice").endswith("-> equal")


def test_verdict_needs_nine_tenths_of_ten_pairs():
    old = [10.0] * 10
    assert bench.verdict("pretrain.ms_per_sample", "ms", old, [9.0] * 9 + [11.0]) == "faster"
    assert bench.verdict("pretrain.ms_per_sample", "ms", old, [11.0] * 9 + [10.0]) == "slower"
    assert bench.verdict("pretrain.ms_per_sample", "ms", old, [9.0] * 8 + [11.0] * 2) == "within noise"
    assert bench.verdict("pretrain.ms_per_sample", "ms", old[:9], [9.0] * 9).startswith("no verdict")
    assert bench.verdict("adapted_rate", "ratio", [1.0, 1.0], [1.0, 0.99]) == "changed (1 of 2 pairs)"
    assert bench.verdict("none.mean_dice", "dice", [0.4, 0.5], [0.4, 0.5]) == "equal"


@pytest.mark.parametrize("traces", [(0,), (0, 1)])
def test_record_alternates_the_first_tree_seed_by_seed(tmp_path, monkeypatch, traces):
    """Over four seeds, each tree runs first in two pairs of every
    (workload, trace), whatever the number of workloads and trace modes."""
    order = []

    def run_once(tree, workload, seed, seconds, trace):
        order.append((tree.name, workload, seed, trace))
        return {"result": {"correct": True, "metrics": {}}, "record": {}, "wall_s": 0.0}

    monkeypatch.setattr(bench, "run_once", run_once)
    trees = [("base", tmp_path / "base"), ("change", tmp_path / "change")]
    bench.record(trees, [1, 2, 3, 4], 0.0, tmp_path / "out", traces)
    assert len(order) == 2 * 4 * len(bench.WORKLOADS) * len(traces)
    for workload in bench.WORKLOADS:
        for trace in traces:
            firsts = [next(o[0] for o in order if o[1:] == (workload, seed, trace)) for seed in (1, 2, 3, 4)]
            assert sorted(firsts) == ["base", "base", "change", "change"], (workload, trace, firsts)
