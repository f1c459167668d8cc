import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttaseg import netpbm
from ttaseg.cli import main
from ttaseg.metrics import CSV_HEADER, hd95_sentinel, read_metrics_csv
from ttaseg.model import ModelConfig, SegModel, save_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"

TINY_PRETRAIN = ["--epochs", "2", "--n-train", "12", "--n-val", "6", "--seed", "0"]


def run(*argv) -> int:
    return main(list(argv))


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "gen" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert run() == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_subcommand_suggests(capsys):
    assert run("adat") == 1
    err = capsys.readouterr().err
    assert "unknown subcommand" in err and "adapt" in err


def test_unknown_flag_rejected(capsys):
    assert run("gen", "--profile", "source", "--n", "1", "--out", "x", "--bogus") == 1


def test_missing_required_flag_is_usage_error(tmp_path):
    assert run("gen", "--n", "1", "--out", str(tmp_path)) == 1


def test_gen_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "data"
    assert run("gen", "--profile", "mri-like", "--n", "3", "--seed", "1", "--out", str(out)) == 0
    assert (out / "manifest.csv").exists()
    assert sorted(p.name for p in out.glob("img_*.pgm")) == [f"img_{i:05d}.pgm" for i in range(3)]
    assert len(list(out.glob("mask_*.pgm"))) == 3
    run_info = json.loads((out / "run.json").read_text())
    assert run_info["status"] == "success" and run_info["seed"] == 1


def test_gen_negative_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("gen", "--profile", "source", "--n", "-2", "--out", str(out)) == 1
    assert "n must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_gen_zero_count_is_usage_error(tmp_path, capsys):
    """An empty dataset is refused up front, not by ``adapt`` at run time."""
    out = tmp_path / "data"
    assert run("gen", "--profile", "mri-like", "--n", "0", "--out", str(out)) == 1
    assert "n must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_source_writes_ppm(tmp_path):
    out = tmp_path / "src"
    assert run("gen", "--profile", "source", "--n", "2", "--out", str(out)) == 0
    assert len(list(out.glob("img_*.ppm"))) == 2


# the exit code and tracemalloc peak of one ``ttaseg`` command, traced from
# just before ``main`` in a fresh interpreter
_PEAK_SCRIPT = """
import sys, tracemalloc
from ttaseg.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_gen_writes_each_sample_as_it_paints_it(tmp_path):
    """48 more colour samples (4.5 MiB painted) add less than 1 MiB to the
    peak: one painted sample is alive at a time. Each run has an interpreter
    of its own, so what earlier tests left (interned strings, say) does not
    grow under the trace."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peaks = []
    for n in (16, 64):
        argv = ["gen", "--profile", "source", "--n", str(n), "--out", str(tmp_path / str(n))]
        out = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *argv], env=env, capture_output=True,
                             text=True, timeout=300)
        code, peak = out.stdout.splitlines()[-1].split()
        assert code == "0", out.stderr
        peaks.append(int(peak))
    assert len(list((tmp_path / "64").glob("img_*.ppm"))) == 64
    assert peaks[1] - peaks[0] < 2**20


def test_pretrain_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "pretrain.cfg"
    cfg.write_text("epochs = 1\nn_train = 12  # comment\nn_val = 6\nlr = 0.001\n")
    out = tmp_path / "model.ckpt"
    assert run("pretrain", "--config", str(cfg), "--epochs", "2", "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "model.ckpt.run.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag beats file
    assert manifest["config"]["n_train"] == 12
    assert out.exists()


def test_pretrain_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "pretrain.cfg"
    cfg.write_text("episodes = 3\n")
    assert run("pretrain", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")) == 1


MISSING = object()  # a --config path where no file exists
SMALL = ["--epochs", "1", "--n-val", "2", "--n-train", "2"]


@pytest.mark.parametrize("file_text, flags, key", [
    ("epochs = abc\n", [], "'epochs'"),
    ("epochs 1\n", [], "pretrain.cfg:1: expected key=value"),
    (MISSING, [], "pretrain.cfg (FileNotFoundError)"),
    (b"epochs = \xff\n", [], "pretrain.cfg (UnicodeDecodeError)"),
    ("epochs = 1\nn_val = 2\nepochs = 2\n", SMALL[2:], "pretrain.cfg:3: key 'epochs' given twice"),
    ("seed = -1\n", SMALL, "seed must not be negative"),
    (None, ["--n-val", "0"], "n_val"),
    (None, ["--epochs", "0"], "epochs"),
    (None, ["--epochs", "1", "--n-val", "2", "--n-train", "0"], "n_train"),
    (None, ["--epochs", "1", "--n-val", "2", "--n-train", "2", "--lr", "-1"], "lr"),
    (None, ["--epochs", "1", "--n-val", "2", "--n-train", "2", "--lr", "nan"], "lr"),
], ids=["value-not-an-int", "line-without-equals", "missing-file", "not-utf8", "key-given-twice",
        "negative-seed-in-file", "no-validation-samples", "zero-epochs", "no-training-samples",
        "negative-lr", "nan-lr"])
def test_pretrain_bad_config_is_usage_error_naming_the_key(tmp_path, capsys, file_text, flags, key):
    if file_text is not None:
        if file_text is not MISSING:
            data = file_text if isinstance(file_text, bytes) else file_text.encode()
            (tmp_path / "pretrain.cfg").write_bytes(data)
        flags = ["--config", str(tmp_path / "pretrain.cfg"), *flags]
    assert run("pretrain", *flags, "--out", str(tmp_path / "m.ckpt")) == 1
    err = capsys.readouterr().err
    assert key in err and err.startswith("ttaseg: error:")
    assert not (tmp_path / "m.ckpt").exists()
    assert not (tmp_path / "m.ckpt.run.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--profile", "source", "--n", "1"],
    ["pretrain", *SMALL],
    ["adapt", "--checkpoint", "x", "--manifest", "y", "--strategy", "none"],
    ["adapt", "--checkpoint", "x", "--manifest", "y", "--strategy", "sam-tta"],
    ["calibrate", "--checkpoint", "x", "--manifest", "y"],
], ids=["gen", "pretrain", "adapt-none", "adapt-sam-tta", "calibrate"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(*argv, "--seed", "-1", "--out", str(out)) == 1
    assert "seed must not be negative, got -1" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "o.run.json").exists()


def _make_pipeline(tmp_path, n_adapt=4):
    data = tmp_path / "target"
    ckpt = tmp_path / "model.ckpt"
    assert run("gen", "--profile", "mri-like", "--n", str(n_adapt), "--seed", "3",
               "--out", str(data)) == 0
    assert run("pretrain", *TINY_PRETRAIN, "--out", str(ckpt)) == 0
    return data, ckpt


def test_full_pipeline_end_to_end(tmp_path):
    data, ckpt = _make_pipeline(tmp_path)
    out = tmp_path / "adapted"
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--strategy", "sam-tta", "--seed", "0", "--out", str(out),
               "--dump-sbct", str(out / "curves")) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "adapted.ckpt").exists()
    assert (out / "curves" / "sbct_00000.csv").read_text().startswith("t,c1,c2,c3")
    metrics_out = tmp_path / "scored.csv"
    assert run("eval", "--pred", str(out), "--manifest", str(data / "manifest.csv"),
               "--out", str(metrics_out)) == 0
    rows = read_metrics_csv(metrics_out)
    assert len(rows) == 4
    # eval recomputes overlap metrics; they must agree with the adapt log
    logged = read_metrics_csv(out / "metrics.csv")
    for a, b in zip(rows, logged):
        assert a.dice == b.dice and a.hd95 == b.hd95
        assert a.pred_iou == b.pred_iou  # carried over from the adapt log


def test_adapt_rejects_unknown_strategy(tmp_path):
    assert run("adapt", "--checkpoint", "x", "--manifest", "y",
               "--strategy", "cotta", "--out", str(tmp_path)) == 1


def test_adapt_zero_steps_per_image_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("adapt", "--checkpoint", "x", "--manifest", "y", "--strategy", "sam-tta",
               "--steps-per-image", "0", "--out", str(out)) == 1
    assert "steps_per_image" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_missing_checkpoint_is_runtime_error(tmp_path):
    data = tmp_path / "d"
    assert run("gen", "--profile", "ct-like", "--n", "1", "--out", str(data)) == 0
    out = tmp_path / "o"
    assert run("adapt", "--checkpoint", str(tmp_path / "nope.ckpt"),
               "--manifest", str(data / "manifest.csv"),
               "--strategy", "none", "--out", str(out)) == 2
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "error"


def test_adapt_run_json_holds_this_run_only(tmp_path):
    """A successful adapt records the stream under ``result``; a failed
    rerun into the same directory leaves nothing of it behind."""
    data, ckpt = _make_pipeline(tmp_path, n_adapt=2)
    out = tmp_path / "adapted"
    argv = ["--manifest", str(data / "manifest.csv"), "--seed", "0", "--out", str(out)]
    assert run("adapt", "--checkpoint", str(ckpt), "--strategy", "sam-tta", *argv) == 0
    first = json.loads((out / "run.json").read_text())
    assert first["status"] == "success" and first["config"]["strategy"] == "sam-tta"
    assert first["result"]["n_images"] == 2 and first["result"]["skipped"] == []
    assert len(first["result"]["sbct_u"]) == 3 and "mean_dice" in first["result"]["summary"]
    assert run("adapt", "--checkpoint", str(tmp_path / "nope.ckpt"), "--strategy", "none", *argv) == 2
    second = json.loads((out / "run.json").read_text())
    assert second["status"] == "error" and second["config"]["strategy"] == "none"
    assert set(second) == {"subcommand", "config", "seed", "versions", "inputs", "outputs",
                           "status", "error", "wall_clock_sec"}


def test_adapt_run_json_lists_a_skipped_image(tmp_path):
    """The run record of a stream with a skipped image reaches run.json."""
    data, ckpt = _make_pipeline(tmp_path, n_adapt=3)
    # zero the 64x64 payload: an all-background mask gives no prompt
    (data / "mask_00001.pgm").write_bytes((data / "mask_00001.pgm").read_bytes()[:-64 * 64]
                                          + bytes(64 * 64))
    out = tmp_path / "adapted"
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--strategy", "sam-tta", "--seed", "0", "--out", str(out)) == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "success" and manifest["result"]["n_images"] == 3
    assert manifest["result"]["skipped"] == [{"index": 1, "reason": "empty ground-truth mask, no prompt"}]


def test_adapt_skips_an_image_of_another_size(tmp_path):
    """A 32x32 image in a stream of 64x64 ones is a logged skip: the stream
    runs on, every prediction has its own image's size, and the skipped
    row's HD95 is undefined by its own (32x32) sentinel in both ``adapt``'s
    and ``eval``'s summary."""
    data, ckpt = _make_pipeline(tmp_path, n_adapt=3)
    image = netpbm.read_pnm(data / "img_00001.pgm")[16:48, 16:48]
    mask = netpbm.read_pnm(data / "mask_00001.pgm")[16:48, 16:48] > 0.5
    assert mask.any()
    netpbm.write_pgm(data / "img_00001.pgm", image)
    netpbm.write_pgm(data / "mask_00001.pgm", mask)
    manifest = str(data / "manifest.csv")
    out = tmp_path / "adapted"
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", manifest,
               "--strategy", "sam-tta", "--seed", "0", "--out", str(out)) == 0
    sizes = [netpbm.read_pnm(out / f"pred_{i:05d}.pgm").shape for i in range(3)]
    assert sizes == [(64, 64), (32, 32), (64, 64)]
    result = json.loads((out / "run.json").read_text())["result"]
    assert result["skipped"] == [{"index": 1, "reason": "image is 32x32, the model takes 64x64"}]
    rows = read_metrics_csv(out / "metrics.csv")
    assert rows[1].hd95 == hd95_sentinel((32, 32))
    defined = [r.hd95 for r in (rows[0], rows[2]) if r.hd95 < hd95_sentinel((64, 64))]
    assert result["summary"]["hd95_excluded"] == 3 - len(defined)
    scored = tmp_path / "scored.csv"
    assert run("eval", "--pred", str(out), "--manifest", manifest, "--out", str(scored)) == 0
    assert json.loads((tmp_path / "scored.csv.run.json").read_text())["result"]["summary"] == result["summary"]


def test_pipeline_runs_with_scipy_unimportable(tmp_path):
    """Every subcommand runs with each ``scipy`` import made to fail, and
    none of them leaves a ``scipy`` module loaded."""
    script = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not importable here")

sys.meta_path.insert(0, NoScipy())
from ttaseg.cli import main

d = sys.argv[1]
commands = [
    ["gen", "--profile", "ct-like", "--n", "3", "--out", f"{d}/data"],
    ["pretrain", "--epochs", "1", "--n-train", "4", "--n-val", "2", "--out", f"{d}/model.ckpt"],
    ["adapt", "--checkpoint", f"{d}/model.ckpt", "--manifest", f"{d}/data/manifest.csv",
     "--strategy", "sam-tta", "--out", f"{d}/adapted"],
    ["eval", "--pred", f"{d}/adapted", "--manifest", f"{d}/data/manifest.csv", "--out", f"{d}/scored.csv"],
    ["calibrate", "--checkpoint", f"{d}/model.ckpt", "--manifest", f"{d}/data/manifest.csv",
     "--out", f"{d}/cal"],
]
print([main(argv) for argv in commands])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"], out.stderr


def _eval_error(tmp_path, damage) -> str:
    """``eval``'s error on a 2-image dataset whose predictions are its masks,
    after ``damage(data, pred)``; ``eval`` must exit 2."""
    data, pred = tmp_path / "data", tmp_path / "pred"
    assert run("gen", "--profile", "ct-like", "--n", "2", "--out", str(data)) == 0
    pred.mkdir()
    for i in range(2):
        netpbm.write_pgm(pred / f"pred_{i:05d}.pgm", netpbm.read_pnm(data / f"mask_{i:05d}.pgm") > 0.5)
    damage(data, pred)
    out = tmp_path / "scored.csv"
    assert run("eval", "--pred", str(pred), "--manifest", str(data / "manifest.csv"), "--out", str(out)) == 2
    return json.loads((tmp_path / "scored.csv.run.json").read_text())["error"]


def test_eval_rejects_a_colour_mask_naming_it(tmp_path):
    """A colour (P6) ground-truth mask is refused as ``adapt`` refuses it."""
    def colour_mask(data, pred):
        netpbm.write_ppm(data / "mask_00001.pgm", np.ones((3, 64, 64)))

    error = _eval_error(tmp_path, colour_mask)
    assert str(tmp_path / "data" / "mask_00001.pgm") in error
    assert "(3, 64, 64)" in error and "gray plane" in error


def test_eval_rejects_a_prediction_of_another_size_naming_both_files(tmp_path):
    def small_prediction(data, pred):
        netpbm.write_pgm(pred / "pred_00000.pgm", np.zeros((32, 32), dtype=bool))

    error = _eval_error(tmp_path, small_prediction)
    for part in (str(tmp_path / "data" / "mask_00000.pgm"), str(tmp_path / "pred" / "pred_00000.pgm"),
                 "(64, 64)", "(32, 32)"):
        assert part in error


def test_eval_rejects_a_malformed_metrics_file_naming_it(tmp_path):
    """The ``metrics.csv`` that ``eval`` carries logged columns from is read
    as ``adapt`` wrote it; a row it did not write ends ``eval`` with exit 2."""
    def bad_metrics(data, pred):
        (pred / "metrics.csv").write_text(",".join(CSV_HEADER) + "\n0,0.9,1.5\n")

    error = _eval_error(tmp_path, bad_metrics)
    assert f"metrics csv {tmp_path / 'pred' / 'metrics.csv'}: row 0 must hold the 9 fields" in error


def test_eval_missing_prediction_is_runtime_error(tmp_path):
    data, ckpt = _make_pipeline(tmp_path, n_adapt=2)
    assert run("eval", "--pred", str(tmp_path / "nowhere"),
               "--manifest", str(data / "manifest.csv"),
               "--out", str(tmp_path / "m.csv")) == 2


def test_calibrate_off_equals_adapt_none(tmp_path):
    data, ckpt = _make_pipeline(tmp_path)
    adapt_out = tmp_path / "none-run"
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--strategy", "none", "--seed", "0", "--out", str(adapt_out)) == 0
    cal_out = tmp_path / "cal"
    assert run("calibrate", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--mode", "off", "--seed", "0", "--out", str(cal_out)) == 0
    a = read_metrics_csv(adapt_out / "metrics.csv")
    b = read_metrics_csv(cal_out / "metrics_off.csv")
    assert a == b


def test_calibrate_both_reports_delta(tmp_path):
    data, ckpt = _make_pipeline(tmp_path)
    cal_out = tmp_path / "cal"
    assert run("calibrate", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--mode", "both", "--seed", "0", "--out", str(cal_out)) == 0
    payload = json.loads((cal_out / "calibration.json").read_text())
    assert set(payload["modes"]) == {"off", "sbct-only"}
    assert "delta" in payload
    assert (cal_out / "metrics_sbct_only.csv").exists()


def test_calibrate_reports_an_undefined_correlation_as_null(tmp_path, capsys):
    """Every prediction empty: the true IoU has no spread, so Pearson r is
    undefined. ``calibrate`` reports it as ``adapt`` does, undefined, exits 0
    and writes null r and delta."""
    model = SegModel.build(ModelConfig(), 0)
    model.params["dec.highhead.b"].data[...] = -100.0
    ckpt = tmp_path / "empty.ckpt"
    save_checkpoint(model, ckpt)
    data = tmp_path / "data"
    assert run("gen", "--profile", "ct-like", "--n", "8", "--out", str(data)) == 0
    manifest = str(data / "manifest.csv")
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", manifest,
               "--strategy", "none", "--out", str(tmp_path / "none")) == 0
    assert "pearson_r=undefined" in capsys.readouterr().out
    out = tmp_path / "cal"
    assert run("calibrate", "--checkpoint", str(ckpt), "--manifest", manifest, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "mode=off: pearson_r=undefined" in printed and "mode=sbct-only: pearson_r=undefined" in printed
    assert "delta=undefined" in printed
    expected = {"seed": 0, "n": 8, "modes": {"off": {"pearson_r": None}, "sbct-only": {"pearson_r": None}},
                "delta": None}
    assert json.loads((out / "calibration.json").read_text()) == expected
    manifest_json = json.loads((out / "run.json").read_text())
    assert manifest_json["status"] == "success" and manifest_json["result"] == expected
    assert all(row.dice == 0.0 for row in read_metrics_csv(out / "metrics_off.csv"))


def test_an_interrupted_run_records_it_and_raises_on(tmp_path, monkeypatch):
    """An interrupt (Ctrl-C) inside the body leaves run.json saying so, not
    "running", and still stops the process."""
    def interrupted(samples, out_dir):
        raise KeyboardInterrupt

    monkeypatch.setattr("ttaseg.synthdata.write_dataset", interrupted)
    out = tmp_path / "data"
    with pytest.raises(KeyboardInterrupt):
        run("gen", "--profile", "mri-like", "--n", "1", "--out", str(out))
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["status"] == "interrupted" and "error" not in manifest
    assert manifest["wall_clock_sec"] >= 0.0


def test_run_manifest_written_on_failure_and_replayable(tmp_path):
    data = tmp_path / "data"
    assert run("gen", "--profile", "mri-like", "--n", "1", "--out", str(data)) == 0
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(SegModel.build(ModelConfig(), 0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    out = tmp_path / "adapted"
    # a truncated checkpoint fails inside the body, after run.json scaffolding
    assert run("adapt", "--checkpoint", str(ckpt), "--manifest", str(data / "manifest.csv"),
               "--strategy", "none", "--seed", "0", "--out", str(out)) == 2
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["subcommand"] == "adapt"
    assert {"config", "versions", "wall_clock_sec", "status"} <= set(manifest)
    assert manifest["status"] == "error" and "truncated" in manifest["error"]
