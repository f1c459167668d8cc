"""Command-line entry point: gen, pretrain, adapt, eval, calibrate.

Once a run starts, every subcommand writes a replayable run manifest
(resolved config, seed, versions, paths, wall clock) before exiting, on
success, on runtime failure and on interruption (status ``interrupted``,
the interrupt raised on); ``_execute`` is its only writer. A usage
error (an unknown flag or config key, a value out of range, or a bad
config file) exits 1 before a run starts and writes no manifest. Config
precedence for pretrain is defaults < config file < CLI flags. Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, adapt, metrics, pretrain, synthdata
from .model import load_checkpoint


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _versions() -> dict:
    return {
        "ttaseg": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _execute(subcommand: str, run_path: Path, config: dict, inputs: dict, outputs: dict, fn) -> int:
    """Run a subcommand body with the run-manifest contract around it."""
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": config.get("seed"),
        "versions": _versions(),
        "inputs": inputs,
        "outputs": outputs,
        "status": "running",
    }
    t0 = time.time()
    try:
        result = fn()
        manifest["status"] = "success"
        if result:
            manifest["result"] = result
        return 0
    except Exception as exc:  # runtime failure -> exit 2, manifest still written
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"ttaseg {subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        manifest["status"] = "interrupted"
        raise
    finally:
        manifest["wall_clock_sec"] = time.time() - t0
        # a fresh file: nothing of an earlier run in the same place survives
        run_path.parent.mkdir(parents=True, exist_ok=True)
        run_path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")


# -- subcommand bodies --------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.n < 1:
        _usage_fail(f"n must be positive, got {args.n}")
    if args.seed < 0:
        _usage_fail(f"seed must not be negative, got {args.seed}")
    out = Path(args.out)

    def body():
        # painted one at a time as each is written
        manifest = synthdata.write_dataset(map(synthdata.paint, synthdata.scenes(args.seed, args.n, args.profile)), out)
        print(f"wrote {args.n} samples to {out} (manifest: {manifest})")
        return {"manifest": str(manifest)}

    config = {"profile": args.profile, "n": args.n, "seed": args.seed}
    return _execute("gen", out / "run.json", config, {}, {"out": str(out)}, body)


def _parse_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _usage_fail(f"cannot read config file {path} ({type(exc).__name__})")
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_fail(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            _usage_fail(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = value
    return values


def _cmd_pretrain(args) -> int:
    defaults = pretrain.PretrainConfig()
    cfg_fields = [f.name for f in fields(pretrain.PretrainConfig)]
    values = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in cfg_fields:
                _usage_fail(f"unknown config key {key!r} in {args.config}")
            values[key] = raw
    for name in cfg_fields:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    coerced = {}
    for key, value in values.items():
        kind = type(getattr(defaults, key))
        try:
            coerced[key] = kind(value)
        except ValueError:
            _usage_fail(f"config key {key!r}: expected {kind.__name__}, got {value!r}")
    try:
        cfg = pretrain.PretrainConfig(**coerced)
    except ValueError as exc:
        _usage_fail(str(exc))
    out = Path(args.out)

    def body():
        summary = pretrain.pretrain(cfg, out)
        print(f"pretrained: best_val_dice={summary['best_val_dice']:.4f} "
              f"val_iou_r={metrics.format_value(summary['final_val_pearson_r'])} -> {out}")
        return summary

    return _execute("pretrain", out.with_suffix(out.suffix + ".run.json"), asdict(cfg),
                    {"config_file": args.config}, {"checkpoint": str(out)}, body)


def _usage_fail(message: str):
    print(f"ttaseg: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _cmd_adapt(args) -> int:
    out = Path(args.out)
    try:
        cfg = adapt.AdaptConfig(
            strategy=args.strategy,
            seed=args.seed,
            steps_per_image=args.steps_per_image,
            reset_optimizer=args.reset_optimizer,
        )
    except ValueError as exc:
        _usage_fail(str(exc))

    def body():
        model = load_checkpoint(args.checkpoint)
        samples = adapt.load_stream(args.manifest)
        result = adapt.adapt_stream(model, samples, cfg, out, dump_sbct_dir=args.dump_sbct)
        print(metrics.format_summary(result["summary"]))
        return result["record"]

    return _execute("adapt", out / "run.json", asdict(cfg),
                    {"checkpoint": str(args.checkpoint), "manifest": str(args.manifest)},
                    {"out": str(out), "dump_sbct": args.dump_sbct and str(args.dump_sbct)}, body)


def _cmd_eval(args) -> int:
    out = Path(args.out)

    def body():
        pairs = synthdata.load_manifest(args.manifest)
        pred_dir = Path(args.pred)
        carried = {}
        source_csv = pred_dir / "metrics.csv"
        if source_csv.exists():
            carried = {r.index: r for r in metrics.read_metrics_csv(source_csv)}
        rows = []
        sentinels = []
        for i, (_, mask_path) in enumerate(pairs):
            gt = synthdata.read_mask(mask_path)
            sentinels.append(metrics.hd95_sentinel(gt.shape))
            pred = synthdata.read_mask(pred_dir / f"pred_{i:05d}.pgm", mask_path, gt.shape)
            prev = carried.get(i)
            logged = (prev.pred_iou, prev.l_icm, prev.l_dpc, prev.l_ifc, prev.lambda_dpc) if prev else ()
            rows.append(metrics.score_row(i, pred, gt, *logged))
        metrics.write_metrics_csv(rows, out)
        summary = metrics.summarize(rows, sentinels)
        print(metrics.format_summary(summary))
        return {"summary": summary}

    return _execute("eval", out.with_suffix(out.suffix + ".run.json"),
                    {"pred": str(args.pred), "manifest": str(args.manifest), "seed": None},
                    {"pred": str(args.pred), "manifest": str(args.manifest)},
                    {"metrics": str(out)}, body)


def _cmd_calibrate(args) -> int:
    if args.seed < 0:
        _usage_fail(f"seed must not be negative, got {args.seed}")
    out = Path(args.out)
    modes = ("off", "sbct-only") if args.mode == "both" else (args.mode,)

    def body():
        model = load_checkpoint(args.checkpoint)
        samples = adapt.load_stream(args.manifest)
        report = adapt.run_calibration(model, samples, args.seed, modes=modes)
        out.mkdir(parents=True, exist_ok=True)
        for mode, entry in report["modes"].items():
            metrics.write_metrics_csv(entry.pop("rows"), out / f"metrics_{mode.replace('-', '_')}.csv")
            print(f"mode={mode}: pearson_r={metrics.format_value(entry['pearson_r'])}")
        if "delta" in report:
            print(f"delta={metrics.format_value(report['delta'])}")
        (out / "calibration.json").write_text(json.dumps(report, indent=2) + "\n")
        return report

    return _execute("calibrate", out / "run.json",
                    {"mode": args.mode, "seed": args.seed},
                    {"checkpoint": str(args.checkpoint), "manifest": str(args.manifest)},
                    {"out": str(out)}, body)


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    """The one table of subcommands: each subparser carries its handler.
    ``parser.commands`` names them."""
    parser = _Parser(prog="ttaseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("gen", _cmd_gen, "generate a synthetic dataset")
    p.add_argument("--profile", required=True, choices=sorted(synthdata.PROFILES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("pretrain", _cmd_pretrain, "train the source checkpoint")
    p.add_argument("--config", default=None, help="key=value file; flags override")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-val", dest="n_val", type=int)

    p = command("adapt", _cmd_adapt, "run a test-time adaptation stream")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=adapt.STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps-per-image", dest="steps_per_image", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-sbct", dest="dump_sbct", default=None)
    p.add_argument("--reset-optimizer", dest="reset_optimizer", action="store_true")

    p = command("eval", _cmd_eval, "score saved predictions against a manifest")
    p.add_argument("--pred", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = command("calibrate", _cmd_calibrate, "IoU-estimate calibration, frozen vs curve-adapted input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", default="both", choices=("off", "sbct-only", "both"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    parser.commands = tuple(sub.choices)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in parser.commands:
        guess = difflib.get_close_matches(argv[0], parser.commands, n=1)
        hint = f" (did you mean {guess[0]!r}?)" if guess else ""
        print(f"ttaseg: error: unknown subcommand {argv[0]!r}{hint}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
