#!/usr/bin/env python3
"""Print sha256 digests of a small seeded pipeline, for byte-identity checks.

Writes a small dataset of every shift profile with ``ttaseg gen``, then
pretrains a small checkpoint (2 epochs x 60 samples, seed 0), then adapts an
mri-like target stream and a colour source stream with every strategy at K = 1
and at K = 2 with the optimizer reset per image, and runs the calibration
experiment on a ct-like stream. Each line is ``<key> <value>``: one digest
per profile of the files ``gen`` writes (the manifest, then every image and
mask in manifest order; not its run.json, which holds the wall clock), the
checkpoint digest, one ``metrics.csv`` + ``adapted.ckpt`` digest per run,
the calibration delta, and the ``--dump-sbct`` output (every curve CSV,
every composite) of a sam-tta K = 1 run on each stream written to files and
read back, as the CLI reads it. Two ``reload`` lines close the list: the
digest of the pretrained checkpoint and of a LoRA ``adapted.ckpt`` after
``load_checkpoint`` and ``save_checkpoint``; the script fails if either
differs from its original's. Run it in two checkouts and diff the outputs to
show that a change keeps behaviour byte for byte:

    python3 scripts/digest_outputs.py > digests.txt

It imports ``ttaseg`` from the ``src/`` next to this script and takes about
10 s on a 2-core x86 VM.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ttaseg import cli, pretrain, synthdata  # noqa: E402
from ttaseg.adapt import AdaptConfig, adapt_stream, load_stream, run_calibration  # noqa: E402
from ttaseg.model import load_checkpoint, save_checkpoint  # noqa: E402

STRATEGIES = ("none", "tent", "mean-teacher", "sam-tta", "sbct-only")
STEPS = {"K1": {}, "K2": {"steps_per_image": 2, "reset_optimizer": True}}
ADAPT_SEED = 3


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def main():
    streams = {
        "mri": synthdata.gen_target(5, 10, "mri-like"),
        "colour": synthdata.gen_source(7, 6),
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for profile in sorted(synthdata.PROFILES):
            out = work / f"gen-{profile}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["gen", "--profile", profile, "--n", "3", "--seed", "11", "--out", str(out)])
            if code != 0:
                sys.exit(f"ttaseg gen --profile {profile} exited {code}")
            files = [path for pair in synthdata.load_manifest(out / "manifest.csv") for path in pair]
            print(f"gen/{profile} {_sha(out / 'manifest.csv', *files)}")
        ckpt = work / "pretrained.ckpt"
        pretrain.pretrain(pretrain.PretrainConfig(epochs=2, n_train=60, n_val=20, seed=0), ckpt)
        print(f"pretrained.ckpt {_sha(ckpt)}")
        model = load_checkpoint(ckpt)
        for stream_name, samples in streams.items():
            for strategy in STRATEGIES:
                for k_name, extra in STEPS.items():
                    out = work / f"{stream_name}-{strategy}-{k_name}"
                    adapt_stream(model, samples, AdaptConfig(strategy=strategy, seed=ADAPT_SEED, **extra), out)
                    print(f"{stream_name}/{strategy}/{k_name} {_sha(out / 'metrics.csv', out / 'adapted.ckpt')}")
        report = run_calibration(model, synthdata.gen_target(21, 8, "ct-like"), seed=0)
        print(f"calibration.delta {report['delta']!r}")
        for stream_name, samples in streams.items():
            # images read from 8-bit files, not held in memory
            manifest = synthdata.write_dataset(samples, work / f"{stream_name}-files")
            out = work / f"{stream_name}-dump"
            adapt_stream(model, load_stream(manifest), AdaptConfig(strategy="sam-tta", seed=ADAPT_SEED),
                         out, dump_sbct_dir=out / "sbct")
            for kind, pattern in (("csv", "sbct_*.csv"), ("composite", "composite_*.ppm")):
                files = sorted((out / "sbct").glob(pattern))
                print(f"{stream_name}/sam-tta/K1/dump-sbct.{kind} {_sha(*files)}")
        lora_ckpt = work / "mri-sam-tta-K1" / "adapted.ckpt"
        for key, original in (("pretrained.ckpt", ckpt), ("mri/sam-tta/K1/adapted.ckpt", lora_ckpt)):
            copy = work / "reloaded.ckpt"
            save_checkpoint(load_checkpoint(original), copy)
            digest = _sha(copy)
            print(f"{key}.reload {digest}")
            if digest != _sha(original):
                sys.exit(f"{key}: load_checkpoint then save_checkpoint changed the bytes")


if __name__ == "__main__":
    main()
