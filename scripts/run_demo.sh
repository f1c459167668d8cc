#!/usr/bin/env bash
# Small end-to-end pipeline: generate data, pretrain, adapt with every
# strategy, score, and run the calibration comparison. ~3 minutes on CPU.
set -euo pipefail

ROOT="${1:-demo-run}"
mkdir -p "$ROOT"

ttaseg gen --profile source --n 200 --seed 0 --out "$ROOT/source"
ttaseg gen --profile mri-like --n 60 --seed 0 --out "$ROOT/target"

ttaseg pretrain --epochs 8 --n-train 200 --n-val 60 --seed 0 --out "$ROOT/model.ckpt"

for strategy in none mean-teacher tent sam-tta; do
    ttaseg adapt --checkpoint "$ROOT/model.ckpt" \
        --manifest "$ROOT/target/manifest.csv" \
        --strategy "$strategy" --seed 0 \
        --out "$ROOT/run-$strategy"
done

ttaseg adapt --checkpoint "$ROOT/model.ckpt" \
    --manifest "$ROOT/target/manifest.csv" \
    --strategy sam-tta --seed 0 \
    --out "$ROOT/run-sam-tta-curves" --dump-sbct "$ROOT/curves"

ttaseg eval --pred "$ROOT/run-sam-tta" \
    --manifest "$ROOT/target/manifest.csv" --out "$ROOT/scored.csv"

ttaseg calibrate --checkpoint "$ROOT/model.ckpt" \
    --manifest "$ROOT/target/manifest.csv" --mode both --seed 0 \
    --out "$ROOT/calibration"

echo
echo "summaries:"
for strategy in none mean-teacher tent sam-tta; do
    printf '  %-13s ' "$strategy"
    python3 -c "import json,sys; d=json.load(open('$ROOT/run-$strategy/run.json')); s=d['result']['summary']; print(f\"dice={s['mean_dice']:.4f} hd95={s['mean_hd95'] if s['mean_hd95'] is not None else 'n/a'}\")"
done
