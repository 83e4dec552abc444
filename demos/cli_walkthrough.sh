#!/usr/bin/env bash
# Full command-line tour: train a sampled network on synthetic blobs,
# evaluate the checkpoint, run chain diagnostics on the traces, and train
# the gradient baseline for comparison. Everything lands in a scratch
# directory. Takes about half a minute.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "writing outputs under $work"

cat > "$work/train.json" <<'JSON'
{
  "dataset": {"kind": "synth-blobs", "n": 2000, "d": 10, "classes": 2,
              "irrelevant_fraction": 0.5, "separation": 10.0,
              "seed": 11, "split": [0.75, 0.25], "split_seed": 2},
  "network": {"preset": "mlp", "hidden": [8]},
  "activation": "mmelu",
  "loss": "squared-error",
  "sampler": {"n_sweeps": 1000, "burn_in": 350, "n_chains": 2,
              "step_size": 0.05, "leapfrog_steps": 10},
  "seed": 6
}
JSON

echo; echo "== train (Gibbs sampler) =="
gibbsnn train --config "$work/train.json" --out "$work/run"

cat > "$work/eval.json" <<JSON
{
  "checkpoint": "$work/run/checkpoint.json",
  "dataset": {"kind": "synth-blobs", "n": 2000, "d": 10, "classes": 2,
              "irrelevant_fraction": 0.5, "separation": 10.0,
              "seed": 11, "split": [0.75, 0.25], "split_seed": 2},
  "loss": "squared-error"
}
JSON

echo; echo "== eval (posterior-mean checkpoint on the held-out split) =="
gibbsnn eval --config "$work/eval.json" --out "$work/eval"

echo; echo "== diag (mixing report from the trace files) =="
gibbsnn diag --burn-in 350 --out "$work/diag" "$work/run"/trace_chain*.csv

cat > "$work/baseline.json" <<'JSON'
{
  "dataset": {"kind": "synth-blobs", "n": 2000, "d": 10, "classes": 2,
              "irrelevant_fraction": 0.5, "separation": 10.0,
              "seed": 11, "split": [0.75, 0.25], "split_seed": 2},
  "network": {"preset": "mlp", "hidden": [8]},
  "baseline": {"activation": "relu", "optimizer": "adam", "epochs": 60,
               "learning_rate": 1e-3, "batch_size": 32,
               "loss": "squared-error", "dropout": false},
  "seed": 0
}
JSON

echo; echo "== baseline (gradient-trained comparison arm) =="
gibbsnn baseline --config "$work/baseline.json" --out "$work/base"

echo; echo "== artifacts =="
ls -R "$work/run" "$work/diag" "$work/base" | sed "s|$work/||"
