"""End-to-end tour of the Gibbs path on a synthetic task.

Builds a two-class blob dataset where half the input dimensions are pure
noise, samples weights and activation shape jointly, then compares the
posterior-mean network against a gradient-trained ramp baseline on
accuracy and on how many weights land near zero.

Run: python3 demos/posterior_walkthrough.py   (about a minute)
"""

import numpy as np

from gibbsnn.baseline import BaselineConfig, evaluate, train_baseline
from gibbsnn.data import split, synth_blobs
from gibbsnn.diagnostics import summarize
from gibbsnn.model import BayesModel
from gibbsnn.network import Network
from gibbsnn.presets import mlp
from gibbsnn.samplers import SamplerConfig, estimate, run_chains


def near_zero(weights, tol=1e-2):
    flat = np.concatenate([w.ravel() for w in weights])
    return int((np.abs(flat) < tol).sum()), flat.size


def main():
    ds = synth_blobs(2000, 10, classes=2, seed=11,
                     irrelevant_fraction=0.5, separation=10.0)
    tr, te = split(ds, (0.75, 0.25), seed=2)
    print(f"dataset: {tr.n} train / {te.n} test, {ds.inputs.shape[1]} dims, "
          f"half of them noise")

    spec, _ = mlp(10, 2, hidden=(8,), activation="mmelu")
    net = Network(spec)
    model = BayesModel(net, tr.inputs, tr.labels, loss_kind="squared-error")
    cfg = SamplerConfig(n_sweeps=1000, burn_in=350, n_chains=2,
                        step_size=0.05, leapfrog_steps=10)
    print(f"sampling: {cfg.n_chains} chains x {cfg.n_sweeps} sweeps "
          f"(burn-in {cfg.burn_in}) ...")
    traces = run_chains(model, cfg, seed=6)

    print("\nposterior summaries (post burn-in):")
    for row in summarize(traces, cfg.burn_in):
        if row["parameter"] in ("c", "gamma", "b", "sigma2"):
            print(f"  {row['parameter']:>6}: mean {row['mean']:8.4f}  "
                  f"std {row['std']:7.4f}  rhat {row['rhat']:.3f}")

    st = estimate(traces)
    m = evaluate(net, st.w, st.act, te, "squared-error")
    nz, total = near_zero(st.w)
    print(f"\nposterior mean on test: accuracy {m.accuracy:.3f}, "
          f"loss {m.loss:.4f}")
    print(f"near-zero weights: {nz} of {total}")

    spec_b, _ = mlp(10, 2, hidden=(8,), activation="relu")
    net_b = Network(spec_b)
    bcfg = BaselineConfig(activation="relu", epochs=60, learning_rate=1e-3,
                          loss_kind="squared-error")
    wb, ab, _ = train_baseline(net_b, bcfg, tr, te, seed=0)
    mb = evaluate(net_b, wb, ab, te, "squared-error")
    nzb, _ = near_zero(wb)
    print(f"\ngradient baseline (ramp activation, 60 epochs): "
          f"accuracy {mb.accuracy:.3f}")
    print(f"near-zero weights: {nzb} of {total}")
    print(f"\nsparsity ratio (sampled vs baseline): "
          f"{nz / max(nzb, 1):.1f}x at matched accuracy")


if __name__ == "__main__":
    main()
