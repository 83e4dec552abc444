"""Reference figures that the gated benchmark does not cover.

    python3 bench/figures.py

Re-measures the hand-made figures the project started from, with the
benchmark's hooks and one BLAS thread: the toy linear model's time per
sweep, the criterion-7 MLP's time per sweep on 1500 x 10 inputs, and one
traced sweep of cnn1 at 200 images, with one forward and one backward
pass of the whole network at that size.  Prints one JSON object.  Peak
memory is about 1 GB.
"""

import json
import os
import statistics
import sys
import time

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

IMAGES = 200

import numpy as np  # noqa: E402

import gibbsnn.samplers as samplers  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from gibbsnn.activations import ActivationParams  # noqa: E402
from gibbsnn.model import BayesModel, FixedHypers  # noqa: E402
from gibbsnn.network import Network, NetworkSpec, dense  # noqa: E402
from gibbsnn.presets import cnn1, mlp  # noqa: E402


def sweep_ms(model, cfg, seed=0):
    clock = probes.OpClock("sampler").install()
    try:
        samplers.run_chains(model, cfg, seed=seed)
    finally:
        clock.remove()
    return statistics.median(e - s for s, e in zip(clock.starts, clock.ends)) * 1e3


def main():
    out = {"machine": run.machine_record()}

    toy = workloads.ToyLinear()
    inputs = toy.make_inputs(0, None)
    model = BayesModel(Network(NetworkSpec((dense(2, 1),), (2,), 1)), inputs["X"],
                       inputs["y"], fixed=FixedHypers(1.0, 1.0), loss_kind="squared-error")
    cfg = samplers.SamplerConfig(n_sweeps=3000, burn_in=250, n_chains=1,
                                 step_size=0.1, leapfrog_steps=6)
    out["toy_us_per_sweep"] = sweep_ms(model, cfg) * 1e3

    rng = np.random.default_rng(0)
    u = rng.normal(size=5)
    x, y = workloads.blobs(rng, np.stack([u, -u]) / np.linalg.norm(u) * 5.0, 1500)
    model = BayesModel(Network(mlp(10, 2, (8,))[0]), x, y, loss_kind="squared-error")
    cfg = samplers.SamplerConfig(n_sweeps=100, burn_in=50, n_chains=2,
                                 step_size=0.05, leapfrog_steps=10)
    out["mlp_ms_per_sweep"] = sweep_ms(model, cfg)

    x, y = workloads.image_source(np.random.default_rng(0))(IMAGES)
    net = Network(cnn1()[0])
    model = BayesModel(net, x, y, loss_kind="cross-entropy")
    tracer = probes.Tracer("sampler").install()
    try:
        samplers.run_chains(model, samplers.SamplerConfig(
            n_sweeps=1, burn_in=0, n_chains=1, leapfrog_steps=5), seed=0)
    finally:
        tracer.remove()
    sw = tracer.sweeps[0]
    w = net.init_weights(np.random.default_rng(1))
    act = ActivationParams()
    t = time.perf_counter()
    net.forward(w, act, x)
    fwd = time.perf_counter() - t
    t = time.perf_counter()
    net.backward(w, act, x, y)
    bwd = time.perf_counter() - t
    out[f"cnn1_n{IMAGES}"] = {
        "sweep_s": sw["t1"] - sw["t0"],
        "mh_block_s": sw["first_ig"] - sw["t0"],
        "hmc_s": sw["hmc"],
        "data_energy_calls": sw["de_n"], "data_energy_s": sw["de_s"],
        "energy_grad_calls": sw["eg_n"], "energy_grad_s": sw["eg_s"],
        "activation_value_s": tracer.act_value_s, "activation_grads_s": tracer.act_grads_s,
        "forward_s": fwd, "backward_s": bwd,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
