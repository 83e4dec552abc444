"""The benchmark still runs and checks every workload.

A tenth of a second per workload buys one round each: enough to show that
the hooks the benchmark wraps still exist and that the round's outputs
pass its correctness checks, not to measure anything.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("toy-linear", "mlp-blobs", "baseline-cnn1")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0



def test_sweep_spans_fire():
    """The tracer splits a sweep at its first samplers.sample_inverse_gamma
    call and its samplers.nshmc_step call, which it wraps as module
    attributes: the moves must call both through those names for the three
    block spans to read more than 0."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "toy-linear",
         "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("samplers.mh_block_ms", "samplers.ig_block_ms", "samplers.hmc_ms"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("kind", ("sampler", "baseline"))
def test_trace_hooks_install(kind, monkeypatch):
    """`--trace 1` wraps names the rounds above never touch, such as
    network.activation_grads and samplers.sample_inverse_gamma: installing
    its tracer fails if one was renamed, and removing it restores them."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import probes

    tracer = probes.Tracer(kind).install()
    originals = {}
    for owner, name, orig in tracer.patches._saved:  # first save is the original
        originals.setdefault((owner, name), orig)
    assert originals
    tracer.remove()
    for (owner, name), orig in originals.items():
        assert getattr(owner, name) is orig


def test_activation_hooks_reach_every_layer(monkeypatch):
    """The tracer replaces gibbsnn.network.activation_value and
    activation_grads after networks exist, so a compiled network must look
    them up when called: one forward and one backward then reach a wrapper
    once per activation layer."""
    import numpy as np

    import gibbsnn.network as network
    from gibbsnn.activations import ActivationParams
    from gibbsnn.presets import cnn1

    spec, _ = cnn1()
    net = network.Network(spec)
    w = net.init_weights(np.random.default_rng(0))
    x = np.random.default_rng(1).random((2, 28, 28, 1))
    calls = {"activation_value": 0, "activation_grads": 0}
    for name in calls:
        def counted(*args, _orig=getattr(network, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(network, name, counted)

    n_act = sum(layer.kind == "activation" for layer in spec.layers)
    net.forward(w, ActivationParams(), x)
    assert calls == {"activation_value": n_act, "activation_grads": 0}
    net.backward(w, ActivationParams(), x, np.array([3, 7]))
    assert calls == {"activation_value": 2 * n_act, "activation_grads": n_act}
