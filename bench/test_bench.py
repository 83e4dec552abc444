"""Consistency of BENCHMARK.json with the metrics bench/run.py reports.

Run with:  python3 -m pytest bench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_lists_match_the_runner():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_bounds_and_names():
    bench = load()
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))


def test_file_limits():
    import re
    bench = load()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and name.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for key, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                      ("per_layer", {"name", "unit", "better"})):
        assert 1 <= len(bench[key]) <= (16 if key == "end_to_end" else 128)
        for m in bench[key]:
            assert set(m) == keys and name.match(m["name"]) and unit.match(m["unit"])
            assert m["better"] in ("lower", "higher")
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "rb") as fh:
        assert len(fh.read()) <= 64 * 1024


def _gradient_check_with(mutate):
    """The baseline workload's gradient check at fresh cnn1 weights, with
    Network.backward's output passed through mutate."""
    import numpy as np
    from gibbsnn.network import Network
    from gibbsnn.presets import cnn1
    wl = WORKLOADS["baseline-cnn1"]
    x, y = wl.make_inputs(5, None)["train"]
    net = Network(cnn1()[0])
    w = net.init_weights(np.random.default_rng(0))
    backward = net.backward
    net.backward = lambda *a, **k: mutate(*backward(*a, **k))
    return wl._gradient_check({"net": net, "w": w}, x[:8], y[:8])


def test_gradient_check_passes_the_program():
    assert _gradient_check_with(lambda gw, gact, loss: (gw, gact, loss)) == []


def test_gradient_check_sees_a_dropped_bias_gradient():
    def drop(gw, gact, loss):
        gw = [g.copy() for g in gw]
        gw[3][-64:] = 0.0  # the bias of the 64-unit dense layer
        return gw, gact, loss
    fails = _gradient_check_with(drop)
    assert fails and all("layer 3" in f for f in fails)


def test_gradient_check_sees_a_wrong_activation_gradient():
    def halve(gw, gact, loss):
        return gw, dict(gact, gamma=gact["gamma"] * 0.5), loss
    fails = _gradient_check_with(halve)
    assert fails and all("activation" in f for f in fails)
