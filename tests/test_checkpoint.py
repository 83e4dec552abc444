"""Checkpoint round trip through the parsed state, for every registered
activation: what load_checkpoint returns must save back to the same bytes,
in the parameter types the network dispatch takes."""

import json

import numpy as np
import pytest

from gibbsnn import checkpoint as ckpt
from gibbsnn.activations import (
    ActivationParams, make_params, registered_names, trainable_names, with_values)
from gibbsnn.model import HyperState, ModelState
from gibbsnn.network import Network
from gibbsnn.presets import mlp


def _save(path, parts):
    spec, w, act, hyper, name = parts
    ckpt.save_checkpoint(path, spec, ModelState(w, act, hyper), iteration=3,
                         provenance={"seed": 5}, activation_name=name)
    return path.read_bytes()


@pytest.mark.parametrize("name", registered_names())
def test_round_trip_through_parsed_state(name, tmp_path):
    rng = np.random.default_rng(4)
    spec, _ = mlp(3, 2, hidden=(4,), activation=name)
    w = Network(spec).init_weights(rng)
    # trained-looking values: every trainable entry moved off its default
    base = make_params(name)
    names = trainable_names(name)
    act = with_values(base, names, [np.asarray(base[k]) + rng.uniform(0.05, 0.3, np.shape(base[k]))
                                    for k in names])
    hyper = HyperState(rng.uniform(0.5, 2.0, size=2), lam_b=0.7, sigma2=1.3)
    first = _save(tmp_path / "a.json", (spec, w, act, hyper, name))

    loaded = ckpt.load_checkpoint(tmp_path / "a.json")
    st = loaded["state"]
    assert isinstance(st, ModelState)
    again = _save(tmp_path / "b.json",
                  (loaded["network"], st.w, st.act, st.hyper, loaded["activation_name"]))
    assert again == first

    got = st.act
    if name == "mmelu":
        assert isinstance(got, ActivationParams)
        assert got == act
    else:
        assert set(got) == set(act)
        for key, val in got.items():
            if key == "basis":
                assert isinstance(val, tuple) and val == act[key]
            elif np.ndim(act[key]):
                assert isinstance(val, np.ndarray) and val.dtype == np.float64
                assert val.tobytes() == act[key].tobytes()
            else:
                assert isinstance(val, float) and val == act[key]
    for a, b in zip(st.w, w):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_chain_rng_state_of_older_files_is_ignored(tmp_path):
    """Files that still carry a chain's rng_state load, and the chain
    states come back as the saved ModelState."""
    rng = np.random.default_rng(1)
    spec, _ = mlp(3, 2, hidden=(4,))
    w = Network(spec).init_weights(rng)
    chain = ModelState(w, make_params("mmelu"), HyperState(np.ones(2), lam_b=0.5, sigma2=2.0))
    path = tmp_path / "old.json"
    ckpt.save_checkpoint(path, spec, chain, iteration=1, provenance={}, chains=[chain])
    doc = json.loads(path.read_text())
    doc["chains"][0]["rng_state"] = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3}}
    path.write_text(json.dumps(doc))

    (got,) = ckpt.load_checkpoint(path)["chains"]
    assert got.act == chain.act and got.hyper.sigma2 == 2.0
    for a, b in zip(got.w, w):
        assert a.tobytes() == b.tobytes()
