"""Checkpoint serialization: JSON, canonical form, lossless round-trip.

Numbers are emitted with Python's shortest-round-trip float repr and keys
are sorted, so save -> load -> save is byte-identical.  The file stores
the point estimate (weights, activation parameters, scales), per-chain
final states when the producer was the sampler, and provenance (config
hash, seed, package version).
"""

import hashlib
import json

import numpy as np

from .activations import make_params, params_doc
from .errors import FormatError, ShapeError
from .model import HyperState, ModelState
from .network import Network, NetworkSpec

FORMAT_VERSION = 1


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(doc) -> str:
    """sha256 of the canonical JSON encoding of a config document."""
    return hashlib.sha256(_canon(doc).encode()).hexdigest()


def _state_doc(state: ModelState) -> dict:
    hyper = state.hyper
    return {
        "weights": [np.asarray(wi).tolist() for wi in state.w],
        "activation": params_doc(state.act),
        "hyper": None if hyper is None else {
            "lam": hyper.lam.tolist(),
            "lam_b": hyper.lam_b,
            "sigma2": hyper.sigma2,
        },
    }


def _state_from(doc, activation_name) -> ModelState:
    hyper = doc["hyper"]
    return ModelState(
        [np.asarray(wi, dtype=np.float64) for wi in doc["weights"]],
        make_params(activation_name, doc["activation"]),
        None if hyper is None else HyperState(
            np.asarray(hyper["lam"], dtype=np.float64), hyper["lam_b"], hyper["sigma2"]))


def save_checkpoint(path, net_spec: NetworkSpec, state: ModelState, iteration: int,
                    provenance: dict, chains: list | None = None,
                    activation_name: str = "mmelu"):
    """Write a checkpoint.

    `state` is the point estimate (its hyper is None for the
    gradient-descent path); `chains` optionally carries each chain's
    final ModelState.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "network": net_spec.to_dict(),
        "activation_name": activation_name,
        "state": _state_doc(state),
        "iteration": int(iteration),
        "provenance": dict(provenance),
        "chains": [{"state": _state_doc(ch)} for ch in chains or []],
    }
    with open(path, "w") as fh:
        fh.write(_canon(doc))
    return doc


def load_checkpoint(path) -> dict:
    """Read a checkpoint back; inverse of save_checkpoint.

    Returns a dict with keys: network (NetworkSpec), state (the point
    estimate's ModelState), iteration, provenance, chains (a ModelState
    per chain) and activation_name.  Keys that older files hold beyond these,
    such as a chain's rng_state, are ignored.  A network that does not
    compile or give class_count outputs, activation layers other than
    activation_name, or weights or layer scales (lam) that do not fit the
    network raise FormatError.
    """
    with open(path) as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid checkpoint JSON: {exc}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint format_version {version!r}")
    try:
        name = doc.get("activation_name", "mmelu")
        net = Network(NetworkSpec.from_dict(doc["network"]))
        out = {
            "network": net.spec,
            "activation_name": name,
            "state": _state_from(doc["state"], name),
            "iteration": doc["iteration"],
            "provenance": doc["provenance"],
            "chains": [_state_from(ch["state"], name) for ch in doc.get("chains", [])],
        }
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc!r}") from None
    if (shape := (net.spec.input_shape, *net.layer_shapes)[-1]) != (net.spec.class_count,):
        raise FormatError(f"{path}: network outputs {shape}, not class_count values")
    if net.activation_name not in (None, name):
        raise FormatError(f"{path}: the activation layers are {net.activation_name!r}, "
                          f"but activation_name is {name!r}")
    named = [("state", out["state"]), *((f"chain {i}", c) for i, c in enumerate(out["chains"]))]
    for where, st in named:
        try:
            net.check_weights(st.w)
        except ShapeError as exc:
            raise FormatError(f"{path}: {where} {exc}") from None
        if st.hyper is not None and st.hyper.lam.shape != (net.n_layers,):
            raise FormatError(f"{path}: {where} has lam shaped {st.hyper.lam.shape}, "
                              f"network has {net.n_layers} weighted layers")
    return out

