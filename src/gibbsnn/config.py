"""Run-configuration documents: JSON schema validation and object building.

Validation is strict: unknown keys are rejected, every message names the
offending field path.  Builders turn a validated document into datasets,
network specs, and sampler/baseline configurations.
"""

import json

import numpy as np

from . import data as dataio
from .activations import registered_names
from .baseline import BaselineConfig
from .diagnostics import SPLIT_RHAT_MIN_ROWS
from .errors import ConfigError
from .network import LOSS_KINDS, LayerSpec, Network, NetworkSpec
from .presets import PRESETS, build_preset, mlp
from .samplers import SamplerConfig


# --- tiny schema engine -----------------------------------------------------

class Field:
    def __init__(self, kind, required=False, default=None, check=None):
        self.kind = kind  # type or tuple of types
        self.required = required
        self.default = default
        self.check = check


def _type_name(kind):
    if isinstance(kind, tuple):
        return " or ".join(_type_name(k) for k in kind)
    return {int: "integer", float: "number", str: "string", bool: "boolean",
            list: "list", dict: "object"}.get(kind, str(kind))


def validate(doc, schema: dict, path: str = "config") -> dict:
    """Check `doc` against `schema`; returns doc with defaults filled in."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(schema)}")
    out = {}
    for name, fld in schema.items():
        where = f"{path}.{name}"
        if name not in doc:
            if fld.required:
                raise ConfigError(f"{where}: required field missing")
            out[name] = fld.default
            continue
        val = doc[name]
        kind = fld.kind
        if kind is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"{where}: expected number, got {val!r}")
            val = float(val)
        elif kind is int:
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{where}: expected integer, got {val!r}")
        elif not isinstance(val, kind):
            raise ConfigError(
                f"{where}: expected {_type_name(kind)}, got {val!r}")
        if fld.check is not None:
            msg = fld.check(val)
            if msg:
                raise ConfigError(f"{where}: {msg}")
        out[name] = val
    return out


def _positive(v):
    return None if v > 0 else f"must be positive, got {v}"


def _non_negative(v):
    return None if v >= 0 else f"must be non-negative, got {v}"


def _fraction_pair(v):
    if len(v) != 2 or not all(isinstance(x, (int, float)) for x in v):
        return "expected [train_fraction, test_fraction]"
    if abs(v[0] + v[1] - 1.0) > 1e-9:
        return f"fractions must sum to 1, got {v}"
    return None


def _known_activation(v):
    return None if v in registered_names() else (
        f"unknown activation {v!r}; known: {sorted(registered_names())}")


def _known_loss(v):
    return None if v in LOSS_KINDS else f"must be one of {LOSS_KINDS}"


# --- dataset section ---------------------------------------------------------

DATASET_KINDS = ("synth-blobs", "idx", "cifar10", "csv")

_DATASET_SCHEMAS = {
    "synth-blobs": {
        "kind": Field(str, required=True),
        "n": Field(int, required=True, check=_positive),
        "d": Field(int, required=True, check=_positive),
        "classes": Field(int, default=2, check=_positive),
        "irrelevant_fraction": Field(float, default=0.5),
        "separation": Field(float, default=3.0, check=_positive),
        "seed": Field(int, default=0),
        "split": Field(list, default=None, check=_fraction_pair),
        "split_seed": Field(int, default=0),
    },
    "idx": {
        "kind": Field(str, required=True),
        "images": Field(str, required=True),
        "labels": Field(str, required=True),
        "limit": Field(int, default=None, check=_positive),
        "split": Field(list, default=None, check=_fraction_pair),
        "split_seed": Field(int, default=0),
    },
    "cifar10": {
        "kind": Field(str, required=True),
        "batches": Field(list, required=True),
        "limit": Field(int, default=None, check=_positive),
        "split": Field(list, default=None, check=_fraction_pair),
        "split_seed": Field(int, default=0),
    },
    "csv": {
        "kind": Field(str, required=True),
        "path": Field(str, required=True),
        "label_column": Field(str, default="label"),
        "limit": Field(int, default=None, check=_positive),
        "split": Field(list, default=None, check=_fraction_pair),
        "split_seed": Field(int, default=0),
    },
}


def validate_dataset(doc, path="config.dataset") -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = doc.get("kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"{path}.kind: must be one of {DATASET_KINDS}, got {kind!r}")
    return validate(doc, _DATASET_SCHEMAS[kind], path)


def build_dataset(doc):
    """Load/generate per the validated dataset section; returns
    (train, test) when a split is requested, else (dataset, None)."""
    kind = doc["kind"]
    if kind == "synth-blobs":
        ds = dataio.synth_blobs(doc["n"], doc["d"], doc["classes"],
                                doc["irrelevant_fraction"], doc["seed"],
                                doc["separation"])
    elif kind == "idx":
        ds = dataio.load_idx(doc["images"], doc["labels"])
    elif kind == "cifar10":
        ds = dataio.load_cifar10(doc["batches"])
    else:
        ds = dataio.load_csv(doc["path"], doc["label_column"])
    if doc.get("limit"):
        ds = ds.subset(np.arange(min(doc["limit"], ds.n)))
    if doc.get("split"):
        return dataio.split(ds, doc["split"], doc["split_seed"])
    return ds, None


# --- network section ----------------------------------------------------------

_NETWORK_SCHEMA = {
    "preset": Field(str, default=None),
    "input_shape": Field(list, default=None),
    "class_count": Field(int, default=None, check=_positive),
    "hidden": Field(list, default=None),
    "layers": Field(list, default=None),
}


def validate_network(doc, path="config.network") -> dict:
    out = validate(doc, _NETWORK_SCHEMA, path)
    if out["preset"] is None and out["layers"] is None:
        raise ConfigError(f"{path}: needs either 'preset' or 'layers'")
    if out["preset"] is not None and out["layers"] is not None:
        raise ConfigError(f"{path}: 'preset' and 'layers' are mutually exclusive")
    return out


def build_network(doc, activation, train=None):
    """Build (Network, dropout-map) from the network section.

    input_shape and class_count fall back to the training set's shape and
    class count when omitted.  preset 'mlp' takes hidden layer widths.
    """
    input_shape = doc.get("input_shape")
    classes = doc.get("class_count")
    if train is not None:
        if input_shape is None:
            input_shape = list(train.inputs.shape[1:])
        if classes is None:
            classes = train.class_count
    if input_shape is None or classes is None:
        raise ConfigError("config.network: input_shape and class_count are "
                          "required without a dataset to infer them from")

    if doc.get("layers") is not None:
        try:
            layers = tuple(LayerSpec.from_dict(d) for d in doc["layers"])
            spec = NetworkSpec(layers, tuple(input_shape), classes)
            return Network(spec), {}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config.network.layers: {exc}") from None

    preset = doc["preset"]
    if preset not in ("mlp", *PRESETS):
        raise ConfigError(f"config.network.preset: unknown preset {preset!r}; known: "
                          f"{sorted(['mlp', *PRESETS])}, or a 'layers' list in place of 'preset'")
    if preset == "mlp":
        hidden = tuple(doc.get("hidden") or (8,))
        if len(input_shape) != 1:
            raise ConfigError(
                f"config.network: preset 'mlp' needs flat inputs, got {input_shape}")
        spec, dropout = mlp(input_shape[0], classes, hidden, activation)
    else:
        try:
            spec, dropout = build_preset(preset, input_shape, classes, activation)
        except ValueError as exc:
            raise ConfigError(f"config.network: preset {preset!r}: {exc}") from None
    return Network(spec), dropout


# --- train / baseline / eval / convert documents -------------------------------

_SAMPLER_SCHEMA = {
    "n_sweeps": Field(int, default=1000, check=_positive),
    "burn_in": Field(int, default=350, check=_non_negative),
    "n_chains": Field(int, default=2, check=_positive),
    "leapfrog_steps": Field(int, default=5, check=_positive),
    "step_size": Field(float, default=0.02, check=_positive),
    "thin": Field(int, default=1, check=_positive),
    "adapt": Field(bool, default=True),
    "batch_size": Field(int, default=None, check=_positive),
    "scalar_subsweeps": Field(int, default=1, check=_positive),
}

_TRAIN_SCHEMA = {
    "dataset": Field(dict, required=True),
    "network": Field(dict, required=True),
    "activation": Field(str, default="mmelu", check=_known_activation),
    "loss": Field(str, default="cross-entropy", check=_known_loss),
    "sampler": Field(dict, default=None),
    "seed": Field(int, default=0),
    "out": Field(str, default=None),
    "eval_interval": Field(int, default=None, check=_positive),
}

_BASELINE_SCHEMA = {
    "dataset": Field(dict, required=True),
    "network": Field(dict, required=True),
    "baseline": Field(dict, default=None),
    "seed": Field(int, default=0),
    "out": Field(str, default=None),
}

_BASELINE_SECTION = {
    "activation": Field(str, default="relu", check=_known_activation),
    "act_params": Field(dict, default=None),
    "optimizer": Field(str, default="adam"),
    "learning_rate": Field(float, default=1e-3, check=_non_negative),
    "epochs": Field(int, default=50, check=_positive),
    "batch_size": Field(int, default=32, check=_positive),
    "l1": Field((int, float, list), default=0.0),
    # true: the preset's rates; false: none; an object: explicit rates
    "dropout": Field((dict, bool), default=True),
    "loss": Field(str, default="cross-entropy", check=_known_loss),
    "train_activation": Field(bool, default=True),
}

_EVAL_SCHEMA = {
    "checkpoint": Field(str, required=True),
    "dataset": Field(dict, required=True),
    "loss": Field(str, default="cross-entropy", check=_known_loss),
    "out": Field(str, default=None),
}

_CONVERT_SCHEMA = {
    "input": Field(dict, required=True),
    "output": Field(dict, required=True),
}

_CONVERT_OUTPUT = {
    "format": Field(str, required=True),
    "path": Field(str, default=None),
    "images": Field(str, default=None),
    "labels": Field(str, default=None),
    "label_column": Field(str, default="label"),
}


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def validate_train(doc) -> dict:
    out = validate(doc, _TRAIN_SCHEMA)
    out["dataset"] = validate_dataset(out["dataset"])
    out["network"] = validate_network(out["network"])
    out["sampler"] = validate(out["sampler"] or {}, _SAMPLER_SCHEMA, "config.sampler")
    return out


def validate_baseline(doc) -> dict:
    out = validate(doc, _BASELINE_SCHEMA)
    out["dataset"] = validate_dataset(out["dataset"])
    out["network"] = validate_network(out["network"])
    out["baseline"] = validate(out["baseline"] or {}, _BASELINE_SECTION,
                               "config.baseline")
    return out


def validate_eval(doc) -> dict:
    out = validate(doc, _EVAL_SCHEMA)
    out["dataset"] = validate_dataset(out["dataset"])
    return out


def validate_convert(doc) -> dict:
    out = validate(doc, _CONVERT_SCHEMA)
    out["input"] = validate_dataset(out["input"], "config.input")
    out["output"] = validate(out["output"], _CONVERT_OUTPUT, "config.output")
    fmt = out["output"]["format"]
    if fmt not in ("csv", "idx"):
        raise ConfigError(f"config.output.format: must be 'csv' or 'idx', got {fmt!r}")
    if fmt == "csv" and not out["output"]["path"]:
        raise ConfigError("config.output.path: required for csv output")
    if fmt == "idx" and not (out["output"]["images"] and out["output"]["labels"]):
        raise ConfigError("config.output: idx output needs 'images' and 'labels' paths")
    return out


def sampler_config(section: dict, chains_override=None) -> SamplerConfig:
    """SamplerConfig from a validated sampler section; every key is a
    SamplerConfig field.  With two or more chains the post-burn-in window
    must keep enough rows per chain for the split R-hat in report.csv."""
    kw = dict(section)
    if chains_override:
        kw["n_chains"] = chains_override
    cfg = SamplerConfig(**kw).validate()
    # recorded sweeps are the multiples of thin; those >= burn_in are kept
    kept = len(range(-(-cfg.burn_in // cfg.thin) * cfg.thin, cfg.n_sweeps, cfg.thin))
    if cfg.n_chains >= 2 and kept < SPLIT_RHAT_MIN_ROWS:
        raise ConfigError(
            f"config.sampler: n_sweeps {cfg.n_sweeps} with burn_in {cfg.burn_in} and thin "
            f"{cfg.thin} keeps {kept} rows per chain; the split R-hat over "
            f"{cfg.n_chains} chains needs at least {SPLIT_RHAT_MIN_ROWS}")
    return cfg


def baseline_config(section: dict, preset_dropout: dict) -> BaselineConfig:
    dropout = section["dropout"]
    if dropout is True:
        dropout = dict(preset_dropout)
    elif dropout is False:
        dropout = {}
    else:
        try:
            dropout = {int(k): float(v) for k, v in dropout.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.baseline.dropout: {exc}") from None
    l1 = section["l1"]
    return BaselineConfig(
        activation=section["activation"], act_params=section["act_params"],
        optimizer=section["optimizer"], learning_rate=section["learning_rate"],
        epochs=section["epochs"], batch_size=section["batch_size"],
        l1=l1 if not isinstance(l1, list) else np.asarray(l1, dtype=np.float64),
        dropout=dropout, loss_kind=section["loss"],
        train_activation=section["train_activation"]).validate()
