"""Run-configuration documents: JSON schema validation and object building.

Validation is strict: unknown keys are rejected, every message names the
offending field path.  Builders turn a document into datasets, networks,
and a SamplerConfig or BaselineConfig, whose fields are the keys of the
sampler or baseline section and whose validate() checks their values.
"""

import dataclasses
import json
import typing

import numpy as np

from . import data as dataio
from .baseline import BaselineConfig
from .diagnostics import SPLIT_RHAT_MIN_ROWS
from .errors import ConfigError, ShapeError
from .network import LOSS_KINDS, LayerSpec, Network, NetworkSpec
from .presets import PRESETS, mlp
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


def _admits(kind, val) -> bool:
    """Whether JSON value `val` has type `kind`: a boolean is no number,
    and an integer is a number."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(val, bool):
        return bool in kinds
    return isinstance(val, kinds) or (float in kinds and isinstance(val, int))


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
        if not _admits(fld.kind, val):
            raise ConfigError(f"{where}: expected {_type_name(fld.kind)}, got {val!r}")
        if fld.kind is float:
            val = float(val)
        if fld.check is not None:
            msg = fld.check(val)
            if msg:
                raise ConfigError(f"{where}: {msg}")
        out[name] = val
    return out


def _positive(v):
    return None if v > 0 else f"must be positive, got {v}"


def _fraction_pair(v):
    if len(v) != 2 or not all(isinstance(x, (int, float)) for x in v):
        return "expected [train_fraction, test_fraction]"
    if abs(v[0] + v[1] - 1.0) > 1e-9:
        return f"fractions must sum to 1, got {v}"
    return None


def _sampled_activation(v):
    return None if v == "mmelu" else ("the sampler trains the 'mmelu' activation; "
                                      "use the baseline command for the zoo")


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
    "hidden": Field(list, default=None),
    "layers": Field(list, default=None),
}


def validate_network(doc, path="config.network") -> dict:
    out = validate(doc, _NETWORK_SCHEMA, path)
    if out["preset"] is None and out["layers"] is None:
        raise ConfigError(f"{path}: needs either 'preset' or 'layers'")
    if out["preset"] is not None and out["layers"] is not None:
        raise ConfigError(f"{path}: 'preset' and 'layers' are mutually exclusive")
    if out["hidden"] is not None and out["preset"] != "mlp":
        raise ConfigError(f"{path}.hidden: only preset 'mlp' takes hidden widths")
    return out


def build_network(doc, activation, train):
    """Build (Network, dropout-map) from the network section for the
    training set `train`, whose input shape and class count it takes.

    preset 'mlp' takes hidden layer widths (default [8]); a 'layers'
    list's activation layers must all be `activation`.
    """
    input_shape = tuple(train.inputs.shape[1:])
    classes = train.class_count
    if classes is None:
        raise ConfigError("config.network: the dataset has no class count "
                          "(its labels are not integer class ids)")

    layers, preset = doc.get("layers"), doc.get("preset")
    if layers is None and preset not in ("mlp", *PRESETS):
        raise ConfigError(f"config.network.preset: unknown preset {preset!r}; known: "
                          f"{sorted(['mlp', *PRESETS])}, or a 'layers' list in place of 'preset'")
    where = "config.network.layers" if layers is not None else f"config.network: preset {preset!r}"
    try:
        if layers is not None:
            layers = tuple(LayerSpec.from_dict(d) for d in layers)
            spec, dropout = NetworkSpec(layers, input_shape, classes), {}
        elif preset == "mlp":
            if len(input_shape) != 1:
                raise ValueError(f"needs flat inputs, got {input_shape}")
            hidden = doc.get("hidden")
            spec, dropout = mlp(input_shape[0], classes,
                                (8,) if hidden is None else tuple(hidden), activation)
        else:
            spec, dropout = PRESETS[preset](input_shape, classes, activation)
        net = Network(spec)
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if net.activation_name not in (None, activation):
        raise ConfigError(f"{where}: the activation layers are {net.activation_name!r}, "
                          f"but this run trains {activation!r}")
    return net, dropout


# --- train / baseline / eval / convert documents -------------------------------

_TRAIN_SCHEMA = {
    "dataset": Field(dict, required=True),
    "network": Field(dict, required=True),
    "activation": Field(str, default="mmelu", check=_sampled_activation),
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
    return out


def validate_baseline(doc) -> dict:
    out = validate(doc, _BASELINE_SCHEMA)
    out["dataset"] = validate_dataset(out["dataset"])
    out["network"] = validate_network(out["network"])
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


# --- sampler and baseline sections: SamplerConfig and BaselineConfig ----------

_SAMPLER_KEYS = {f.name: f.name for f in dataclasses.fields(SamplerConfig)}
_BASELINE_KEYS = {f.name: "loss" if f.name == "loss_kind" else f.name
                  for f in dataclasses.fields(BaselineConfig)}


def _json_kind(annotation):
    """The JSON type(s) of a field annotation; None (unset) has no JSON form."""
    kinds = tuple(k for k in typing.get_args(annotation) or (annotation,)
                  if k is not type(None))
    return kinds[0] if len(kinds) == 1 else kinds


def _section(cls, doc, path, keys) -> dict:
    """Keyword arguments of dataclass `cls` from a config section whose
    keys are `keys` (field name -> key).  Types are checked here; an
    omitted key keeps the field's default."""
    doc = doc or {}
    hints = typing.get_type_hints(cls)
    out = validate(doc, {key: Field(_json_kind(hints[name])) for name, key in keys.items()},
                   path)
    return {name: out[key] for name, key in keys.items() if key in doc}


def _checked(cfg, path, keys, **context):
    """cfg.validate(**context), its message led by the section path and
    the key of the field it names."""
    try:
        return cfg.validate(**context)
    except ConfigError as exc:
        name, _, msg = str(exc).partition(": ")
        raise ConfigError(f"{path}.{keys.get(name, name)}: {msg}") from None


def sampler_config(section, chains=None) -> SamplerConfig:
    """The validated SamplerConfig of a sampler section, with `chains`,
    when given, for n_chains.  With two or more chains the post-burn-in
    window must keep enough rows per chain for report.csv's split R-hat."""
    kw = _section(SamplerConfig, section, "config.sampler", _SAMPLER_KEYS)
    if chains is not None:
        kw["n_chains"] = chains
    cfg = _checked(SamplerConfig(**kw), "config.sampler", _SAMPLER_KEYS)
    # recorded sweeps are the multiples of thin; those >= burn_in are kept
    kept = len(range(-(-cfg.burn_in // cfg.thin) * cfg.thin, cfg.n_sweeps, cfg.thin))
    if cfg.n_chains >= 2 and kept < SPLIT_RHAT_MIN_ROWS:
        raise ConfigError(
            f"config.sampler.burn_in: n_sweeps {cfg.n_sweeps} with burn_in {cfg.burn_in} "
            f"and thin {cfg.thin} keeps {kept} rows per chain; the split R-hat over "
            f"{cfg.n_chains} chains needs at least {SPLIT_RHAT_MIN_ROWS}")
    return cfg


def baseline_config(section, network_doc, train):
    """(Network, validated BaselineConfig) of a baseline document.

    dropout is true (the default: the preset's table), false (none) or a
    {layer index: rate} object.
    """
    path = "config.baseline"
    section = dict(section or {})
    dropout = section.pop("dropout", True)
    if not isinstance(dropout, bool):
        section["dropout"] = dropout
    kw = _section(BaselineConfig, section, path, _BASELINE_KEYS)
    try:
        kw["dropout"] = {int(k): float(v) for k, v in kw.get("dropout", {}).items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.dropout: {exc}") from None
    # the activation is checked before the network is built with it
    cfg = _checked(BaselineConfig(**kw), path, _BASELINE_KEYS)
    net, preset_dropout = build_network(network_doc, cfg.activation, train)
    if dropout is True:
        cfg.dropout = dict(preset_dropout)
    return net, _checked(cfg, path, _BASELINE_KEYS, net=net)
