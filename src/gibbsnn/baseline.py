"""Gradient-descent comparison arm: Adam/SGD training of any registered
activation, with trainable activation parameters updated by backprop
alongside the weights.

Regularization follows the comparison protocol: optional per-layer l1
penalty (subgradient sign(w) added to the smooth gradient) and dropout
masks drawn per batch from a dedicated RNG stream, disabled at
evaluation time.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .activations import make_params, registered_names, trainable_names, with_values
from .errors import ConfigError, NumericalError
from .network import LOSS_KINDS, Network, output_loss
from .optim import Adam, SGD

OPTIMIZERS = ("adam", "sgd")


@dataclass
class BaselineConfig:
    """Knobs of the gradient-trained arm; the fields are the keys of a run
    config's baseline section, with `loss` for loss_kind."""

    activation: str = "relu"
    act_params: dict | None = None  # None -> registry defaults
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    l1: float | list = 0.0  # one coefficient, or one per weighted layer
    dropout: dict = field(default_factory=dict)  # layer index -> rate
    loss_kind: str = "cross-entropy"
    train_activation: bool = True

    def validate(self, net: Network | None = None):
        """Range checks; each message starts with the offending field.
        With `net`, also that the network is built for `activation` and
        that l1 and dropout name its layers."""
        if self.activation not in registered_names():
            raise ConfigError(f"activation: unknown activation {self.activation!r}; "
                              f"known: {sorted(registered_names())}")
        if net is not None and net.activation_name not in (None, self.activation):
            raise ConfigError(f"activation: the network is built for "
                              f"{net.activation_name!r}, not {self.activation!r}")
        try:
            make_params(self.activation, self.act_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"act_params: {exc.args[0]}") from None  # no KeyError quotes
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer: must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        # learning_rate 0 is allowed (freeze); negative rates are not
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate: must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        try:
            l1 = np.asarray(self.l1, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"l1: {exc}") from None
        if l1.ndim > 1 or (net is not None and l1.ndim == 1 and len(l1) != net.n_layers):
            raise ConfigError(f"l1: must be one number or one per weighted layer, "
                              f"got {self.l1!r}")
        if np.any(l1 < 0):
            raise ConfigError(f"l1: coefficients must be non-negative, got {self.l1!r}")
        for i, rate in self.dropout.items():
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"dropout: rate at layer {i} must lie in [0, 1), got {rate}")
            if net is not None and not 0 <= i < len(net.spec.layers):
                raise ConfigError(f"dropout: layer {i} is not a layer of the network "
                                  f"(0 to {len(net.spec.layers) - 1})")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind: must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        return self


@dataclass
class Metrics:
    accuracy: float
    loss: float
    sensitivity: float
    specificity: float

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "loss": self.loss,
                "sensitivity": self.sensitivity, "specificity": self.specificity}


def evaluate(net: Network, w, act_params, dataset, loss_kind="cross-entropy") -> Metrics:
    """Accuracy, mean loss, and sensitivity/specificity, all from one
    forward pass.

    Two classes: standard binary definitions with class 1 as positive.
    More classes: macro one-vs-rest averages.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs = net.forward(w, act_params, dataset.inputs)
    pred = np.argmax(probs, axis=-1)
    y = np.asarray(dataset.labels)
    loss, _ = output_loss(probs, net.targets(y), loss_kind, average=True)
    acc = float(np.mean(pred == y))

    k = dataset.class_count or int(max(y.max(), pred.max())) + 1
    if k == 2:
        sens = _rate(pred, y, positive=1)
        spec = _rate(pred, y, positive=0)
    else:
        sens_vals, spec_vals = [], []
        for cls in range(k):
            if np.any(y == cls):
                sens_vals.append(_rate(pred, y, positive=cls))
            if np.any(y != cls):
                # true-negative rate for class cls one-vs-rest
                spec_vals.append(float(np.mean(pred[y != cls] != cls)))
        sens = float(np.mean(sens_vals)) if sens_vals else float("nan")
        spec = float(np.mean(spec_vals)) if spec_vals else float("nan")
    return Metrics(acc, float(loss), sens, spec)


def _rate(pred, y, positive) -> float:
    """Fraction of class `positive` samples predicted as that class."""
    mask = y == positive
    if not np.any(mask):
        return float("nan")
    return float(np.mean(pred[mask] == positive))


def train_baseline(net: Network, cfg: BaselineConfig, train, test, seed: int = 0):
    """Epoch loop over mini-batches; returns (w, act_params, history).

    history rows are dicts (epoch, split, accuracy, loss) recorded after
    every epoch on both splits.  On divergence (a non-finite training
    loss, or a non-finite epoch-end evaluation of either split) training
    aborts and the last finite end-of-epoch state, weights and activation
    parameters both, is returned, with the event recorded in
    history[-1]["diverged"] and no other rows for that epoch.
    """
    cfg.validate(net)
    root = np.random.SeedSequence(seed)
    init_ss, order_ss, mask_ss = root.spawn(3)
    rng = np.random.Generator(np.random.PCG64(init_ss))
    order_rng = np.random.Generator(np.random.PCG64(order_ss))
    mask_rng = np.random.Generator(np.random.PCG64(mask_ss))  # dropout-only stream

    w = net.init_weights(rng)
    act = make_params(cfg.activation, cfg.act_params)
    t_names = trainable_names(cfg.activation) if cfg.train_activation else ()
    l1 = np.broadcast_to(np.asarray(cfg.l1, dtype=np.float64), (net.n_layers,))

    opt_cls = Adam if cfg.optimizer == "adam" else SGD
    opt_w = opt_cls(cfg.learning_rate)
    opt_a = opt_cls(cfg.learning_rate)

    history = []
    n = train.n
    last_good = ([wi.copy() for wi in w], act)
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(n)
        diverged = False
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = train.inputs[idx], train.labels[idx]
            masks = None
            if cfg.dropout:
                masks = {}
                for li, rate in cfg.dropout.items():
                    shape = (len(idx),) + tuple(net.layer_shapes[li])
                    keep = (mask_rng.random(shape) >= rate)
                    masks[li] = keep.astype(np.float64) / (1.0 - rate)
            try:
                gw, ga, loss = net.backward(w, act, xb, yb, cfg.loss_kind,
                                            average=True, dropout=masks,
                                            param_grads=bool(t_names))
            except NumericalError:
                diverged = True
                break
            if not np.isfinite(loss):
                diverged = True
                break
            gw = [g + c * np.sign(wi) for g, c, wi in zip(gw, l1, w)]
            w = opt_w.step(w, gw)
            if t_names:
                # with_values builds new parameters, projected into their
                # support, so the ones held by last_good never change
                values = [np.asarray(act[nm], dtype=np.float64) for nm in t_names]
                grads = [np.asarray(ga[nm], dtype=np.float64) for nm in t_names]
                act = with_values(act, t_names, opt_a.step(values, grads))
        if not diverged:
            # the epoch-end state counts as finite only if both splits are
            rows = []
            try:
                for split, ds in (("train", train), ("test", test)):
                    m = evaluate(net, w, act, ds, cfg.loss_kind)
                    rows.append({"epoch": epoch, "split": split,
                                 "accuracy": m.accuracy, "loss": m.loss})
            except NumericalError:
                diverged = True
            else:
                diverged = not all(np.isfinite(r["loss"]) for r in rows)
        if diverged:
            w, act = last_good
            row = {"epoch": epoch, "split": "train", "accuracy": float("nan"),
                   "loss": float("nan"), "diverged": True}
            history.append(row)
            break
        last_good = ([wi.copy() for wi in w], act)
        history.extend(rows)
    return w, act, history


def write_history(history, path):
    """Metrics-history CSV: epoch, split, accuracy, loss."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["epoch", "split", "accuracy", "loss"])
        for row in history:
            wr.writerow([row["epoch"], row["split"],
                         repr(float(row["accuracy"])), repr(float(row["loss"]))])
