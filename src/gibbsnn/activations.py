"""Activation functions: the trainable hat/ReLU blend plus the comparison zoo.

Every function is vectorized over numpy arrays and works on scalars.  Each
activation exposes its value, its input derivative, and the derivatives with
respect to its own parameters, so both the gradient-descent baseline and the
MCMC machinery can consume the same definitions.

Non-differentiable points use the subgradient-0 convention: at a kink the
reported derivative is exactly 0 (``np.sign(0) == 0`` and strict inequalities
do this naturally).  This only matters on a measure-zero set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationParams",
    "mexican_hat",
    "mmelu",
    "mmelu_grads",
    "mmelu_slope",
    "zoo_eval",
    "zoo_grad",
    "activation_value",
    "activation_grads",
    "activation_slope",
    "default_params",
    "trainable_names",
    "registered_names",
    "melu_grid",
]

SELU_LAMBDA = 1.0507
SELU_ALPHA = 1.67326


@dataclass
class ActivationParams:
    """The trainable triple of the hat/ReLU blend: mixing weight ``c`` in
    [0, 1], hat center ``gamma``, hat height/half-width ``b`` >= 0.

    Out-of-support values are representable (density code maps them to
    log-density -inf); call validate() where a legal state is required.
    """

    c: float = 0.5
    gamma: float = 0.0
    b: float = 1.0

    @property
    def in_support(self) -> bool:
        return 0.0 <= self.c <= 1.0 and self.b >= 0.0 and np.isfinite(self.gamma)

    def validate(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c must lie in [0, 1], got {self.c}")
        if self.b < 0.0:
            raise ValueError(f"b must be non-negative, got {self.b}")

    def as_dict(self) -> dict:
        return {"c": self.c, "gamma": self.gamma, "b": self.b}


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def mexican_hat(x, gamma, b):
    """Triangular bump max(b - |x - gamma|, 0): peak b at x=gamma, support
    (gamma-b, gamma+b)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(b - np.abs(x - gamma), 0.0)


def mmelu(x, p: ActivationParams):
    """Convex blend c * hat(x) + (1 - c) * ReLU(x).

    With c=0 this is exactly ReLU (bitwise: the hat term contributes +0.0).
    """
    x = np.asarray(x, dtype=np.float64)
    return p.c * mexican_hat(x, p.gamma, p.b) + (1.0 - p.c) * relu(x)


def mmelu_grads(x, p: ActivationParams):
    """Derivatives of the blend: (d/dx, d/dc, d/dgamma, d/db).

    Inside the hat support |x - gamma| < b the hat slope is -sign(x - gamma);
    outside (and exactly on the boundary) it is 0.  The ReLU slope is the
    indicator of x > 0.  All four pieces are 0 at their kinks.
    """
    x = np.asarray(x, dtype=np.float64)
    d_x, inside, sgn = _mmelu_slope_parts(x, p)
    d_c = mexican_hat(x, p.gamma, p.b) - relu(x)
    d_gamma = p.c * np.where(inside, sgn, 0.0)
    d_b = p.c * inside.astype(np.float64)
    return d_x, d_c, d_gamma, d_b


def mmelu_slope(x, p: ActivationParams):
    """d/dx of the blend alone; bitwise equal to mmelu_grads(x, p)[0]."""
    return _mmelu_slope_parts(np.asarray(x, dtype=np.float64), p)[0]


def _mmelu_slope_parts(x, p):
    # (d/dx, hat-support mask, sign(x - gamma)): the pieces both gradient
    # functions share, computed one way so the slopes agree bit for bit
    d = x - p.gamma
    inside = np.abs(d) < p.b
    sgn = np.sign(d)
    d_x = p.c * np.where(inside, -sgn, 0.0) + (1.0 - p.c) * (x > 0).astype(np.float64)
    return d_x, inside, sgn


def melu_grid(k: int):
    """Fixed (center, half-width) pairs for the multi-hat activation.

    A dyadic pyramid on [-2, 2]: level m holds 2**m hats of half-width
    2 / 2**m tiling the interval; pairs are taken breadth-first until k-1
    are collected.  The original construction leaves these fixed and trains
    only the mixing coefficients.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    centers, widths = [], []
    level = 0
    while len(centers) < k - 1:
        lam = 2.0 / (2.0**level)
        for i in range(2**level):
            centers.append(-2.0 + (2 * i + 1) * lam)
            widths.append(lam)
            if len(centers) == k - 1:
                break
        level += 1
    return np.array(centers), np.array(widths)


# --- comparison zoo -------------------------------------------------------
#
# Fixed-shape members take no trainable parameters (ELU's alpha and the
# leaky slope are configuration constants); the parameterized members list
# their trainable names in _REGISTRY.


def _pelu(x, beta, gamma):
    pos = x >= 0
    return np.where(pos, (beta / gamma) * x, beta * (np.exp(np.minimum(x, 0.0) / gamma) - 1.0))


def _pelu_grad(x, beta, gamma):
    pos = x >= 0
    ex = np.exp(np.minimum(x, 0.0) / gamma)
    d_x = np.where(pos, beta / gamma, (beta / gamma) * ex)
    d_beta = np.where(pos, x / gamma, ex - 1.0)
    d_gamma = np.where(pos, -beta * x / gamma**2, -beta * ex * x / gamma**2)
    return d_x, {"beta": d_beta, "gamma": d_gamma}


def _frelu(x, alpha, beta):
    return relu(x + alpha) + beta


def _frelu_grad(x, alpha, beta):
    on = ((x + alpha) > 0).astype(np.float64)
    return on, {"alpha": on, "beta": np.ones_like(np.asarray(x, dtype=np.float64))}


def _prelu(x, alpha):
    return np.where(x > 0, x, alpha * x)


def _prelu_grad(x, alpha):
    pos = x > 0
    return np.where(pos, 1.0, alpha), {"alpha": np.where(pos, 0.0, x)}


def _elish(x):
    s = _sigmoid(x)
    return np.where(x >= 0, x * s, (np.exp(np.minimum(x, 0.0)) - 1.0) * s)


def _elish_grad(x):
    s = _sigmoid(x)
    ds = s * (1.0 - s)
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, s + x * ds, ex * s + (ex - 1.0) * ds), {}


def _melu(x, alpha, c):
    centers, widths = melu_grid(len(c) + 1)
    out = _prelu(x, alpha)
    for cj, gj, lj in zip(c, centers, widths):
        out = out + cj * mexican_hat(x, gj, lj)
    return out


def _melu_grad(x, alpha, c):
    x = np.asarray(x, dtype=np.float64)
    centers, widths = melu_grid(len(c) + 1)
    d_x, pg = _prelu_grad(x, alpha)
    d_c = np.empty((len(c),) + x.shape)
    for j, (gj, lj) in enumerate(zip(centers, widths)):
        d = x - gj
        inside = np.abs(d) < lj
        d_x = d_x + c[j] * np.where(inside, -np.sign(d), 0.0)
        d_c[j] = mexican_hat(x, gj, lj)
    return d_x, {"alpha": pg["alpha"], "c": d_c}


def _elu(x, alpha=1.0):
    return np.where(x > 0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def _elu_grad_x(x, alpha=1.0):
    return np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def _swish(x):
    return x * _sigmoid(x)


def _swish_grad_x(x):
    s = _sigmoid(x)
    return s + x * s * (1.0 - s)


# fixed-shape functions usable standalone and as blend-basis members
_BASIS = {
    "relu": (relu, lambda x: (x > 0).astype(np.float64)),
    "lrelu": (lambda x: np.where(x > 0, x, 0.01 * x), lambda x: np.where(x > 0, 1.0, 0.01)),
    "elu": (_elu, _elu_grad_x),
    "selu": (
        lambda x: SELU_LAMBDA * _elu(x, SELU_ALPHA),
        lambda x: SELU_LAMBDA * _elu_grad_x(x, SELU_ALPHA),
    ),
    "swish": (_swish, _swish_grad_x),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "identity": (lambda x: np.asarray(x, dtype=np.float64), lambda x: np.ones_like(np.asarray(x, dtype=np.float64))),
}

ABU_DEFAULT_BASIS = ("relu", "lrelu", "elu", "swish")


def _abu(x, weights, basis):
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for wi, name in zip(weights, basis):
        out = out + wi * _BASIS[name][0](x)
    return out


def _abu_grad(x, weights, basis):
    x = np.asarray(x, dtype=np.float64)
    d_x = np.zeros_like(x)
    d_w = np.empty((len(weights),) + x.shape)
    for i, (wi, name) in enumerate(zip(weights, basis)):
        fn, dfn = _BASIS[name]
        d_x = d_x + wi * dfn(x)
        d_w[i] = fn(x)
    return d_x, {"weights": d_w}


def _zoo_defaults_abu():
    k = len(ABU_DEFAULT_BASIS)
    return {"weights": np.full(k, 1.0 / k), "basis": ABU_DEFAULT_BASIS}


# name -> (defaults factory, trainable parameter names)
_REGISTRY = {
    "mmelu": (lambda: {"c": 0.5, "gamma": 0.0, "b": 1.0}, ("c", "gamma", "b")),
    "relu": (dict, ()),
    "lrelu": (dict, ()),
    "elu": (dict, ()),
    "selu": (dict, ()),
    "swish": (dict, ()),
    "elish": (dict, ()),
    "prelu": (lambda: {"alpha": 0.25}, ("alpha",)),
    "frelu": (lambda: {"alpha": 0.0, "beta": 0.0}, ("alpha", "beta")),
    "pelu": (lambda: {"beta": 1.0, "gamma": 1.0}, ("beta", "gamma")),
    "melu": (lambda: {"alpha": 0.25, "c": np.zeros(4)}, ("alpha", "c")),
    "abu": (_zoo_defaults_abu, ("weights",)),
}


def registered_names():
    return tuple(_REGISTRY)


def default_params(name: str) -> dict:
    if name not in _REGISTRY:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name][0]()


def trainable_names(name: str) -> tuple:
    if name not in _REGISTRY:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name][1]


def zoo_eval(name: str, params: dict, x):
    """Evaluate a zoo activation pointwise.  Raises KeyError for unknown names."""
    x = np.asarray(x, dtype=np.float64)
    if name == "prelu":
        return _prelu(x, params["alpha"])
    if name == "frelu":
        return _frelu(x, params["alpha"], params["beta"])
    if name == "pelu":
        return _pelu(x, params["beta"], params["gamma"])
    if name == "elish":
        return _elish(x)
    if name == "melu":
        return _melu(x, params["alpha"], params["c"])
    if name == "abu":
        return _abu(x, params["weights"], params.get("basis", ABU_DEFAULT_BASIS))
    if name in _BASIS:
        return _BASIS[name][0](x)
    raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")


def zoo_grad(name: str, params: dict, x):
    """Return (d/dx, {param: d/dparam}) for a zoo activation.

    Scalar parameters map to arrays shaped like x; vector parameters to
    arrays of shape (len(param),) + x.shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if name == "prelu":
        return _prelu_grad(x, params["alpha"])
    if name == "frelu":
        return _frelu_grad(x, params["alpha"], params["beta"])
    if name == "pelu":
        return _pelu_grad(x, params["beta"], params["gamma"])
    if name == "elish":
        return _elish_grad(x)
    if name == "melu":
        return _melu_grad(x, params["alpha"], params["c"])
    if name == "abu":
        return _abu_grad(x, params["weights"], params.get("basis", ABU_DEFAULT_BASIS))
    if name in _BASIS:
        return _BASIS[name][1](x), {}
    raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")


def activation_value(name: str, params, x):
    """Dispatch for network layers: params is ActivationParams for 'mmelu',
    a plain dict for everything else."""
    if name == "mmelu":
        p = params if isinstance(params, ActivationParams) else ActivationParams(**params)
        return mmelu(x, p)
    return zoo_eval(name, params, x)


def activation_grads(name: str, params, x):
    """As activation_value but returns (d/dx, {param: d/dparam})."""
    if name == "mmelu":
        p = params if isinstance(params, ActivationParams) else ActivationParams(**params)
        d_x, d_c, d_gamma, d_b = mmelu_grads(x, p)
        return d_x, {"c": d_c, "gamma": d_gamma, "b": d_b}
    return zoo_grad(name, params, x)


def activation_slope(name: str, params, x):
    """As activation_grads but returns d/dx only, for callers that need no
    parameter gradients."""
    if name == "mmelu":
        p = params if isinstance(params, ActivationParams) else ActivationParams(**params)
        return mmelu_slope(x, p)
    return zoo_grad(name, params, x)[0]
