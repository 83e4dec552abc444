"""Activation functions: the trainable hat/ReLU blend plus the comparison zoo.

Every function is vectorized over numpy arrays and works on scalars.  One
registry maps each activation name to its value, its derivatives (with
respect to the input and to its own parameters) and its default
parameters, so both the gradient-descent baseline and the MCMC machinery
consume the same definitions; activation_grads turns them into a layer's
vector-Jacobian product, with a fused kernel for the blend.  This module
is the only one that knows how parameters are stored: ActivationParams
for the blend ('mmelu'), a dict for everything else; make_params,
params_doc and with_values convert and update them for the other
modules.

The blend's value and its vector-Jacobian product run over the C-order
flattened input CHUNK values at a time, each chunk through the whole op
sequence in buffers of one chunk allocated once per call: a conv layer's
activation holds about a million values, and one elementwise pass over
it streams through main memory, while a chunk and its buffers stay in L2
cache.  The value and g * d/dx are elementwise, so they are bitwise the
same for every CHUNK.  The (c, gamma, b) sums add one einsum per chunk
in index order, so an input of CHUNK values or fewer (every MLP layer)
gets exactly the single einsum over the whole array, and a larger one
differs from it by summation order alone.

Non-differentiable points use the subgradient-0 convention: at a kink the
reported derivative is exactly 0 (``np.sign(0) == 0`` and strict inequalities
do this naturally).  This only matters on a measure-zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

SELU_LAMBDA = 1.0507
SELU_ALPHA = 1.67326

# support (lower, upper) of the blend's trainable triple, None for an open
# side; every value must also be finite
ACT_BOUNDS = {"c": (0.0, 1.0), "gamma": (None, None), "b": (0.0, None)}

# values per pass of the blend's kernels: the chunk and its few buffers
# stay in L2 cache from one elementwise op to the next
CHUNK = 32_768


def in_bounds(name: str, value) -> bool:
    """Whether `value` is finite and inside ACT_BOUNDS[name]."""
    lower, upper = ACT_BOUNDS[name]
    return (math.isfinite(value) and (lower is None or value >= lower)
            and (upper is None or value <= upper))


def _clip_to_bounds(name: str, value):
    """Project `value` onto the interval ACT_BOUNDS[name]."""
    lower, upper = ACT_BOUNDS[name]
    if lower is not None:
        value = max(value, lower)
    if upper is not None:
        value = min(value, upper)
    return value


@dataclass
class ActivationParams:
    """The trainable triple of the hat/ReLU blend: mixing weight ``c`` in
    [0, 1], hat center ``gamma``, hat height/half-width ``b`` >= 0.

    Out-of-support values are representable (density code maps them to
    log-density -inf); in_support reports them against ACT_BOUNDS.
    """

    c: float = 0.5
    gamma: float = 0.0
    b: float = 1.0

    @property
    def in_support(self) -> bool:
        return all(in_bounds(name, getattr(self, name)) for name in ACT_BOUNDS)

    def as_dict(self) -> dict:
        return {"c": self.c, "gamma": self.gamma, "b": self.b}

    def __getitem__(self, name):
        return getattr(self, name)


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
    Evaluated in place, CHUNK values at a time, with the same operations in
    the same order as c * mexican_hat(x, gamma, b) + (1 - c) * relu(x).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    o, xf = out.reshape(-1), x.reshape(-1)  # C order; a copy of a strided x
    ramp = np.empty(min(xf.size, CHUNK))
    for lo in range(0, xf.size, CHUNK):
        xc = xf[lo:lo + CHUNK]
        oc, rc = o[lo:lo + CHUNK], ramp[:len(xc)]
        np.subtract(xc, p.gamma, out=oc)
        np.abs(oc, out=oc)
        np.subtract(p.b, oc, out=oc)
        np.maximum(oc, 0.0, out=oc)
        oc *= p.c
        np.maximum(xc, 0.0, out=rc)
        rc *= 1.0 - p.c
        oc += rc
    return out[()]


def mmelu_grads(x, p: ActivationParams):
    """Derivatives of the blend: (d/dx, d/dc, d/dgamma, d/db).

    Inside the hat support |x - gamma| < b the hat slope is -sign(x - gamma);
    outside (and exactly on the boundary) it is 0.  The ReLU slope is the
    indicator of x > 0.  All four pieces are 0 at their kinks.  This is the
    elementwise reference for the fused product in activation_grads.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x - p.gamma
    inside = np.abs(d) < p.b
    sgn = np.sign(d)
    d_x = p.c * np.where(inside, -sgn, 0.0) + (1.0 - p.c) * (x > 0).astype(np.float64)
    d_c = mexican_hat(x, p.gamma, p.b) - relu(x)
    d_gamma = p.c * np.where(inside, sgn, 0.0)
    d_b = p.c * inside.astype(np.float64)
    return d_x, d_c, d_gamma, d_b


def _mmelu_vjp(x, g, p, param_grads):
    # g * d/dx of the blend, bit-equal to g * mmelu_grads(x, p)[0] for c in
    # [0, 1], plus with param_grads the sums of g * d/dc, d/dgamma and d/db
    # as dot products over the hat, the ReLU, the support mask and the
    # slope.  One float and three bool buffers of a chunk: no np.where or
    # np.sign, no per-parameter arrays.
    out = np.empty(x.shape)
    o, xf, gf = out.reshape(-1), x.reshape(-1), g.reshape(-1)
    size = min(xf.size, CHUNK)
    buf = np.empty(size)
    inside, falling, rising = (np.empty(size, bool) for _ in range(3))
    g_hat = g_ramp = g_inside = g_slope = 0.0  # einsum never gives -0.0

    def dot(gc, v):  # einsum, not BLAS: the sum does not depend on thread count
        return float(np.einsum("i,i->", gc, v))

    for lo in range(0, xf.size, CHUNK):
        xc, gc, t = xf[lo:lo + CHUNK], gf[lo:lo + CHUNK], o[lo:lo + CHUNK]
        n = len(xc)
        bc, ic, fc, rc = buf[:n], inside[:n], falling[:n], rising[:n]
        np.subtract(xc, p.gamma, out=t)
        np.abs(t, out=bc)
        np.less(bc, p.b, out=ic)
        if param_grads:
            np.subtract(p.b, bc, out=bc)
            np.maximum(bc, 0.0, out=bc)  # the hat
            g_hat += dot(gc, bc)
            g_ramp += dot(gc, np.maximum(xc, 0.0, out=bc))
            np.copyto(bc, ic)
            g_inside += dot(gc, bc)
        # -sign(x - gamma) on the support, +0.0 off it: on either side of
        # gamma, |x - gamma| < b is (x - gamma) < b or (x - gamma) > -b
        np.greater(t, 0, out=fc)
        fc &= ic
        np.less(t, 0, out=rc)
        rc &= ic
        np.subtract(rc, fc, out=t, dtype=np.float64)
        if param_grads:
            g_slope += dot(gc, t)
        t *= p.c
        np.greater(xc, 0, out=fc)
        t += np.multiply(fc, 1.0 - p.c, out=bc)  # +0.0 + +0.0 keeps zeros positive
        np.multiply(gc, t, out=t)
    if not param_grads:
        return out[()], None
    return out[()], {"c": g_hat - g_ramp, "b": p.c * g_inside, "gamma": -p.c * g_slope}


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
# leaky slope are configuration constants); the parameterized members take
# their parameters as keywords, and every default in _REGISTRY except abu's
# basis is trainable.


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
    return on, {"alpha": on, "beta": np.ones_like(x)}


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


def _abu(x, weights, basis=ABU_DEFAULT_BASIS):
    out = np.zeros_like(x)
    for wi, name in zip(weights, basis):
        out = out + wi * _BASIS[name][0](x)
    return out


def _abu_grad(x, weights, basis=ABU_DEFAULT_BASIS):
    d_x = np.zeros_like(x)
    d_w = np.empty((len(weights),) + x.shape)
    for i, (wi, name) in enumerate(zip(weights, basis)):
        fn, dfn = _BASIS[name]
        d_x = d_x + wi * dfn(x)
        d_w[i] = fn(x)
    return d_x, {"weights": d_w}


def _fixed(name):
    fn, dfn = _BASIS[name]
    return fn, lambda x: (dfn(x), {}), {}


# name -> (value(x, **params), grads(x, **params) -> (d/dx, {param: d/dparam})
# or None where activation_grads has a fused kernel, default params)
_REGISTRY = {
    "mmelu": (lambda x, **p: mmelu(x, ActivationParams(**p)), None,
              ActivationParams().as_dict()),
    **{name: _fixed(name) for name in ("relu", "lrelu", "elu", "selu", "swish")},
    "elish": (_elish, _elish_grad, {}),
    "prelu": (_prelu, _prelu_grad, {"alpha": 0.25}),
    "frelu": (_frelu, _frelu_grad, {"alpha": 0.0, "beta": 0.0}),
    "pelu": (_pelu, _pelu_grad, {"beta": 1.0, "gamma": 1.0}),
    "melu": (_melu, _melu_grad, {"alpha": 0.25, "c": np.zeros(4)}),
    "abu": (_abu, _abu_grad, {"weights": np.full(len(ABU_DEFAULT_BASIS), 1.0 / len(ABU_DEFAULT_BASIS)),
                              "basis": ABU_DEFAULT_BASIS}),
}


def _entry(name):
    if name not in _REGISTRY:
        raise KeyError(f"unknown activation {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def _parse(params: dict) -> dict:
    # floats, fresh float64 arrays for vector parameters, abu's basis a tuple
    return {key: tuple(val) if key == "basis"
            else np.array(val, dtype=np.float64) if np.ndim(val) else float(val)
            for key, val in params.items()}


def registered_names():
    return tuple(_REGISTRY)


def default_params(name: str) -> dict:
    """A fresh dict of the registry defaults."""
    return _parse(_entry(name)[2])


def trainable_names(name: str) -> tuple:
    return tuple(key for key in _entry(name)[2] if key != "basis")


def make_params(name: str, overrides: dict | None = None):
    """The defaults updated by `overrides` (a config or checkpoint dict),
    in the form the dispatchers take: ActivationParams for 'mmelu', a dict
    for everything else.  Raises KeyError for names the activation lacks."""
    defaults = _entry(name)[2]
    unknown = set(overrides or {}) - set(defaults)
    if unknown:
        raise KeyError(f"activation {name!r} has no parameters {sorted(unknown)}")
    params = _parse({**defaults, **(overrides or {})})
    return ActivationParams(**params) if name == "mmelu" else params


def params_doc(params) -> dict:
    """JSON-ready copy of activation parameters; make_params inverts it."""
    if isinstance(params, ActivationParams):
        return params.as_dict()
    return {key: val.tolist() if isinstance(val, np.ndarray)
            else list(val) if isinstance(val, tuple) else val
            for key, val in params.items()}


def with_values(params, names, values):
    """New parameters with `names` set to `values`; the blend's triple is
    projected into ACT_BOUNDS.  `params` itself is never mutated."""
    if isinstance(params, ActivationParams):
        return replace(params, **{k: _clip_to_bounds(k, float(v)) for k, v in zip(names, values)})
    return {**params, **{k: v if np.ndim(params[k]) else float(v) for k, v in zip(names, values)}}


def activation_value(name: str, params, x):
    """Dispatch for network layers: params is ActivationParams (or its
    dict) for 'mmelu', a plain dict for everything else."""
    if name == "mmelu" and isinstance(params, ActivationParams):
        return mmelu(x, params)
    return _entry(name)[0](np.asarray(x, dtype=np.float64), **params)


def activation_grads(name: str, params, x, g, param_grads: bool = True):
    """Vector-Jacobian product of an activation layer: given its input x
    and the upstream gradient g, returns (g * d/dx, {param: sum of
    g * d/dparam}), or (g * d/dx, None) without param_grads.

    Scalar parameters get floats; vector parameters arrays of shape
    (len(param),).  The blend (ActivationParams or its dict) takes the fused
    kernel, every other activation the registry's elementwise derivatives.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if name == "mmelu":
        p = params if isinstance(params, ActivationParams) else ActivationParams(**params)
        return _mmelu_vjp(x, g, p, param_grads)
    d_x, d_params = _entry(name)[1](x, **params)
    if not param_grads:
        return g * d_x, None
    sums = {key: float(np.sum(g * dval)) if dval.ndim == g.ndim
            else np.tensordot(dval, g, axes=g.ndim)  # leading axis: components
            for key, dval in d_params.items()}
    return g * d_x, sums
