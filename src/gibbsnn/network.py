"""Dense-tensor network kernel: layer specs, forward evaluation, and
reverse-mode gradients for the smooth part of the training energy.

Conventions
-----------
* Values are float64 numpy arrays; images are laid out (H, W, C) and batches
  as (n, H, W, C) / (n, features).
* Convolutions are 3x3, stride 1, zero-padded to keep spatial size ("same");
  max-pooling is 2x2 stride 2 (trailing odd row/column dropped).
* A convolution is lowered to matrix products (im2col): for each block of
  CONV_BLOCK images the padded input is copied into an (images*H*W, 9*C_in)
  patch matrix, so the forward pass is one GEMM per block and the backward
  pass two (kernel gradient, and patch gradient added back onto the input).
  Blocking keeps the patch matrix at a few MB whatever the batch size.
* Max-pooling takes np.maximum over four strided views, one per window
  cell.  A recording pass keeps each window's winning cell as two bool
  arrays (bottom row, right column); backward copies the gradient into
  those cells of a zeroed input, with no index arrays or transposed copies.
* Network compiles its spec once into a layer table, one entry per layer.
  Each kind's compile function checks the input shape and gives the output
  shape, the (kernel, bias) shapes of a weighted layer, and a forward that
  returns the layer's backward when recording.  forward, loss and backward
  walk the table; backward stops at the first weighted layer, so the
  gradient with respect to the network input is never computed.
* Per-layer weights live in flat vectors (kernel then bias); the list of
  those vectors is the weight set W^1..W^L referenced by the priors.  Every
  pass checks the list against the network's vector lengths.
* Reductions along a short axis go by column: numpy dispatches its inner
  loop once per row there, so a 2-class softmax or a bias gradient over
  1500 rows paid 1500 dispatches for a few values each.  The softmax's
  _row_max / _row_sum take one op per column (np.max / np.sum from 8
  values a row, which numpy sums pairwise); the bias gradients'
  _column_sum is one einsum (np.sum for one column or a non-C layout).
  Each gives the bits of the reduction it replaces, so chains do not move.
* Gradients at activation kinks and pooling ties follow the conventions of
  the activations module (subgradient 0; first maximum wins a tie).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import activation_grads, activation_value
from .errors import NumericalError, ShapeError

KERNEL = 3
CONV_BLOCK = 8  # images per im2col block: keeps the patch matrix a few MB


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind in {dense, conv2d, maxpool2x2, flatten, softmax,
    activation}; dims is (in, out) for dense and (out_c, in_c, 3, 3) for
    conv2d; activation layers carry a registered activation name."""

    kind: str
    dims: tuple = ()
    activation: str | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.dims:
            d["dims"] = list(self.dims)
        if self.activation is not None:
            d["activation"] = self.activation
        return d

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return LayerSpec(d["kind"], tuple(d.get("dims", ())), d.get("activation"))


def dense(n_in: int, n_out: int) -> LayerSpec:
    return LayerSpec("dense", (n_in, n_out))


def conv2d(out_channels: int, in_channels: int) -> LayerSpec:
    return LayerSpec("conv2d", (out_channels, in_channels, KERNEL, KERNEL))


def maxpool() -> LayerSpec:
    return LayerSpec("maxpool2x2")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def softmax_layer() -> LayerSpec:
    return LayerSpec("softmax")


def act(name: str) -> LayerSpec:
    return LayerSpec("activation", activation=name)


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers plus the input shape and class count."""

    layers: tuple
    input_shape: tuple
    class_count: int

    def to_dict(self) -> dict:
        return {
            "layers": [l.to_dict() for l in self.layers],
            "input_shape": list(self.input_shape),
            "class_count": self.class_count,
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        return NetworkSpec(
            tuple(LayerSpec.from_dict(l) for l in d["layers"]),
            tuple(d["input_shape"]),
            int(d["class_count"]),
        )


def concat_weights(w: list) -> np.ndarray:
    return np.concatenate([wi.ravel() for wi in w]) if w else np.zeros(0)


def split_weights(vec: np.ndarray, lengths: list) -> list:
    out, pos = [], 0
    for k in lengths:
        out.append(vec[pos : pos + k].copy())
        pos += k
    return out


_LOG_FLOOR = 1e-300  # keeps log/div finite when softmax underflows to 0
LOSS_KINDS = ("cross-entropy", "squared-error")


def output_loss(out, targets, loss_kind: str, average: bool = False,
                grad: bool = False):
    """(loss, d loss / d out) of network outputs against float targets.

    squared-error is sum_i (out_i - y_i)^2, cross-entropy -sum_i y_i log
    out_i (out floored at 1e-300); average divides by the row count.  The
    gradient is None unless grad is set.
    """
    scale = 1.0 / len(out) if average else 1.0
    if loss_kind == "squared-error":
        diff = out - targets
        loss = float(np.sum(diff * diff)) * scale
        return loss, (2.0 * diff * scale if grad else None)
    if loss_kind == "cross-entropy":
        p = np.maximum(out, _LOG_FLOOR)
        loss = float(-np.sum(targets * np.log(p))) * scale
        return loss, (-(targets / p) * scale if grad else None)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


class Network:
    """A compiled NetworkSpec: validated shapes, weight layout, and a layer
    table that the forward and backward passes walk.

    All activation layers in one network must reference the same registered
    name, and the one parameter set passed to forward/backward is shared by
    every activation layer.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.weight_shapes = []  # (kernel shape, bias shape) per weighted layer
        self.layer_shapes = []  # output shape per layer (sample-local, no batch dim)
        self._table = []  # (kind, weight set index or None, forward) per layer
        self.activation_name = next(
            (l.activation for l in spec.layers if l.kind == "activation"), None)

        shape = tuple(spec.input_shape)
        for i, layer in enumerate(spec.layers):
            where = f"layer {i} ({layer.kind})"
            if layer.kind not in _KINDS:
                raise ShapeError(f"{where}: unknown layer kind")
            shape, weights, forward = _KINDS[layer.kind](layer, shape, where, i, self)
            index = None if weights is None else len(self.weight_shapes)
            if weights is not None:
                self.weight_shapes.append(weights)
            self._table.append((layer.kind, index, forward))
            self.layer_shapes.append(shape)
        # no caller reads the input gradient, so backward stops at the first
        # weighted layer and skips its input gradient; with param_grads it
        # runs on to layer 0 when an activation below that layer has
        # parameters (indexed by param_grads)
        first = next((i for i, (_, index, _) in enumerate(self._table) if index is not None), 0)
        below = any(l.kind == "activation" for l in spec.layers[:first])
        self._backward_stop = (first, 0 if below else first)
        self.weight_lengths = [math.prod(k) + math.prod(b) for k, b in self.weight_shapes]  # K_l
        self._vector_shapes = [(k,) for k in self.weight_lengths]
        self.n_weights = int(sum(self.weight_lengths))
        self.n_layers = len(self.weight_lengths)  # L in the prior

    # -- weights ----------------------------------------------------------

    def check_weights(self, w: list):
        """Raise ShapeError unless w holds one flat vector per weighted
        layer, of that layer's length."""
        if (got := [wi.shape for wi in w]) != self._vector_shapes:
            raise ShapeError(f"weight shapes {got}, network needs {self._vector_shapes}")

    def init_weights(self, rng: np.random.Generator) -> list:
        """He-style init: kernel entries N(0, 2/fan_in), biases 0."""
        out = []
        for (kshape, bshape) in self.weight_shapes:
            fan_in = kshape[0] if len(kshape) == 2 else int(np.prod(kshape[1:]))
            kernel = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=kshape)
            out.append(np.concatenate([kernel.ravel(), np.zeros(bshape)]))
        return out

    def targets(self, y) -> np.ndarray:
        """Float targets for a batch of labels: integer class labels become
        one-hot rows; other labels must already match the output shape."""
        return _prepare_targets(y, len(y), self.layer_shapes[-1], False)

    def _batch(self, x, y=None):
        # (x with a batch axis, float targets or None, whether x was one sample)
        x = np.asarray(x, dtype=np.float64)
        input_shape = tuple(self.spec.input_shape)
        single = x.shape == input_shape
        h = x[None] if single else x
        if h.shape[1:] != input_shape:
            raise ShapeError(f"input shape {x.shape} does not match spec {input_shape}")
        if y is not None:
            y = _prepare_targets(y, h.shape[0], self.layer_shapes[-1], single)
        return h, y, single

    # -- forward ----------------------------------------------------------

    def forward(self, w: list, act_params, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; accepts one sample or a batch."""
        h, _, single = self._batch(x)
        h, _ = self._run(w, act_params, h, record=False)
        return h[0] if single else h

    def loss(self, w, act_params, x, y, loss_kind: str = "cross-entropy",
             average: bool = False) -> float:
        """Batch loss only, no gradient bookkeeping."""
        h, yb, _ = self._batch(x, y)
        out, _ = self._run(w, act_params, h, record=False)
        return output_loss(out, yb, loss_kind, average)[0]

    def _run(self, w, act_params, h, record: bool, dropout: dict | None = None):
        # (output, each layer's backward when recording); dropout maps layer
        # index -> mask applied to that layer's output (scaled by 1/keep)
        self.check_weights(w)
        backwards = []
        for i, (kind, index, forward) in enumerate(self._table):
            h, backward = forward(h, None if index is None else w[index], act_params, record)
            backwards.append(backward)
            if dropout is not None and i in dropout:
                h = h * dropout[i]
            if not np.isfinite(h).all():
                bad = h[~np.isfinite(h)]
                raise NumericalError(
                    f"non-finite value {float(bad.flat[0])} after layer {i} ({kind})"
                )
        return h, backwards

    # -- backward ---------------------------------------------------------

    def backward(self, w: list, act_params, x: np.ndarray, y: np.ndarray,
                 loss_kind: str = "cross-entropy", average: bool = False,
                 dropout: dict | None = None, param_grads: bool = True):
        """Loss and gradients of the whole batch.

        Returns (grad_w, grad_act, loss) where grad_w mirrors the weight
        set, grad_act maps each activation parameter name to its summed
        gradient, and loss is the total (or per-sample mean) of the chosen
        data term: squared-error sum_i (yhat_i - y_i)^2 or cross-entropy
        -sum_i y_i log yhat_i.  dropout maps layer index to a mask applied
        to that layer's output (training-time regularization path).

        Each activation layer makes one activation_grads call.  With
        param_grads=False it forms no parameter sums and grad_act is None;
        grad_w and loss are bitwise the same as with the full pass.
        """
        h, yb, _ = self._batch(x, y)
        out, backwards = self._run(w, act_params, h, record=True, dropout=dropout)
        loss, g = output_loss(out, yb, loss_kind, average, grad=True)

        grad_w = [np.zeros_like(wi) for wi in w]
        grad_act = {} if param_grads else None
        stop = self._backward_stop[bool(param_grads)]
        for i in range(len(self._table) - 1, stop - 1, -1):
            kind, index, _ = self._table[i]
            if dropout is not None and i in dropout:
                g = g * dropout[i]
            g, grad = backwards[i](g, i > stop, param_grads)
            if index is not None:
                grad_w[index] = grad
            elif grad:
                for name, d in grad.items():
                    grad_act[name] = grad_act.get(name, 0.0) + d
            if not np.isfinite(g).all():
                bad = g[~np.isfinite(g)]
                raise NumericalError(
                    f"non-finite gradient {float(bad.flat[0])} at layer {i} ({kind})"
                )
        return grad_w, grad_act, loss


# -- the layer kinds -----------------------------------------------------------
# compile(layer, input shape, "layer i (kind)", i, network being built) ->
# (output shape, (kernel shape, bias shape) or None, forward), or ShapeError;
# forward(h, flat weights, act_params, record) -> (output, backward or None);
# backward(g, input_grad, param_grads) -> (input gradient, flat weight
# gradient or activation parameter sums or None).  A backward holds only what
# it reads (a pool's route, never its input); a weighted layer told
# input_grad=False passes g on unchanged.


def _widths(layer, where, form, kernel=()):
    # (n_in, n_out) or (out_c, in_c) of a weighted layer whose dims are
    # positive integers laid out as `form`, ending in `kernel`
    dims = tuple(layer.dims)
    if (len(dims) != 2 + len(kernel) or dims[2:] != kernel
            or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0
                       for d in dims)):
        raise ShapeError(f"{where}: dims must be {form} in positive integers, got {list(dims)}")
    return dims[:2]


def _dense(layer, shape, where, *_):
    n_in, n_out = _widths(layer, where, "(in, out)")
    if shape != (n_in,):
        raise ShapeError(f"{where}: expected input ({n_in},), got {shape}")
    nk = n_in * n_out

    def forward(h, flat, act_params, record):
        W = flat[:nk].reshape(n_in, n_out)
        def backward(g, input_grad, param_grads):
            gW = h.reshape(-1, n_in).T @ g.reshape(-1, n_out)
            return (g @ W.T if input_grad else g), np.concatenate([gW.ravel(), _column_sum(g)])
        return h @ W + flat[nk:], (backward if record else None)

    return (n_out,), ((n_in, n_out), (n_out,)), forward


def _conv2d(layer, shape, where, *_):
    out_c, in_c = _widths(layer, where, "(out, in, 3, 3)", (KERNEL, KERNEL))
    if len(shape) != 3 or shape[2] != in_c:
        raise ShapeError(f"{where}: expected input (H, W, {in_c}), got {shape}")
    kshape = (out_c, in_c, KERNEL, KERNEL)
    nk = math.prod(kshape)

    def forward(h, flat, act_params, record):
        W = flat[:nk].reshape(kshape)
        xp = np.pad(h, ((0, 0), (1, 1), (1, 1), (0, 0)))
        def backward(g, input_grad, param_grads):
            gW, gb, gx = _conv_backward(xp, W, g, input_grad=input_grad)
            return (gx if input_grad else g), np.concatenate([gW.ravel(), gb])
        return _conv_forward(xp, W, flat[nk:]), (backward if record else None)

    return (shape[0], shape[1], out_c), (kshape, (out_c,)), forward


def _maxpool2x2(layer, shape, where, *_):
    if len(shape) != 3 or shape[0] < 2 or shape[1] < 2:
        raise ShapeError(f"{where}: needs (H>=2, W>=2, C), got {shape}")

    def forward(h, flat, act_params, record):
        out, route = _maxpool_forward(h, record)
        def backward(g, input_grad, param_grads):
            return _maxpool_backward(g, route, (len(g),) + shape), None
        return out, (backward if record else None)

    return (shape[0] // 2, shape[1] // 2, shape[2]), None, forward


def _flatten(layer, shape, *_):
    def forward(h, flat, act_params, record):
        def backward(g, input_grad, param_grads):
            return g.reshape((len(g),) + shape), None
        return h.reshape(len(h), -1), (backward if record else None)

    return (int(np.prod(shape)),), None, forward


def _activation(layer, shape, where, i, net):
    # activation_value and activation_grads are looked up when called
    name = layer.activation
    if name is None:
        raise ShapeError(f"{where}: missing activation name")
    if name != net.activation_name:
        raise ShapeError(f"{where}: mixed activation names are not supported")

    def forward(h, flat, act_params, record):
        def backward(g, input_grad, param_grads):
            return activation_grads(name, act_params, h, g, param_grads)
        return activation_value(name, act_params, h), (backward if record else None)

    return shape, None, forward


def _softmax_output(layer, shape, where, i, net):
    if i != len(net.spec.layers) - 1:
        raise ShapeError(f"{where}: softmax must be the final layer")
    if len(shape) != 1 or shape[0] != net.spec.class_count:
        raise ShapeError(f"{where}: expected ({net.spec.class_count},) logits, got {shape}")

    def forward(h, flat, act_params, record):
        e = np.exp(h - _row_max(h))
        p = e / _row_sum(e)
        def backward(g, input_grad, param_grads):
            return p * (g - _row_sum(g * p)), None
        return p, (backward if record else None)

    return shape, None, forward


_KINDS = {"dense": _dense, "conv2d": _conv2d, "maxpool2x2": _maxpool2x2,
          "flatten": _flatten, "activation": _activation, "softmax": _softmax_output}


def _prepare_targets(y, n, out_shape, single):
    y = np.asarray(y)
    if single and y.ndim <= 1 and y.shape != (n,):
        y = y[None] if y.ndim == 1 else y.reshape(1)
    if y.ndim == 1 and np.issubdtype(y.dtype, np.integer):
        y = np.eye(out_shape[0])[y]  # one-hot rows
    y = y.astype(np.float64, copy=False)
    if y.shape != (n,) + tuple(out_shape):
        raise ShapeError(f"targets shaped {y.shape}, expected {(n,) + tuple(out_shape)}")
    return y


# -- short-axis reductions (see Conventions) -----------------------------------
# Each gives the bits of the numpy reduction it names, save a NaN's sign bit
# where NaNs of both signs meet: which one survives follows operand order.

_SHORT_ROW = 8  # from 8 values on, np.sum adds a row pairwise


def _row_max(h):
    """h.max(axis=-1, keepdims=True) of a 2-D h.  Rows of _SHORT_ROW values
    or more fall back to h.max."""
    if h.shape[1] >= _SHORT_ROW:
        return h.max(axis=-1, keepdims=True)
    out = h[:, :1].copy()
    for j in range(1, h.shape[1]):
        np.maximum(out, h[:, j : j + 1], out=out)
    return out


def _row_sum(h):
    """h.sum(axis=-1, keepdims=True) of a 2-D h: numpy adds a short row left
    to right from +0.0 (so a row of -0.0 sums to +0.0).  Rows of _SHORT_ROW
    values or more, which numpy sums pairwise, fall back to h.sum."""
    if h.shape[1] >= _SHORT_ROW:
        return h.sum(axis=-1, keepdims=True)
    out = h[:, :1] + 0.0
    for j in range(1, h.shape[1]):
        out += h[:, j : j + 1]
    return out


def _column_sum(g):
    """g.sum(axis=0) of a 2-D g: einsum adds each column top to bottom, as
    numpy does for a C-contiguous g of two or more columns.  One column, or
    another memory layout, which numpy may sum pairwise, falls back to
    g.sum."""
    if g.shape[1] < 2 or not g.flags.c_contiguous:
        return g.sum(axis=0)
    return np.einsum("ij->j", g)


def _im2col(xp):
    # zero-padded (n, H+2, W+2, C_in) -> (n*H*W, 9*C_in) patch matrix with
    # columns in (3, 3, C_in) order, so the copy runs over whole channel rows
    win = np.lib.stride_tricks.sliding_window_view(xp, (KERNEL, KERNEL), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, KERNEL * KERNEL * xp.shape[3])


def _kernel_matrix(W):
    # (C_out, C_in, 3, 3) -> (C_out, 9*C_in), columns matching _im2col's
    return W.transpose(0, 2, 3, 1).reshape(W.shape[0], -1)


def _conv_forward(xp, W, b):
    # one GEMM of the patch matrix per block of images
    n, Hp, Wp, _ = xp.shape
    Wm = _kernel_matrix(W)
    out = np.empty((n, Hp - 2, Wp - 2, W.shape[0]))
    for s in range(0, n, CONV_BLOCK):
        blk = out[s : s + CONV_BLOCK].reshape(-1, W.shape[0])
        np.matmul(_im2col(xp[s : s + CONV_BLOCK]), Wm.T, out=blk)
    out += b
    return out


def _conv_backward(xp, W, g, input_grad=True):
    # per block: gW += g^T @ col and, with input_grad, gcol = g @ Wm added
    # back onto the padded input one tap at a time (col2im); gx is None
    # without input_grad
    n, Hp, Wp, cin = xp.shape
    H, Wd = Hp - 2, Wp - 2
    cout = W.shape[0]
    Wm = _kernel_matrix(W)
    gW = np.zeros_like(Wm)
    gxp = np.zeros_like(xp) if input_grad else None
    for s in range(0, n, CONV_BLOCK):
        gblk = g[s : s + CONV_BLOCK].reshape(-1, cout)
        gW += gblk.T @ _im2col(xp[s : s + CONV_BLOCK])
        if input_grad:
            gcol = (gblk @ Wm).reshape(-1, H, Wd, KERNEL, KERNEL, cin)
            for di in range(KERNEL):
                for dj in range(KERNEL):
                    gxp[s : s + CONV_BLOCK, di : di + H, dj : dj + Wd] += gcol[:, :, :, di, dj]
    gb = _column_sum(g.reshape(-1, cout))
    gx = gxp[:, 1:-1, 1:-1, :] if input_grad else None
    return gW.reshape(cout, KERNEL, KERNEL, cin).transpose(0, 3, 1, 2), gb, gx


def _pool_cells(h):
    # the four cells of every 2x2 window as strided views, in routing order
    # (0,0), (0,1), (1,0), (1,1); a trailing odd row or column is left out
    H2, W2 = h.shape[1] // 2, h.shape[2] // 2
    return [h[:, i : 2 * H2 : 2, j : 2 * W2 : 2] for i in (0, 1) for j in (0, 1)]


def _maxpool_forward(h, record: bool):
    # (window maxima, route or None).  np.maximum returns its second
    # argument when the two compare equal, so the earlier cell goes second
    # and a tie keeps the first cell's value.  With record, the route names
    # the cell each window passes its gradient to, the first maximum winning
    # a tie, as two bool arrays: (in the bottom row, in the right column)
    c00, c01, c10, c11 = _pool_cells(h)
    top = np.maximum(c01, c00)
    bottom = np.maximum(c11, c10)
    route = None
    if record:
        down = bottom > top
        right = down & (c11 > c10)
        right |= ~down & (c01 > c00)
        route = (down, right)
    return np.maximum(bottom, top, out=top), route


def _maxpool_backward(g, route, inshape):
    # each routed cell of a zeroed input takes its window's gradient; a
    # bitwise AND with an all-ones or all-zeros word copies g exactly
    # (signed zeros included) and leaves +0.0 everywhere else
    down, right = route
    out = np.zeros(inshape)
    bits = g.view(np.uint64)
    up, left = ~down, ~right
    for cell, mask in zip(_pool_cells(out.view(np.uint64)),
                          (up & left, up & right, down & left, down & right)):
        word = mask.astype(np.uint64)
        np.negative(word, out=word)
        np.bitwise_and(bits, word, out=cell)
    return out
