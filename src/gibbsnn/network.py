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
* Backward stops at the first weighted layer: the gradient with respect to
  the network input is never computed.
* Per-layer weights live in flat vectors (kernel then bias); the list of
  those vectors is the weight set W^1..W^L referenced by the priors.
* Gradients at activation kinks and pooling ties follow the conventions of
  the activations module (subgradient 0; first maximum wins a tie).
"""

from __future__ import annotations

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


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    """A compiled NetworkSpec: validated shapes, weight layout, forward and
    backward passes.

    All activation layers in one network must reference the same registered
    name, and the one parameter set passed to forward/backward is shared by
    every activation layer.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.weight_lengths = []  # K_l per weighted layer
        self.weight_shapes = []  # (kernel shape, bias shape) per weighted layer
        self.kernel_sizes = []  # kernel entries per weighted layer (bias follows)
        self.layer_shapes = []  # output shape per layer (sample-local, no batch dim)
        self.activation_name = None

        shape = tuple(spec.input_shape)
        for i, layer in enumerate(spec.layers):
            where = f"layer {i} ({layer.kind})"
            if layer.kind == "dense":
                n_in, n_out = layer.dims
                if shape != (n_in,):
                    raise ShapeError(f"{where}: expected input ({n_in},), got {shape}")
                self.weight_shapes.append(((n_in, n_out), (n_out,)))
                self.kernel_sizes.append(n_in * n_out)
                self.weight_lengths.append(n_in * n_out + n_out)
                shape = (n_out,)
            elif layer.kind == "conv2d":
                out_c, in_c = layer.dims[0], layer.dims[1]
                if len(shape) != 3 or shape[2] != in_c:
                    raise ShapeError(f"{where}: expected input (H, W, {in_c}), got {shape}")
                self.weight_shapes.append(((out_c, in_c, KERNEL, KERNEL), (out_c,)))
                self.kernel_sizes.append(out_c * in_c * KERNEL * KERNEL)
                self.weight_lengths.append(out_c * in_c * KERNEL * KERNEL + out_c)
                shape = (shape[0], shape[1], out_c)
            elif layer.kind == "maxpool2x2":
                if len(shape) != 3 or shape[0] < 2 or shape[1] < 2:
                    raise ShapeError(f"{where}: needs (H>=2, W>=2, C), got {shape}")
                shape = (shape[0] // 2, shape[1] // 2, shape[2])
            elif layer.kind == "flatten":
                shape = (int(np.prod(shape)),)
            elif layer.kind == "activation":
                if layer.activation is None:
                    raise ShapeError(f"{where}: missing activation name")
                if self.activation_name is None:
                    self.activation_name = layer.activation
                elif self.activation_name != layer.activation:
                    raise ShapeError(f"{where}: mixed activation names are not supported")
            elif layer.kind == "softmax":
                if i != len(spec.layers) - 1:
                    raise ShapeError(f"{where}: softmax must be the final layer")
                if len(shape) != 1 or shape[0] != spec.class_count:
                    raise ShapeError(
                        f"{where}: expected ({spec.class_count},) logits, got {shape}"
                    )
            else:
                raise ShapeError(f"{where}: unknown layer kind")
            self.layer_shapes.append(shape)
        # no caller reads the input gradient, so backward stops at the first
        # weighted layer and skips its input gradient; with param_grads it
        # runs on to layer 0 when an activation below that layer has
        # parameters (indexed by param_grads)
        first = next((i for i, l in enumerate(spec.layers) if l.kind in ("dense", "conv2d")), 0)
        below = any(l.kind == "activation" for l in spec.layers[:first])
        self._backward_stop = (first, 0 if below else first)
        self.n_weights = int(sum(self.weight_lengths))
        self.n_layers = len(self.weight_lengths)  # L in the prior

    # -- weights ----------------------------------------------------------

    def init_weights(self, rng: np.random.Generator, scale: float | None = None) -> list:
        """He-style init: kernel entries N(0, 2/fan_in), biases 0."""
        out = []
        for (kshape, bshape) in self.weight_shapes:
            fan_in = kshape[0] if len(kshape) == 2 else int(np.prod(kshape[1:]))
            std = np.sqrt(2.0 / fan_in) if scale is None else scale
            kernel = rng.normal(0.0, std, size=kshape)
            out.append(np.concatenate([kernel.ravel(), np.zeros(bshape)]))
        return out

    def _unpack(self, flat: np.ndarray, idx: int):
        nk = self.kernel_sizes[idx]
        return flat[:nk].reshape(self.weight_shapes[idx][0]), flat[nk:]

    def targets(self, y) -> np.ndarray:
        """Float targets for a batch of labels: integer class labels become
        one-hot rows; other labels must already match the output shape."""
        y = np.asarray(y)
        return _prepare_targets(y, len(y), self.layer_shapes[-1], False)

    # -- forward ----------------------------------------------------------

    def forward(self, w: list, act_params, x: np.ndarray) -> np.ndarray:
        """Evaluate the network; accepts one sample or a batch."""
        x = np.asarray(x, dtype=np.float64)
        single = x.shape == tuple(self.spec.input_shape)
        h = x[None] if single else x
        if h.shape[1:] != tuple(self.spec.input_shape):
            raise ShapeError(
                f"input shape {x.shape} does not match spec {tuple(self.spec.input_shape)}"
            )
        h, _ = self._run(w, act_params, h, record=False)
        return h[0] if single else h

    def _batch(self, x, y):
        # (inputs with a batch axis, float targets) for loss and backward
        x = np.asarray(x, dtype=np.float64)
        single = x.shape == tuple(self.spec.input_shape)
        h = x[None] if single else x
        return h, _prepare_targets(y, h.shape[0], self.layer_shapes[-1], single)

    def loss(self, w, act_params, x, y, loss_kind: str = "cross-entropy",
             average: bool = False) -> float:
        """Batch loss only, no gradient bookkeeping."""
        h, yb = self._batch(x, y)
        out, _ = self._run(w, act_params, h, record=False)
        return output_loss(out, yb, loss_kind, average)[0]

    def _run(self, w, act_params, h, record: bool, dropout: dict | None = None):
        # dropout maps layer index -> multiplicative mask applied to that
        # layer's output (mask carries its own 1/keep scaling); training-only
        caches = []
        wi = 0
        for i, layer in enumerate(self.spec.layers):
            if layer.kind == "dense":
                W, b = self._unpack(w[wi], wi)
                caches.append(h if record else None)
                h = h @ W + b
                wi += 1
            elif layer.kind == "conv2d":
                W, b = self._unpack(w[wi], wi)
                xp = np.pad(h, ((0, 0), (1, 1), (1, 1), (0, 0)))
                caches.append(xp if record else None)
                h = _conv_forward(xp, W, b)
                wi += 1
            elif layer.kind == "maxpool2x2":
                inshape = h.shape
                h, route = _maxpool_forward(h, record)
                caches.append((route, inshape) if record else None)
            elif layer.kind == "flatten":
                caches.append(h.shape if record else None)
                h = h.reshape(h.shape[0], -1)
            elif layer.kind == "activation":
                caches.append(h if record else None)
                h = activation_value(layer.activation, act_params, h)
            elif layer.kind == "softmax":
                h = _softmax(h)
                caches.append(h if record else None)
            if dropout is not None and i in dropout:
                h = h * dropout[i]
            if not np.isfinite(h).all():
                bad = h[~np.isfinite(h)]
                raise NumericalError(
                    f"non-finite value {float(bad.flat[0])} after layer {i} ({layer.kind})"
                )
        return h, caches

    # -- backward ---------------------------------------------------------

    def backward(
        self,
        w: list,
        act_params,
        x: np.ndarray,
        y: np.ndarray,
        loss_kind: str = "cross-entropy",
        average: bool = False,
        dropout: dict | None = None,
        param_grads: bool = True,
    ):
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
        h, yb = self._batch(x, y)
        out, caches = self._run(w, act_params, h, record=True, dropout=dropout)
        loss, g = output_loss(out, yb, loss_kind, average, grad=True)

        grad_w = [np.zeros_like(wi) for wi in w]
        grad_act = {} if param_grads else None

        layers = self.spec.layers
        stop = self._backward_stop[bool(param_grads)]
        wi = len(w)
        for i in range(len(layers) - 1, stop - 1, -1):
            layer = layers[i]
            cache = caches[i]
            if dropout is not None and i in dropout:
                g = g * dropout[i]
            if layer.kind == "dense":
                wi -= 1
                W, _ = self._unpack(w[wi], wi)
                h_in = cache
                gW = h_in.reshape(-1, W.shape[0]).T @ g.reshape(-1, W.shape[1])
                gb = g.sum(axis=0)
                grad_w[wi] = np.concatenate([gW.ravel(), gb])
                if i > stop:
                    g = g @ W.T
            elif layer.kind == "conv2d":
                wi -= 1
                W, _ = self._unpack(w[wi], wi)
                if i > stop:
                    gW, gb, g = _conv_backward(cache, W, g)
                else:
                    gW, gb, _ = _conv_backward(cache, W, g, input_grad=False)
                grad_w[wi] = np.concatenate([gW.ravel(), gb])
            elif layer.kind == "maxpool2x2":
                g = _maxpool_backward(g, *cache)
            elif layer.kind == "flatten":
                g = g.reshape(cache)
            elif layer.kind == "activation":
                g, d_params = activation_grads(layer.activation, act_params, cache, g,
                                               param_grads)
                for name, d in (d_params or {}).items():
                    grad_act[name] = grad_act.get(name, 0.0) + d
            elif layer.kind == "softmax":
                p = cache
                g = p * (g - np.sum(g * p, axis=-1, keepdims=True))
            if not np.isfinite(g).all():
                bad = g[~np.isfinite(g)]
                raise NumericalError(
                    f"non-finite gradient {float(bad.flat[0])} at layer {i} ({layer.kind})"
                )
        return grad_w, grad_act, loss


def _prepare_targets(y, n, out_shape, single):
    y = np.asarray(y)
    if single and y.ndim <= 1 and y.shape != (n,):
        y = y[None] if y.ndim == 1 else y.reshape(1)
    if y.ndim == 1 and np.issubdtype(y.dtype, np.integer):
        k = out_shape[0]
        onehot = np.zeros((len(y), k))
        onehot[np.arange(len(y)), y] = 1.0
        y = onehot
    y = y.astype(np.float64, copy=False)
    if y.shape != (n,) + tuple(out_shape):
        raise ShapeError(f"targets shaped {y.shape}, expected {(n,) + tuple(out_shape)}")
    return y


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
    gb = g.reshape(-1, cout).sum(axis=0)
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
