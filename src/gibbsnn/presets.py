"""Built-in architectures and their baseline dropout tables.

cnn1: three conv blocks (32/64/128) with 2x2 pooling, one hidden FC.
cnn2: the same channel progression with three convs per block and two
hidden FC layers.  deep: 25 conv layers in five blocks of five
(32/64/128/256/512) and three hidden FC layers.  Pooling is inserted per
block only while the spatial size still allows a 2x2 window.

Dropout rates are used by the gradient-descent trainer only; the sampler
path never applies dropout (stochastic masks would change the energy).
"""

from .network import (
    NetworkSpec, act, conv2d, dense, flatten, maxpool, softmax_layer)

def _conv_block(layers, dropout, n_convs, out_c, in_c, activation, spatial, rate):
    for _ in range(n_convs):
        layers.append(conv2d(out_c, in_c))
        layers.append(act(activation))
        in_c = out_c
    if spatial >= 2:
        layers.append(maxpool())
        spatial //= 2
    if rate:
        dropout[len(layers) - 1] = rate
    return in_c, spatial


def _closing_stack(layers, dropout, flat, hidden, classes, activation, fc_rates):
    layers.append(flatten())
    n_in = flat
    for width, rate in zip(hidden, fc_rates):
        layers.append(dense(n_in, width))
        layers.append(act(activation))
        if rate:
            dropout[len(layers) - 1] = rate
        n_in = width
    layers.append(dense(n_in, classes))
    layers.append(softmax_layer())


def _cnn(input_shape, classes, activation, blocks, hidden, pool_rates, fc_rates):
    if len(input_shape) != 3 or input_shape[0] != input_shape[1]:
        raise ValueError(f"square (H, W, C) image inputs expected, got {tuple(input_shape)}")
    h, _, c = input_shape
    layers, dropout = [], {}
    spatial = h
    for n_convs, out_c, rate in zip(*blocks, pool_rates):
        c, spatial = _conv_block(layers, dropout, n_convs, out_c, c, activation,
                                 spatial, rate)
    _closing_stack(layers, dropout, spatial * spatial * c, hidden, classes,
                   activation, fc_rates)
    return NetworkSpec(tuple(layers), tuple(input_shape), classes), dropout


def cnn1(input_shape=(28, 28, 1), classes=10, activation="mmelu"):
    """Conv-32/64/128 with one FC-64; returns (spec, baseline dropout map)."""
    return _cnn(input_shape, classes, activation,
                ((1, 1, 1), (32, 64, 128)), (64,),
                pool_rates=(0.2, 0.3, 0.4), fc_rates=(0.3,))


def cnn2(input_shape=(28, 28, 1), classes=10, activation="mmelu"):
    """3xConv-32/64/128 with FC-128 and FC-64."""
    return _cnn(input_shape, classes, activation,
                ((3, 3, 3), (32, 64, 128)), (128, 64),
                pool_rates=(0.3, 0.3, 0.4), fc_rates=(0.35, 0.35))


def deep(input_shape=(32, 32, 3), classes=10, activation="mmelu"):
    """25 conv layers in five blocks of five, then FC-512/256/128."""
    return _cnn(input_shape, classes, activation,
                ((5, 5, 5, 5, 5), (32, 64, 128, 256, 512)), (512, 256, 128),
                pool_rates=(0.2, 0.3, 0.3, 0.4, 0.4),
                fc_rates=(0.3, 0.3, 0.3))


def mlp(n_features, classes=2, hidden=(8,), activation="mmelu"):
    """Small dense classifier for flat feature data; no dropout table."""
    layers = []
    n_in = n_features
    for width in hidden:
        layers.append(dense(n_in, width))
        layers.append(act(activation))
        n_in = width
    layers.append(dense(n_in, classes))
    layers.append(softmax_layer())
    return NetworkSpec(tuple(layers), (n_features,), classes), {}


PRESETS = {"cnn1": cnn1, "cnn2": cnn2, "deep": deep}  # mlp takes hidden widths instead

