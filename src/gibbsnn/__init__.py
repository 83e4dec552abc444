"""Sparse Bayesian neural networks with a trainable hat/ReLU activation.

Weights and the activation's three parameters are inferred jointly by a
Gibbs sampler (exact inverse-gamma draws for scales, Metropolis moves for
the activation triple, proximal non-smooth HMC for the weights under a
per-layer Laplace prior).  A gradient-descent arm trains the same
architectures with any activation from the comparison zoo.
"""

__version__ = "0.1.0"

from .activations import (
    ActivationParams, activation_grads, activation_value, default_params,
    mexican_hat, mmelu, mmelu_grads, registered_names, trainable_names)
from .baseline import BaselineConfig, Metrics, evaluate, train_baseline
from .data import Dataset, load_cifar10, load_csv, load_idx, split, synth_blobs
from .diagnostics import ess, split_rhat, summarize
from .errors import (
    BadMagicError, ConfigError, CountMismatchError, FormatError, GibbsnnError,
    NumericalError, ShapeError, TruncatedError)
from .model import BayesModel, FixedHypers, HyperState, ModelState, init_state
from .network import (
    LayerSpec, Network, NetworkSpec, act, concat_weights, conv2d, dense,
    flatten, maxpool, softmax_layer, split_weights)
from .optim import Adam, SGD
from .presets import build_preset, cnn1, cnn2, deep, mlp
from .samplers import (
    ChainState, ChainTrace, SamplerConfig, estimate, gibbs_sweep, mh_step,
    nshmc_step, run_chain, run_chains, sample_inverse_gamma, soft_threshold)

__all__ = [
    "ActivationParams", "Adam", "BadMagicError", "BaselineConfig",
    "BayesModel", "ChainState", "ChainTrace", "ConfigError",
    "CountMismatchError", "Dataset", "FixedHypers", "FormatError",
    "GibbsnnError", "HyperState", "LayerSpec", "Metrics", "ModelState",
    "Network", "NetworkSpec", "NumericalError", "SGD", "SamplerConfig",
    "ShapeError", "TruncatedError", "act", "activation_grads",
    "activation_value", "build_preset", "cnn1", "cnn2", "concat_weights",
    "conv2d", "deep", "default_params", "dense", "ess", "estimate", "evaluate",
    "flatten", "gibbs_sweep", "init_state", "load_cifar10", "load_csv",
    "load_idx", "maxpool", "mexican_hat", "mh_step", "mlp", "mmelu",
    "mmelu_grads", "nshmc_step", "registered_names", "run_chain", "run_chains",
    "sample_inverse_gamma", "softmax_layer", "soft_threshold", "split",
    "split_rhat", "split_weights", "summarize", "synth_blobs",
    "train_baseline", "trainable_names",
]
