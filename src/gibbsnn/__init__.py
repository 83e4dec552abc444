"""Sparse Bayesian neural networks with a trainable hat/ReLU activation.

Weights and the activation's three parameters are inferred jointly by a
Gibbs sampler (exact inverse-gamma draws for scales, Metropolis moves for
the activation triple, proximal non-smooth HMC for the weights under a
per-layer Laplace prior).  A gradient-descent arm trains the same
architectures with any activation from the comparison zoo.
"""

__version__ = "0.1.0"
