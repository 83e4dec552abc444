"""Gradient-descent steppers for the baseline trainer."""

import numpy as np


class Adam:
    """Standard Adam over a list of arrays (beta1=0.9, beta2=0.999, eps=1e-8).

    Deterministic given its state; step() returns the updated copies and
    advances the internal moment estimates.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params: list, grads: list) -> list:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            mhat = self.m[i] / b1t
            vhat = self.v[i] / b2t
            out.append(p - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


class SGD:
    """Plain gradient descent with the same step() interface."""

    def __init__(self, lr: float):
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = lr

    def step(self, params: list, grads: list) -> list:
        return [p - self.lr * g for p, g in zip(params, grads)]

