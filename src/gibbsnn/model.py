"""Hierarchical posterior over network weights and activation parameters.

The joint density combines a data-fit term exp(-E) with a per-layer
Laplace prior on weights, a uniform prior on the blend weight c, a
Gaussian prior on the hat center gamma, an exponential prior on the hat
width b, and inverse-gamma hyperpriors on every scale (the per-layer
Laplace scales, the exponential scale, and the Gaussian variance).

The priors of c, gamma and b are defined once (act_log_prior) and enter
both the joint density and the conditionals the sampler's Metropolis
moves evaluate (act_conditional), so each Gibbs block can be
cross-checked against log_posterior term by term.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .activations import ACT_BOUNDS, ActivationParams, in_bounds
from .errors import NumericalError
from .network import LOSS_KINDS, Network

BLOCKS = ("c", "gamma", "b", "sigma2", "lambda_b", "lambda_l")


@dataclass
class FixedHypers:
    """Shape/scale constants of the inverse-gamma hyperpriors."""

    delta: float = 1e-3
    mu: float = 1e-3


@dataclass
class HyperState:
    """Scale parameters that are sampled rather than fixed.

    lam holds one Laplace scale per weighted layer, lam_b the scale of
    the exponential prior on b, sigma2 the variance of the prior on
    gamma.  All must stay positive; in_support reports violations
    instead of raising so density code can map them to -inf.
    """

    lam: np.ndarray
    lam_b: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.float64)

    @property
    def in_support(self) -> bool:
        return (
            bool((self.lam > 0.0).all())
            and self.lam_b > 0.0
            and self.sigma2 > 0.0
            and bool(np.isfinite(self.lam).all())
            and np.isfinite(self.lam_b)
            and np.isfinite(self.sigma2)
        )

    def copy(self) -> "HyperState":
        return HyperState(self.lam.copy(), self.lam_b, self.sigma2)


@dataclass
class ModelState:
    """One point of the sampled space: weights, activation triple, scales.
    A gradient-trained net's state has its activation's parameters and no
    scales."""

    w: list
    act: ActivationParams
    hyper: HyperState | None

    def copy(self) -> "ModelState":
        return ModelState([wi.copy() for wi in self.w], replace(self.act), self.hyper.copy())


def l1_norms(w: list) -> np.ndarray:
    """Per-layer sums of absolute weight values."""
    return np.array([float(np.sum(np.abs(wi))) for wi in w])


class BayesModel:
    """Posterior evaluator bound to a network and a training set."""

    def __init__(
        self,
        net: Network,
        inputs: np.ndarray,
        labels: np.ndarray,
        fixed: FixedHypers | None = None,
        loss_kind: str = "cross-entropy",
    ):
        if loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        self.net = net
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.labels = np.asarray(labels)
        self.fixed = fixed or FixedHypers()
        self.loss_kind = loss_kind
        self.n_data = int(self.inputs.shape[0])
        self.targets = net.targets(self.labels)  # float, one-hot for class labels

    # -- data term ----------------------------------------------------------

    def _batch(self, subset):
        # inputs, targets and the n_total/n_subset rescaling of a subset
        if subset is None:
            return self.inputs, self.targets, 1.0
        return self.inputs[subset], self.targets[subset], self.n_data / len(subset)

    def data_energy(self, w: list, act, subset=None) -> float:
        """Negative log-likelihood up to constants: the batch loss.

        With subset (an index array) the subset loss is rescaled by
        n_total/n_subset, an unbiased stand-in for the full-batch value.
        """
        if self.n_data == 0:
            return 0.0
        x, y, scale = self._batch(subset)
        return scale * self.net.loss(w, act, x, y, self.loss_kind)

    def energy_grad(self, w: list, act, subset=None):
        """(energy, grad_w): the data term and its weight gradient under
        the same scaling rules; the energy is bitwise what data_energy
        returns.  Activation-parameter gradients are not computed.
        """
        if self.n_data == 0:
            return 0.0, [np.zeros_like(wi) for wi in w]
        x, y, scale = self._batch(subset)
        gw, _, loss = self.net.backward(w, act, x, y, self.loss_kind, param_grads=False)
        if scale != 1.0:
            gw = [scale * g for g in gw]
        return scale * loss, gw

    # -- joint density ------------------------------------------------------

    def prior_logdensity(self, state: ModelState) -> float:
        """Every log-posterior term except the data energy.

        Terms, with K_l the weight count of layer l and d/m the fixed
        hyper shape/scale:

            sum_l [ -K_l log(lam_l) - |W_l|_1 / lam_l ]          Laplace
            sum_l [ -(1+d) log(lam_l) - m / lam_l ]              IG hyper
            -(1/2) log(sigma2) - gamma^2 / (2 sigma2)            Gaussian
            -(1+d) log(sigma2) - m / sigma2                      IG hyper
            -log(lam_b) - b / lam_b                              exponential
            -(1+d) log(lam_b) - m / lam_b                        IG hyper

        c contributes 0 on [0,1].  Additive constants are dropped.  The
        (1/2) log(sigma2) term is the Gaussian prior normalization; it is
        what makes the sigma2 conditional come out as IG(d + 1/2, ...).
        """
        act, hyp = state.act, state.hyper
        if not act.in_support or not hyp.in_support:
            return -np.inf
        d, m = self.fixed.delta, self.fixed.mu
        norms = l1_norms(state.w)
        k = np.asarray(self.net.weight_lengths, dtype=np.float64)
        lp = float(np.sum(-k * np.log(hyp.lam) - norms / hyp.lam))
        lp += float(np.sum(-(1.0 + d) * np.log(hyp.lam) - m / hyp.lam))
        lp += -0.5 * np.log(hyp.sigma2) + self.act_log_prior("gamma", act.gamma, state)
        lp += -(1.0 + d) * np.log(hyp.sigma2) - m / hyp.sigma2
        lp += -np.log(hyp.lam_b) + self.act_log_prior("b", act.b, state)
        lp += -(1.0 + d) * np.log(hyp.lam_b) - m / hyp.lam_b
        return float(lp)

    def log_posterior(self, state: ModelState, subset=None) -> float:
        """Unnormalized log joint density; -inf encodes support violations
        (c outside [0,1], negative b, any scale <= 0)."""
        prior = self.prior_logdensity(state)
        if prior == -np.inf:
            return -np.inf
        return prior - self.data_energy(state.w, state.act, subset)

    # -- scalar conditionals (log, up to constants in the block value) -------

    def act_log_prior(self, block: str, value: float, state: ModelState) -> float:
        """Log prior of one activation parameter at `value`, up to
        constants: 0 for c, -gamma^2 / (2 sigma2) for gamma, -b / lam_b
        for b; -inf off the support ACT_BOUNDS or where gamma^2 overflows."""
        if block not in ACT_BOUNDS:
            raise ValueError(f"no activation parameter {block!r}")
        if not in_bounds(block, value):
            return -np.inf
        if block == "gamma":
            try:
                return -(value**2 / (2.0 * state.hyper.sigma2))
            except OverflowError:
                return -np.inf
        if block == "b":
            return -(value / state.hyper.lam_b)
        return 0.0

    def act_conditional(self, block: str, value: float, state: ModelState,
                        subset=None):
        """(log density, data energy) of c, gamma or b at `value`, the
        other blocks held at `state`: -E + log prior.  A NumericalError or
        a non-finite energy reads as (-inf, inf), and so does a value off
        the support, where the energy is not evaluated."""
        prior = self.act_log_prior(block, value, state)
        if prior == -np.inf:
            return -np.inf, np.inf
        try:
            e = self.data_energy(state.w, replace(state.act, **{block: value}), subset)
        except NumericalError:
            e = np.inf
        if not math.isfinite(e):
            e = np.inf
        return -e + prior, e

    def cond_logdensity(self, block: str, value: float, state: ModelState,
                        layer: int | None = None, subset=None) -> float:
        """Log conditional density of one block at `value`, other blocks
        held at `state`.  For "lambda_l" pass the layer index.  The c,
        gamma and b conditionals are act_conditional's, guard included."""
        if block in ("c", "gamma", "b"):
            return self.act_conditional(block, value, state, subset)[0]
        if block in ("sigma2", "lambda_b", "lambda_l"):
            if value <= 0.0:
                return -np.inf
            shape, scale = self.ig_params(block, state, layer)
            return -(shape + 1.0) * np.log(value) - scale / value
        raise ValueError(f"unknown block {block!r}; expected one of {BLOCKS}")

    # -- exact inverse-gamma conditionals ------------------------------------

    def ig_params(self, block: str, state: ModelState, layer: int | None = None):
        """(shape, scale) of the inverse-gamma conditional for a scale block:

            lambda_l | W   ~ IG(delta + K_l, mu + |W_l|_1)
            lambda_b | b   ~ IG(delta + 1,   mu + b)
            sigma2  | gamma ~ IG(delta + 1/2, mu + gamma^2 / 2)
        """
        fixed = self.fixed
        if block == "lambda_l":
            if layer is None:
                raise ValueError("lambda_l conditional needs a layer index")
            w = state.w[layer]
            return fixed.delta + w.size, fixed.mu + float(np.sum(np.abs(w)))
        if block == "lambda_b":
            b = state.act.b
            if b < ACT_BOUNDS["b"][0]:
                raise ValueError(f"b must be non-negative, got {b}")
            return fixed.delta + 1.0, fixed.mu + b
        if block == "sigma2":
            # the 1/2s come from the Gaussian's (sigma2)^(-1/2) normalization
            # and squared exponent; the scale is infinite where gamma^2 overflows
            try:
                return fixed.delta + 0.5, fixed.mu + state.act.gamma**2 / 2.0
            except OverflowError:
                return fixed.delta + 0.5, math.inf
        raise ValueError(f"no inverse-gamma conditional for block {block!r}")


def init_state(net: Network, rng: np.random.Generator) -> ModelState:
    """Default chain start: He-scaled weights, centered activation triple,
    unit scales."""
    w = net.init_weights(rng)
    act = ActivationParams()
    hyper = HyperState(lam=np.ones(net.n_layers), lam_b=1.0, sigma2=1.0)
    return ModelState(w, act, hyper)
