"""Tests of the benchmark's reference computations.

Run with:  python3 -m pytest bench
"""

import numpy as np
import pytest

import reference as ref


def naive_conv(x, kernel, bias):
    n, H, W, cin = x.shape
    out = np.zeros((n, H, W, kernel.shape[0]))
    for s in range(n):
        for h in range(H):
            for w in range(W):
                for o in range(kernel.shape[0]):
                    acc = bias[o]
                    for i in range(cin):
                        for di in range(3):
                            for dj in range(3):
                                hh, ww = h + di - 1, w + dj - 1
                                if 0 <= hh < H and 0 <= ww < W:
                                    acc += kernel[o, i, di, dj] * x[s, hh, ww, i]
                    out[s, h, w, o] = acc
    return out


def naive_pool(x):
    n, H, W, C = x.shape
    out = np.zeros((n, H // 2, W // 2, C))
    for s in range(n):
        for h in range(H // 2):
            for w in range(W // 2):
                for c in range(C):
                    out[s, h, w, c] = max(x[s, 2 * h + a, 2 * w + b, c]
                                          for a in range(2) for b in range(2))
    return out


@pytest.mark.parametrize("shape,out_c", [((1, 3, 3, 1), 1), ((2, 4, 5, 2), 3),
                                         ((1, 5, 4, 3), 2)])
def test_conv_matches_per_pixel_loop(shape, out_c):
    rng = np.random.default_rng(sum(shape) + out_c)
    x = rng.normal(size=shape)
    kernel = rng.normal(size=(out_c, shape[3], 3, 3))
    bias = rng.normal(size=out_c)
    np.testing.assert_allclose(ref.conv3x3_same(x, kernel, bias),
                               naive_conv(x, kernel, bias), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(1, 4, 4, 1), (2, 5, 7, 3)])
def test_pool_matches_loop_and_drops_odd_edge(shape):
    x = np.random.default_rng(3).normal(size=shape)
    np.testing.assert_array_equal(ref.maxpool2x2(x), naive_pool(x))


def test_mmelu_pieces():
    x = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    c, gamma, b = 0.3, 0.5, 1.0
    expect = [c * max(b - abs(v - gamma), 0.0) + (1 - c) * max(v, 0.0) for v in x]
    np.testing.assert_allclose(ref.mmelu(x, c, gamma, b), expect, rtol=0, atol=0)
    np.testing.assert_array_equal(ref.mmelu(x, 0.0, gamma, b), np.maximum(x, 0.0))


def test_mlp_forward_and_losses_by_hand():
    rng = np.random.default_rng(1)
    layers = [{"kind": "dense", "dims": [3, 4]}, {"kind": "activation"},
              {"kind": "dense", "dims": [4, 2]}, {"kind": "softmax"}]
    W1, b1 = rng.normal(size=(3, 4)), rng.normal(size=4)
    W2, b2 = rng.normal(size=(4, 2)), rng.normal(size=2)
    weights = [np.concatenate([W1.ravel(), b1]), np.concatenate([W2.ravel(), b2])]
    act = {"c": 0.4, "gamma": -0.2, "b": 0.7}
    x = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 1, 0, 1])
    ce = se = 0.0
    for i in range(5):
        h = ref.mmelu(x[i] @ W1 + b1, 0.4, -0.2, 0.7) @ W2 + b2
        p = np.exp(h) / np.exp(h).sum()
        ce -= np.log(p[labels[i]])
        se += (p[0] - (labels[i] == 0)) ** 2 + (p[1] - (labels[i] == 1)) ** 2
    assert ref.loss(layers, weights, act, x, labels) == pytest.approx(ce, rel=1e-13)
    assert ref.loss(layers, weights, act, x, labels, "squared-error") == pytest.approx(se, rel=1e-13)
    assert ref.loss(layers, weights, act, x, labels, average=True) == pytest.approx(ce / 5, rel=1e-13)


def test_conv_stack_shapes():
    layers = [{"kind": "conv2d", "dims": [2, 1, 3, 3]}, {"kind": "activation"},
              {"kind": "maxpool2x2"}, {"kind": "flatten"},
              {"kind": "dense", "dims": [2 * 3 * 3, 4]}, {"kind": "softmax"}]
    rng = np.random.default_rng(2)
    weights = [rng.normal(size=2 * 9 + 2), rng.normal(size=18 * 4 + 4)]
    z = ref.logits(layers, weights, {"c": 0.5, "gamma": 0.0, "b": 1.0},
                   rng.random((3, 7, 7, 1)))
    assert z.shape == (3, 4)


def test_grid_without_prior_gives_least_squares():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    y = 0.7 * X[:, 0] - 0.4 * X[:, 1] + 0.3 + 0.3 * rng.normal(size=20)
    G = np.concatenate([X, np.ones((20, 1))], axis=1)
    ls = np.linalg.lstsq(G, y, rcond=None)[0]
    np.testing.assert_allclose(ref.toy_posterior_means(X, y, prior=False), ls,
                               rtol=0, atol=1e-8)


def test_grid_prior_shrinks_towards_zero_and_converges():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))
    y = 0.7 * X[:, 0] - 0.4 * X[:, 1] + 0.3 + 0.3 * rng.normal(size=20)
    coarse = ref.toy_posterior_means(X, y, cells=80)
    fine = ref.toy_posterior_means(X, y, cells=160)
    ls = ref.toy_posterior_means(X, y, prior=False)
    assert np.all(np.abs(fine) < np.abs(ls))
    # a posterior sd here is about 0.07; the benchmark's Monte Carlo
    # error on a mean is about 1e-3, far above the quadrature error
    np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-4)


def test_ess_of_independent_and_correlated_draws():
    rng = np.random.default_rng(5)
    iid = rng.normal(size=4000)
    assert 3000 < ref.ess(iid) < 5500
    # AR(1) with phi = 0.9 has integrated time (1 + phi) / (1 - phi) = 19
    ar = np.zeros(20000)
    for t in range(1, ar.size):
        ar[t] = 0.9 * ar[t - 1] + rng.normal()
    assert 20000 / 19 * 0.7 < ref.ess(ar) < 20000 / 19 * 1.3
    assert ref.mcse(iid) == pytest.approx(np.std(iid, ddof=1) / np.sqrt(ref.ess(iid)))
