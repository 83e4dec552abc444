"""Reference computations the benchmark checks the program against.

Nothing here imports gibbsnn: each quantity is computed from its
definition in plain numpy, so a fault in the program cannot hide behind
the same fault in its checker.

* ``toy_posterior_means``: the posterior means of a Bayesian linear model
  with a Laplace prior whose scale is integrated out, by midpoint
  quadrature on a dense grid (as in acceptance criterion 3).
* ``ess`` / ``mcse``: effective sample size by Geyer's initial monotone
  sequence, and the Monte Carlo standard error of a chain mean.
* ``conv3x3_same``, ``maxpool2x2``, ``mmelu``, ``forward``, ``loss``: a
  forward pass of the dense/conv/pool/activation/softmax layer stack from
  a spec given as plain dicts, with weights in the flat per-layer layout
  (kernel row-major, then bias).
"""

import numpy as np


# --- toy linear posterior ----------------------------------------------------


def toy_posterior_means(X, y, delta=1.0, mu=1.0, cells=120, width=8.0,
                        prior=True):
    """Posterior means of (w1, w2, bias) under energy |y - G v|^2.

    G = [X, 1] with two input columns.  With prior=True the density
    carries the Laplace prior with its inverse-gamma scale integrated
    out, (mu + |v|_1)^-(3 + delta); with prior=False it is the bare
    likelihood, whose mean is the least-squares solution.  The grid spans
    `width` likelihood standard deviations around the least-squares point.
    """
    G = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    if G.shape[1] != 3:
        raise ValueError(f"the grid is three-dimensional, got {G.shape[1]} weights")
    y = np.asarray(y, dtype=np.float64).ravel()
    GtG = G.T @ G
    Gty = G.T @ y
    ls = np.linalg.solve(GtG, Gty)
    sd = np.sqrt(np.diag(0.5 * np.linalg.inv(GtG)))
    mids = []
    for j in range(3):
        edges = np.linspace(ls[j] - width * sd[j], ls[j] + width * sd[j], cells + 1)
        mids.append(0.5 * (edges[1:] + edges[:-1]))
    m = [mids[0][:, None, None], mids[1][None, :, None], mids[2][None, None, :]]
    r = float(y @ y)
    for i in range(3):
        r = r - 2.0 * Gty[i] * m[i] + GtG[i, i] * m[i] * m[i]
        for j in range(i + 1, 3):
            r = r + 2.0 * GtG[i, j] * m[i] * m[j]
    logp = -r
    if prior:
        logp = logp - (3.0 + delta) * np.log(mu + np.abs(m[0]) + np.abs(m[1]) + np.abs(m[2]))
    p = np.exp(logp - logp.max())
    p /= p.sum()
    return np.array([float(np.sum(p * m[j])) for j in range(3)])


# --- Monte Carlo error -------------------------------------------------------


def ess(x):
    """Effective sample size of one chain (Geyer's initial monotone
    sequence estimator on FFT autocovariances)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4:
        return float(n)
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    # pair sums Gamma_m = rho_2m + rho_2m+1, kept while positive, made monotone
    total, prev = 0.0, np.inf
    for m in range(0, n - 1, 2):
        pair = rho[m] + rho[m + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        total += prev
    tau = max(2.0 * total - 1.0, 1.0 / n)
    return float(n / tau)


def mcse(x):
    """Monte Carlo standard error of the mean of one chain."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.std(x, ddof=1) / np.sqrt(ess(x)))


# --- network forward pass ----------------------------------------------------


def mmelu(x, c, gamma, b):
    """c * max(b - |x - gamma|, 0) + (1 - c) * max(x, 0)."""
    return c * np.maximum(b - np.abs(x - gamma), 0.0) + (1.0 - c) * np.maximum(x, 0.0)


def conv3x3_same(x, kernel, bias):
    """3x3 stride-1 zero-padded cross-correlation.

    x: (n, H, W, C_in); kernel: (C_out, C_in, 3, 3); bias: (C_out,).
    out[n, h, w, o] = bias[o] + sum_{i, di, dj} kernel[o, i, di, dj]
                      * x[n, h + di - 1, w + dj - 1, i]
    """
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    # win: (n, H, W, C_in, 3, 3)
    return np.einsum("nhwcij,ocij->nhwo", win, kernel, optimize=True) + bias


def maxpool2x2(x):
    """2x2 stride-2 max pooling; a trailing odd row or column is dropped."""
    n, H, W, C = x.shape
    H2, W2 = H // 2, W // 2
    t = x[:, :2 * H2, :2 * W2, :].reshape(n, H2, 2, W2, 2, C)
    return t.max(axis=(2, 4))


def _log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def logits(layers, weights, act, x):
    """Run every layer but a final softmax; return the pre-softmax values.

    layers: list of {"kind", "dims"} dicts; weights: flat vector per
    weighted layer; act: dict with c, gamma, b shared by every site.
    """
    h = np.asarray(x, dtype=np.float64)
    wi = 0
    for layer in layers:
        kind = layer["kind"]
        if kind == "dense":
            n_in, n_out = layer["dims"]
            flat = np.asarray(weights[wi], dtype=np.float64)
            h = h @ flat[:n_in * n_out].reshape(n_in, n_out) + flat[n_in * n_out:]
            wi += 1
        elif kind == "conv2d":
            out_c, in_c, kh, kw = layer["dims"]
            flat = np.asarray(weights[wi], dtype=np.float64)
            nk = out_c * in_c * kh * kw
            h = conv3x3_same(h, flat[:nk].reshape(out_c, in_c, kh, kw), flat[nk:])
            wi += 1
        elif kind == "maxpool2x2":
            h = maxpool2x2(h)
        elif kind == "flatten":
            h = h.reshape(h.shape[0], -1)
        elif kind == "activation":
            h = mmelu(h, act["c"], act["gamma"], act["b"])
        elif kind == "softmax":
            break
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return h


def predict(layers, weights, act, x):
    """Class ids by the largest logit."""
    return np.argmax(logits(layers, weights, act, x), axis=-1)


def loss(layers, weights, act, x, labels, kind="cross-entropy", average=False):
    """Data term of a softmax classifier against integer labels.

    cross-entropy: -sum_i log softmax(z_i)[y_i]; squared-error:
    sum_i |softmax(z_i) - onehot(y_i)|^2.  average divides by n.
    """
    z = logits(layers, weights, act, x)
    labels = np.asarray(labels)
    n = z.shape[0]
    logp = _log_softmax(z)
    if kind == "cross-entropy":
        total = -float(np.sum(logp[np.arange(n), labels]))
    elif kind == "squared-error":
        onehot = np.zeros_like(z)
        onehot[np.arange(n), labels] = 1.0
        total = float(np.sum((np.exp(logp) - onehot) ** 2))
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return total / n if average else total
