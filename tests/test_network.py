"""Forward/backward correctness of the layer kernel.

The backward pass is checked against central finite differences on random
small architectures; probe inputs stay at least 1e-3 away from activation
kinks so the subgradient convention never enters.
"""

import tracemalloc

import numpy as np
import pytest

import gibbsnn.activations as activations_module
import gibbsnn.network as network_module

from gibbsnn.activations import ActivationParams, default_params, mmelu, registered_names
from gibbsnn.errors import NumericalError, ShapeError
from gibbsnn.network import (
    LayerSpec,
    Network,
    NetworkSpec,
    act,
    concat_weights,
    conv2d,
    dense,
    flatten,
    maxpool,
    softmax_layer,
    split_weights,
)
from gibbsnn.optim import Adam, SGD
from gibbsnn.presets import PRESETS, cnn1, mlp


def _dense_net(n_in, n_out, activation="mmelu", hidden=None):
    layers = []
    prev = n_in
    for h in hidden or ():
        layers += [dense(prev, h), act(activation)]
        prev = h
    layers += [dense(prev, n_out), softmax_layer()]
    return Network(NetworkSpec(layers, (n_in,), n_out))


class TestForward:
    def test_identity_dense_relu(self):
        """W=I, b=0, pure-ReLU blend: logits (1, 0) for input (1, -1)."""
        net = _dense_net(2, 2)
        w = [np.concatenate([np.eye(2).ravel(), np.zeros(2)])]
        p = ActivationParams(c=0.0)
        # insert an activation before softmax: rebuild with explicit layers
        layers = [dense(2, 2), act("mmelu"), softmax_layer()]
        net = Network(NetworkSpec(layers, (2,), 2))
        out = net.forward(w, p, np.array([1.0, -1.0]))
        expect = np.exp([1.0, 0.0])
        expect = expect / expect.sum()
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_zero_weights_uniform_softmax(self):
        for classes in (2, 3, 7):
            net = _dense_net(4, classes, hidden=(5,))
            w = [np.zeros(n) for n in net.weight_lengths]
            out = net.forward(w, ActivationParams(), np.ones(4))
            np.testing.assert_allclose(out, 1.0 / classes, rtol=1e-12)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(0)
        net = _dense_net(3, 4, hidden=(6,))
        w = net.init_weights(rng)
        x = rng.normal(size=(50, 3)) * 5.0
        out = net.forward(w, ActivationParams(c=0.3), x)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_cnn1_output_shape(self):
        spec, _ = cnn1(input_shape=(28, 28, 1), classes=10)
        net = Network(spec)
        rng = np.random.default_rng(1)
        w = net.init_weights(rng)
        out = net.forward(w, ActivationParams(), rng.uniform(size=(28, 28, 1)))
        assert out.shape == (10,)
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_shape_mismatch_names_layer(self):
        net = _dense_net(4, 2)
        w = [np.zeros(n) for n in net.weight_lengths]
        with pytest.raises(ShapeError):
            net.forward(w, ActivationParams(), np.ones(7))

    @pytest.mark.parametrize("layers, input_shape, message", [
        ([dense(3, 2), LayerSpec("batchnorm")], (3,),
         "layer 1 (batchnorm): unknown layer kind"),
        ([dense(3, 2), LayerSpec("activation")], (3,),
         "layer 1 (activation): missing activation name"),
        ([dense(3, 4), act("relu"), dense(4, 2), act("elu")], (3,),
         "layer 3 (activation): mixed activation names are not supported"),
        ([dense(3, 2), softmax_layer(), act("relu")], (3,),
         "layer 1 (softmax): softmax must be the final layer"),
        ([dense(3, 4), softmax_layer()], (3,),
         "layer 1 (softmax): expected (2,) logits, got (4,)"),
        ([maxpool()], (1, 4, 3),
         "layer 0 (maxpool2x2): needs (H>=2, W>=2, C), got (1, 4, 3)"),
        ([conv2d(4, 2)], (5, 5, 3),
         "layer 0 (conv2d): expected input (H, W, 2), got (5, 5, 3)"),
        ([dense(3, 2), dense(3, 2), softmax_layer()], (3,),
         "layer 1 (dense): expected input (3,), got (2,)"),
        ([dense(3, 0)], (3,),
         "layer 0 (dense): dims must be (in, out) in positive integers, got [3, 0]"),
        ([dense(3, -3)], (3,),
         "layer 0 (dense): dims must be (in, out) in positive integers, got [3, -3]"),
        ([dense(3, 2.5)], (3,),
         "layer 0 (dense): dims must be (in, out) in positive integers, got [3, 2.5]"),
        ([dense(3, True)], (3,),
         "layer 0 (dense): dims must be (in, out) in positive integers, got [3, True]"),
        ([LayerSpec("dense", (3,))], (3,),
         "layer 0 (dense): dims must be (in, out) in positive integers, got [3]"),
        ([LayerSpec("conv2d", (2, 1, 5, 5))], (5, 5, 1),
         "layer 0 (conv2d): dims must be (out, in, 3, 3) in positive integers, got [2, 1, 5, 5]"),
        ([LayerSpec("conv2d", (2, 1))], (5, 5, 1),
         "layer 0 (conv2d): dims must be (out, in, 3, 3) in positive integers, got [2, 1]"),
        ([conv2d(0, 1)], (5, 5, 1),
         "layer 0 (conv2d): dims must be (out, in, 3, 3) in positive integers, got [0, 1, 3, 3]"),
    ], ids=["unknown-kind", "missing-activation", "mixed-activations", "softmax-not-last",
            "logit-count", "pool-too-small", "conv-channels", "dense-mismatch",
            "zero-width", "negative-width", "fractional-width", "boolean-width",
            "dense-dims-count", "conv-kernel-5x5", "conv-dims-count", "zero-channels"])
    def test_bad_layer_composition_rejected(self, layers, input_shape, message):
        """Every ShapeError of construction names its layer and kind."""
        with pytest.raises(ShapeError) as err:
            Network(NetworkSpec(layers, input_shape, 2))
        assert str(err.value) == message

    @pytest.mark.parametrize("method", ["loss", "backward"])
    def test_loss_and_backward_check_input_shape(self, method):
        """loss and backward refuse inputs of the wrong shape, as forward does,
        instead of running the convolutions on them."""
        net = Network(cnn1()[0])
        w = net.init_weights(np.random.default_rng(0))
        x = np.ones((2, 30, 30, 1))
        with pytest.raises(ShapeError) as err:
            getattr(net, method)(w, ActivationParams(), x, np.array([0, 1]))
        assert str(err.value) == "input shape (2, 30, 30, 1) does not match spec (28, 28, 1)"

    def test_nonfinite_detection(self):
        net = _dense_net(2, 2)
        w = [np.full(n, 1e308) for n in net.weight_lengths]
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            net.forward(w, ActivationParams(), np.full(2, 1e30))

    def test_nonfinite_message_prints_plain_float(self):
        """The offending value reads as a plain float, not a numpy repr."""
        net = Network(NetworkSpec((dense(1, 1), act("relu"), dense(1, 1)), (1,), 1))
        w = [np.array([1e200, 0.0]), np.array([1e200, 0.0])]
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            net.forward(w, {}, np.ones((1, 1)))
        assert str(err.value) == "non-finite value inf after layer 2 (dense)"

    def test_nonfinite_gradient_message_prints_plain_float(self):
        net = Network(NetworkSpec((dense(1, 1),), (1,), 1))
        w = [np.array([1.0, 0.0])]
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            net.backward(w, None, np.array([[1e308]]), np.array([[-1e308]]),
                         loss_kind="squared-error")
        assert str(err.value) == "non-finite gradient inf at layer 0 (dense)"

    def test_forward_deterministic(self):
        rng = np.random.default_rng(5)
        net = _dense_net(3, 2, hidden=(4,))
        w = net.init_weights(rng)
        x = rng.normal(size=(10, 3))
        a = net.forward(w, ActivationParams(c=0.7), x)
        b = net.forward(w, ActivationParams(c=0.7), x)
        assert np.array_equal(a, b)


class TestWeightLayout:
    @pytest.mark.parametrize("method", ["forward", "loss", "backward"])
    @pytest.mark.parametrize("edit, got", [
        (lambda w: w[:-1], "[(16,)]"),
        (lambda w: w + [np.zeros(3)], "[(16,), (10,), (3,)]"),
        (lambda w: [w[0], w[1][:-1]], "[(16,), (9,)]"),
        (lambda w: [w[0].reshape(4, 4), w[1]], "[(4, 4), (10,)]"),
    ], ids=["one-vector-fewer", "one-vector-more", "last-vector-short", "kernel-not-flat"])
    def test_weights_not_fitting_rejected(self, method, edit, got):
        """Every pass refuses a weight list that does not fit the network,
        instead of broadcasting a short last vector as the bias."""
        net = _dense_net(3, 2, hidden=(4,))
        w = edit(net.init_weights(np.random.default_rng(0)))
        args = (np.ones((2, 3)),) if method == "forward" else (np.ones((2, 3)), np.array([0, 1]))
        with pytest.raises(ShapeError) as err:
            getattr(net, method)(w, ActivationParams(), *args)
        assert str(err.value) == f"weight shapes {got}, network needs [(16,), (10,)]"

    def test_split_concat_round_trip(self):
        net = _dense_net(3, 2, hidden=(4, 5))
        rng = np.random.default_rng(2)
        w = net.init_weights(rng)
        vec = concat_weights(w)
        assert vec.shape == (net.n_weights,)
        back = split_weights(vec, net.weight_lengths)
        for a, b in zip(w, back):
            np.testing.assert_array_equal(a, b)

    def test_layer_count_excludes_unweighted(self):
        spec, _ = cnn1()
        net = Network(spec)
        # conv, conv, dense, dense carry weights; pool/flatten/act/softmax do not
        assert net.n_layers == sum(
            1 for l in spec.layers if l.kind in ("dense", "conv2d"))


def _fd_grad_w(net, w, p, x, y, loss_kind, h=1e-5):
    out = []
    for li, wl in enumerate(w):
        g = np.zeros_like(wl)
        for j in range(len(wl)):
            wp = [v.copy() for v in w]
            wm = [v.copy() for v in w]
            wp[li][j] += h
            wm[li][j] -= h
            g[j] = (net.loss(wp, p, x, y, loss_kind)
                    - net.loss(wm, p, x, y, loss_kind)) / (2 * h)
        out.append(g)
    return out


class TestBackward:
    def test_zero_net_squared_error_zero_target(self):
        """Linear head, all weights zero, target zero: gradient is zero."""
        net = Network(NetworkSpec([dense(3, 2)], (3,), 2))
        w = [np.zeros(net.weight_lengths[0])]
        grad_w, grad_act, loss = net.backward(
            w, ActivationParams(), np.ones((4, 3)), np.zeros((4, 2)),
            loss_kind="squared-error")
        assert loss == 0.0
        np.testing.assert_array_equal(grad_w[0], 0.0)

    def test_softmax_ce_error_signal(self):
        """With a softmax head the logit gradient is probabilities minus one-hot."""
        net = Network(NetworkSpec([dense(3, 4), softmax_layer()], (3,), 4))
        rng = np.random.default_rng(3)
        w = [rng.normal(size=net.weight_lengths[0]) * 0.3]
        x = rng.normal(size=3)
        y = 2
        probs = net.forward(w, None, x)
        grad_w, _, _ = net.backward(w, None, x, np.array([y]))
        signal = probs.copy()
        signal[y] -= 1.0
        # dense-layer weight gradient is outer(x, signal), bias gradient is signal
        W_grad = grad_w[0][:12].reshape(3, 4)
        b_grad = grad_w[0][12:]
        np.testing.assert_allclose(W_grad, np.outer(x, signal), rtol=1e-10)
        np.testing.assert_allclose(b_grad, signal, rtol=1e-10)

    def test_fd_dense_2_4_2(self):
        rng = np.random.default_rng(4)
        net = _dense_net(2, 2, hidden=(4,))
        w = net.init_weights(rng)
        p = ActivationParams(c=0.47, gamma=0.2, b=1.3)
        x = rng.normal(size=(6, 2)) + 0.1
        y = rng.integers(0, 2, size=6)
        grad_w, _, _ = net.backward(w, p, x, y)
        fd = _fd_grad_w(net, w, p, x, y, "cross-entropy")
        for a, b in zip(grad_w, fd):
            np.testing.assert_allclose(a, b, rtol=2e-5, atol=1e-8)

    @pytest.mark.parametrize("loss_kind", ["cross-entropy", "squared-error"])
    def test_fd_random_nets(self, loss_kind):
        """20 random dense nets: max relative error < 1e-5 against differences."""
        rng = np.random.default_rng(20)
        worst = 0.0
        for trial in range(20):
            n_in = int(rng.integers(2, 5))
            n_hidden = int(rng.integers(2, 6))
            classes = int(rng.integers(2, 4))
            net = _dense_net(n_in, classes, hidden=(n_hidden,))
            w = net.init_weights(rng)
            p = ActivationParams(c=0.42, gamma=0.15, b=1.1)
            x = rng.normal(size=(5, n_in)) * 1.5
            y = rng.integers(0, classes, size=5)
            grad_w, _, _ = net.backward(w, p, x, y, loss_kind=loss_kind)
            fd = _fd_grad_w(net, w, p, x, y, loss_kind)
            got = concat_weights(grad_w)
            want = concat_weights(fd)
            denom = np.maximum(np.abs(want), 1e-4)
            worst = max(worst, float(np.max(np.abs(got - want) / denom)))
        assert worst < 1e-5, f"worst relative error {worst}"

    def test_fd_activation_params(self):
        """Gradient in (c, gamma, b) matches differences; c away from 0.5."""
        rng = np.random.default_rng(6)
        net = _dense_net(3, 2, hidden=(4,))
        w = net.init_weights(rng)
        x = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        h = 1e-6
        for c in (0.23, 0.47, 0.81):
            p = ActivationParams(c=c, gamma=0.1, b=1.2)
            _, grad_act, _ = net.backward(w, p, x, y)
            for name in ("c", "gamma", "b"):
                up = {"c": p.c, "gamma": p.gamma, "b": p.b}
                dn = dict(up)
                up[name] += h
                dn[name] -= h
                fd = (net.loss(w, ActivationParams(**up), x, y)
                      - net.loss(w, ActivationParams(**dn), x, y)) / (2 * h)
                np.testing.assert_allclose(grad_act[name], fd, rtol=1e-4, atol=1e-7,
                                           err_msg=f"c={c} d/d{name}")

    @pytest.mark.parametrize("loss_kind", ["cross-entropy", "squared-error"])
    def test_weights_only_pass_bitwise_equal(self, loss_kind):
        """param_grads=False skips the activation-parameter gradients and
        leaves grad_w and the loss bit for bit as the full pass has them,
        for every registered activation."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12)
        if loss_kind == "squared-error":
            y = rng.normal(size=(12, 2))
        for name in registered_names():
            net = _dense_net(3, 2, activation=name, hidden=(5, 4))
            w = net.init_weights(rng)
            p = ActivationParams(c=0.6, gamma=0.2, b=0.9) if name == "mmelu" else default_params(name)
            full_w, full_act, full_loss = net.backward(w, p, x, y, loss_kind=loss_kind)
            fast_w, fast_act, fast_loss = net.backward(w, p, x, y, loss_kind=loss_kind,
                                                       param_grads=False)
            assert fast_act is None and full_act is not None, name
            assert fast_loss == full_loss, name
            for a, b in zip(fast_w, full_w):
                assert a.tobytes() == b.tobytes(), name

    def test_fd_conv_pool_net(self):
        """Small conv + pool + dense stack against finite differences."""
        rng = np.random.default_rng(7)
        layers = [conv2d(2, 1), act("mmelu"), maxpool(), flatten(),
                  dense(8, 2), softmax_layer()]
        net = Network(NetworkSpec(layers, (4, 4, 1), 2))
        w = net.init_weights(rng)
        p = ActivationParams(c=0.47, gamma=0.1, b=1.5)
        x = rng.normal(size=(3, 4, 4, 1))
        y = rng.integers(0, 2, size=3)
        grad_w, _, _ = net.backward(w, p, x, y)
        fd = _fd_grad_w(net, w, p, x, y, "cross-entropy")
        for a, b in zip(grad_w, fd):
            np.testing.assert_allclose(a, b, rtol=5e-5, atol=1e-7)


def _direct_conv(xp, W, b):
    # out[n, i, j] = b + sum over taps of W[:, :, di, dj] applied to the
    # padded input pixel (i + di, j + dj): a loop over pixels and taps
    n, Hp, Wp, _ = xp.shape
    out = np.empty((n, Hp - 2, Wp - 2, W.shape[0]))
    for i in range(Hp - 2):
        for j in range(Wp - 2):
            acc = np.tile(b, (n, 1))
            for di in range(3):
                for dj in range(3):
                    acc = acc + xp[:, i + di, j + dj, :] @ W[:, :, di, dj].T
            out[:, i, j, :] = acc
    return out


def _direct_conv_grads(xp, W, g):
    # (gW, gb, gx) of sum(g * conv(xp)) by the same pixel and tap loop
    n, Hp, Wp, _ = xp.shape
    gW = np.zeros_like(W)
    gxp = np.zeros_like(xp)
    for i in range(Hp - 2):
        for j in range(Wp - 2):
            for di in range(3):
                for dj in range(3):
                    gW[:, :, di, dj] += g[:, i, j, :].T @ xp[:, i + di, j + dj, :]
                    gxp[:, i + di, j + dj, :] += g[:, i, j, :] @ W[:, :, di, dj]
    return gW, g.sum(axis=(0, 1, 2)), gxp[:, 1:-1, 1:-1, :]


def _assert_rel(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


class TestConv:
    """The lowered conv kernels against a direct sum over output pixels and
    kernel taps, on batches that do and do not fill the image blocks."""

    @pytest.mark.parametrize("n, h, w_, c_in, c_out", [
        (11, 5, 5, 1, 4),     # one input channel, C_out < 9 C_in
        (1, 5, 5, 1, 16),     # batch of one, C_out > 9 C_in
        (11, 7, 7, 3, 20),    # odd size, C_out < 9 C_in
        (1, 7, 5, 2, 30),     # non-square, C_out > 9 C_in
        (17, 6, 7, 4, 40),    # two full blocks and a remainder, C_out > 9 C_in
    ])
    def test_matches_direct_sum(self, n, h, w_, c_in, c_out):
        rng = np.random.default_rng(n * 100 + h * 10 + c_out)
        x = rng.normal(size=(n, h, w_, c_in))
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        W = rng.normal(size=(c_out, c_in, 3, 3))
        b = rng.normal(size=c_out)
        g = rng.normal(size=(n, h, w_, c_out))
        _assert_rel(network_module._conv_forward(xp, W, b), _direct_conv(xp, W, b))
        got = network_module._conv_backward(xp, W, g)
        for a, e in zip(got, _direct_conv_grads(xp, W, g)):
            _assert_rel(a, e)
        gW, gb, gx = network_module._conv_backward(xp, W, g, input_grad=False)
        assert gx is None
        assert gW.tobytes() == got[0].tobytes() and gb.tobytes() == got[1].tobytes()


class TestInputGradientSkip:
    """backward stops at the first weighted layer: nothing reads the
    gradient with respect to the network input."""

    @pytest.mark.parametrize("param_grads", [True, False])
    def test_skip_leaves_results_bitwise_equal(self, param_grads):
        # a pool in front of the conv gives the backward loop somewhere to
        # go on to; forcing it there must change no output bit
        layers = [maxpool(), conv2d(3, 2), act("mmelu"), flatten(),
                  dense(48, 5), act("mmelu"), dense(5, 2), softmax_layer()]
        net = Network(NetworkSpec(layers, (8, 8, 2), 2))
        rng = np.random.default_rng(4)
        w = net.init_weights(rng)
        p = ActivationParams(c=0.47, gamma=0.1, b=1.5)
        x = rng.normal(size=(10, 8, 8, 2))
        y = rng.integers(0, 2, size=10)
        assert net._backward_stop == (1, 1)
        skipped = net.backward(w, p, x, y, param_grads=param_grads)
        net._backward_stop = (0, 0)
        full = net.backward(w, p, x, y, param_grads=param_grads)
        assert skipped[2] == full[2]
        for a, b in zip(skipped[0], full[0]):
            assert a.tobytes() == b.tobytes()
        assert skipped[1] == full[1]

    def test_first_conv_computes_no_input_gradient(self, monkeypatch):
        calls = []
        conv_backward = network_module._conv_backward

        def spy(xp, W, g, input_grad=True):
            calls.append((W.shape, input_grad))
            return conv_backward(xp, W, g, input_grad)

        monkeypatch.setattr(network_module, "_conv_backward", spy)
        spec, _ = cnn1()
        net = Network(spec)
        rng = np.random.default_rng(2)
        net.backward(net.init_weights(rng), ActivationParams(c=0.47),
                     rng.random((2, 28, 28, 1)), np.array([1, 7]))
        assert [flag for _, flag in calls] == [True, True, False]
        assert calls[-1][0] == (32, 1, 3, 3)

    def test_activation_below_first_weighted_layer_keeps_its_gradient(self):
        """An activation in front of the first weighted layer still owes
        parameter gradients, so the loop runs on to layer 0 for it."""
        net = Network(NetworkSpec(
            [act("mmelu"), dense(3, 4), act("mmelu"), dense(4, 2), softmax_layer()],
            (3,), 2))
        assert net._backward_stop == (1, 0)
        rng = np.random.default_rng(6)
        w = net.init_weights(rng)
        x = rng.normal(size=(9, 3))
        y = rng.integers(0, 2, size=9)
        vals = dict(c=0.6, gamma=0.2, b=0.9)
        full_w, grad_act, full_loss = net.backward(w, ActivationParams(**vals), x, y)
        fast_w, _, fast_loss = net.backward(w, ActivationParams(**vals), x, y,
                                            param_grads=False)
        assert fast_loss == full_loss
        for a, b in zip(fast_w, full_w):
            assert a.tobytes() == b.tobytes()
        h = 1e-6
        for name in vals:
            up, dn = dict(vals), dict(vals)
            up[name] += h
            dn[name] -= h
            fd = (net.loss(w, ActivationParams(**up), x, y)
                  - net.loss(w, ActivationParams(**dn), x, y)) / (2 * h)
            np.testing.assert_allclose(grad_act[name], fd, rtol=1e-4, atol=1e-7)


class TestActivationChunking:
    """The blend's kernels run activations_module.CHUNK values at a time:
    on a conv net whose activation input spans several chunks, one chunk
    covering the whole array moves only the parameter sums' rounding."""

    @pytest.mark.parametrize("param_grads", [True, False])
    def test_backward_invariant_to_chunk_size(self, monkeypatch, param_grads):
        layers = [conv2d(8, 1), act("mmelu"), maxpool(), flatten(),
                  dense(512, 6), act("mmelu"), dense(6, 3), softmax_layer()]
        net = Network(NetworkSpec(layers, (16, 16, 1), 3))
        rng = np.random.default_rng(8)
        w = net.init_weights(rng)
        p = ActivationParams(c=0.47, gamma=0.1, b=1.5)
        x = rng.normal(size=(40, 16, 16, 1))
        y = rng.integers(0, 3, size=40)
        conv_out = 40 * 16 * 16 * 8
        assert conv_out > 2 * activations_module.CHUNK
        chunked = net.backward(w, p, x, y, param_grads=param_grads), net.forward(w, p, x)
        monkeypatch.setattr(activations_module, "CHUNK", conv_out)
        (grad_w, grad_act, loss), out = chunked
        (whole_w, whole_act, whole_loss), whole_out = (
            net.backward(w, p, x, y, param_grads=param_grads), net.forward(w, p, x))
        assert np.float64(loss).tobytes() == np.float64(whole_loss).tobytes()
        assert out.tobytes() == whole_out.tobytes()
        for a, b in zip(grad_w, whole_w):
            assert a.tobytes() == b.tobytes()
        if not param_grads:
            assert grad_act is None and whole_act is None
            return
        for name, want in whole_act.items():
            assert abs(grad_act[name] - want) <= 1e-12 * abs(want), name


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    """Allocation sizes are deterministic, so tracemalloc's peak catches a
    conv temporary that grows with the batch, an activation temporary
    larger than one chunk, or a pool temporary more than the fused kernels
    need.  The peaks are set by the input and output of the activation
    layer after the first conv; the per-block patch matrices must stay
    below them."""

    def test_cnn1_peaks(self):
        spec, dropout = cnn1()
        net = Network(spec)
        rng = np.random.default_rng(0)
        w = net.init_weights(rng)
        p = ActivationParams(c=0.5, gamma=0.1, b=1.0)
        x = rng.random((32, 28, 28, 1))
        y = rng.integers(0, 10, 32)
        masks = {li: (rng.random((32,) + net.layer_shapes[li]) >= rate) / (1.0 - rate)
                 for li, rate in dropout.items()}
        x64 = rng.random((64, 28, 28, 1))
        backward = _traced_peak_mib(
            lambda: net.backward(w, p, x, y, average=True, dropout=masks))
        weights_only = _traced_peak_mib(
            lambda: net.backward(w, p, x, y, average=True, dropout=masks, param_grads=False))
        forward = _traced_peak_mib(lambda: net.forward(w, p, x64))
        assert backward <= 29.9, backward
        assert weights_only <= 29.4, weights_only
        assert forward <= 25.2, forward


def _loop_pool(h, g):
    """Per-window reference: (pooled, input gradient).  Cells are scanned
    in (0,0), (0,1), (1,0), (1,1) order and the first maximum wins, so a
    tie between -0.0 and +0.0 keeps the first one's sign."""
    n, H, W, C = h.shape
    out = np.empty((n, H // 2, W // 2, C))
    gx = np.zeros(h.shape)
    for a in range(n):
        for i in range(H // 2):
            for j in range(W // 2):
                for c in range(C):
                    cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
                    vals = [h[a, r, q, c] for r, q in cells]
                    k = vals.index(max(vals))  # max keeps the first of equal values
                    out[a, i, j, c] = vals[k]
                    gx[a, cells[k][0], cells[k][1], c] = g[a, i, j, c]
    return out, gx


class TestMaxpool:
    def _check_against_loop(self, h, rng):
        g = rng.normal(size=(h.shape[0], h.shape[1] // 2, h.shape[2] // 2, h.shape[3]))
        g.flat[::7] = -0.0  # signed zeros upstream are routed exactly
        out, route = network_module._maxpool_forward(h, True)
        gx = network_module._maxpool_backward(g, route, h.shape)
        want_out, want_gx = _loop_pool(h, g)
        assert out.tobytes() == want_out.tobytes()
        assert gx.tobytes() == want_gx.tobytes()
        plain, no_route = network_module._maxpool_forward(h, False)
        assert plain.tobytes() == out.tobytes() and no_route is None
        return gx

    def test_exact_ties_match_loop(self):
        """Windows with exact ties, from a three-value input and from the
        blend's flat stretch at c = 0.5 on (gamma, gamma + b)."""
        rng = np.random.default_rng(11)
        self._check_against_loop(rng.choice([-1.0, 0.5, 2.0], size=(3, 6, 8, 4)), rng)
        p = ActivationParams(c=0.5, gamma=0.1, b=1.0)
        x = rng.uniform(0.15, 1.05, size=(2, 8, 8, 3))
        h = mmelu(x, p)
        assert np.ptp(h) < 1e-12 < np.ptp(x)  # flat up to roundoff
        self._check_against_loop(h, rng)
        self._check_against_loop(np.full((1, 4, 4, 2), 0.55), rng)

    def test_signed_zeros_match_loop(self):
        """-0.0 and +0.0 tie: the first cell wins the route and its sign
        is the pooled value's."""
        rng = np.random.default_rng(12)
        h = rng.choice([-0.0, 0.0, -1.0], size=(4, 6, 6, 3))
        assert np.signbit(h).any() and (np.signbit(h) & (h == 0)).any()
        self._check_against_loop(h, rng)

    def test_odd_sizes_drop_last_row_and_column(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(2, 5, 7, 3))
        gx = self._check_against_loop(h, rng)
        assert gx.shape == h.shape
        assert not gx[:, 4].any() and not gx[:, :, 6].any()

    def test_backward_leaves_positive_zero_off_route(self):
        """Every cell that receives no gradient holds +0.0, while the
        routed cells hold g exactly, even where g is negative or -0.0."""
        rng = np.random.default_rng(14)
        h = rng.normal(size=(3, 7, 6, 2))
        g = -np.abs(rng.normal(size=(3, 3, 3, 2)))
        g[0, 0, 0, 0] = -0.0
        _, route = network_module._maxpool_forward(h, True)
        gx = network_module._maxpool_backward(g, route, h.shape)
        routed = _loop_pool(h, np.ones_like(g))[1] == 1.0
        assert routed.sum() == g.size
        off = gx[~routed]
        assert np.all(off == 0.0) and not np.signbit(off).any()
        assert gx[routed].tobytes() == _loop_pool(h, g)[1][routed].tobytes()
        assert np.signbit(gx[routed]).all()

    def test_routing_single_winner(self):
        """Each pooling window's gradient lands on exactly one input cell."""
        layers = [maxpool(), flatten(), dense(4, 2), softmax_layer()]
        net = Network(NetworkSpec(layers, (4, 4, 1), 2))
        rng = np.random.default_rng(8)
        w = net.init_weights(rng)
        x = rng.normal(size=(1, 4, 4, 1))
        # distinct values guarantee unique argmax per window
        grad_w, _, _ = net.backward(w, None, x, np.array([1]))
        h = 1e-5
        for i in range(4):
            for j in range(4):
                xp = x.copy()
                xm = x.copy()
                xp[0, i, j, 0] += h
                xm[0, i, j, 0] -= h
                fd = (net.loss(w, None, xp, np.array([1]))
                      - net.loss(w, None, xm, np.array([1]))) / (2 * h)
                win_i, win_j = i // 2, j // 2
                window = x[0, 2 * win_i:2 * win_i + 2, 2 * win_j:2 * win_j + 2, 0]
                is_winner = x[0, i, j, 0] == window.max()
                if not is_winner:
                    assert abs(fd) < 1e-12

    def test_pool_halves_spatial_dims(self):
        layers = [maxpool(), flatten(), dense(2 * 3 * 2, 2), softmax_layer()]
        net = Network(NetworkSpec(layers, (5, 6, 2), 2))
        assert net.layer_shapes[0] == (2, 3, 2)


class TestOptimizers:
    def test_adam_zero_gradient_keeps_weights(self):
        opt = Adam(1e-3)
        w = [np.array([1.0, -2.0, 3.0])]
        out = opt.step(w, [np.zeros(3)])
        np.testing.assert_array_equal(out[0], w[0])

    def test_adam_first_step_magnitude(self):
        """From zeroed moments a unit gradient moves each weight by about lr."""
        opt = Adam(1e-3)
        w = [np.zeros(1)]
        out = opt.step(w, [np.ones(1)])
        np.testing.assert_allclose(abs(out[0][0]), 1e-3, rtol=1e-6)

    def test_adam_constant_gradient_limit(self):
        """With a constant gradient the per-step move approaches lr."""
        opt = Adam(1e-2)
        w = [np.zeros(1)]
        prev = 0.0
        for _ in range(400):
            w = opt.step(w, [np.ones(1)])
        step = prev - w[0][0]
        # sign(g) = 1 so steps settle near lr in magnitude
        last = None
        w = [np.zeros(1)]
        opt = Adam(1e-2)
        for _ in range(400):
            nxt = opt.step(w, [np.ones(1)])
            last = w[0][0] - nxt[0][0]
            w = nxt
        np.testing.assert_allclose(last, 1e-2, rtol=5e-3)

    def test_sgd_step(self):
        opt = SGD(0.1)
        out = opt.step([np.array([1.0])], [np.array([2.0])])
        np.testing.assert_allclose(out[0], np.array([0.8]), rtol=1e-12)


class TestPresets:
    def test_mlp_shapes(self):
        spec, dropout = mlp(10, 3, hidden=(8, 4))
        net = Network(spec)
        assert net.n_layers == 3
        assert net.layer_shapes[-2] == (3,)

    def test_image_presets_compile(self):
        for preset in PRESETS.values():
            spec, _ = preset((28, 28, 1), 10)
            Network(spec)

    def test_spec_round_trip(self):
        spec, _ = mlp(6, 2, hidden=(5,))
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


def _draw(rng, shape, pool, share=0.5):
    # normal values with about `share` of the entries drawn from `pool`
    special = rng.choice(np.array(pool), size=shape)
    return np.where(rng.random(shape) < share, special, rng.normal(size=shape))


# (pool, share) per case.  +inf and -inf come in separate pools: where both
# meet in one sum they make a NaN whose sign bit follows the order of the
# adds (test_mixed_infinities)
_POOLS = {"normal": ([0.0], 0.0), "signed-zeros": ([0.0, -0.0], 0.5),
          "all-negative-zero": ([-0.0], 1.0), "+inf-nan": ([0.0, -0.0, np.inf, np.nan], 0.5),
          "-inf-nan": ([0.0, -0.0, -np.inf, np.nan], 0.5)}


class TestShortReductions:
    """The column-wise helpers are bit-equal to the numpy reductions they
    replace, whatever the width and whether or not they fall back."""

    @pytest.mark.parametrize("pool", list(_POOLS))
    @pytest.mark.parametrize("n", [1, 1500])
    @pytest.mark.parametrize("width", range(1, 10))
    def test_row_reductions(self, width, n, pool):
        rng = np.random.default_rng(width * 7 + n)
        h = _draw(rng, (n, width), *_POOLS[pool])
        with np.errstate(invalid="ignore"):
            assert (network_module._row_max(h).tobytes()
                    == h.max(axis=-1, keepdims=True).tobytes())
            assert (network_module._row_sum(h).tobytes()
                    == h.sum(axis=-1, keepdims=True).tobytes())

    @pytest.mark.parametrize("pool", list(_POOLS))
    @pytest.mark.parametrize("n", [1, 1500])
    @pytest.mark.parametrize("k", [1, 2, 8, 64, 128])
    def test_column_sum(self, k, n, pool):
        rng = np.random.default_rng(k * 11 + n)
        g = _draw(rng, (n, k), *_POOLS[pool])
        with np.errstate(invalid="ignore"):
            for layout in (g, np.asfortranarray(g)):
                assert network_module._column_sum(layout).tobytes() == layout.sum(axis=0).tobytes()

    def test_mixed_infinities(self):
        """Where +inf and -inf meet, every result that is not NaN is
        bit-equal and every NaN is NaN on both sides."""
        rng = np.random.default_rng(3)
        pool = [0.0, -0.0, np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore"):
            pairs = [(network_module._row_sum(h), h.sum(axis=-1, keepdims=True))
                     for h in (_draw(rng, (1500, k), pool) for k in range(1, 10))]
            pairs += [(network_module._column_sum(g), g.sum(axis=0))
                      for g in (_draw(rng, (1500, k), pool) for k in (2, 8, 64, 128))]
        for got, want in pairs:
            assert np.array_equal(np.isnan(got), np.isnan(want))
            keep = ~np.isnan(want)
            assert got[keep].tobytes() == want[keep].tobytes()

    @pytest.mark.parametrize("classes", [2, 10])
    def test_softmax_matches_max_sum_formulation(self, classes):
        """The softmax forward and backward on a (1500, classes) batch are
        bit-equal to the np.max / np.sum formulation."""
        rng = np.random.default_rng(classes)
        net = Network(NetworkSpec((dense(3, classes), softmax_layer()), (3,), classes))
        h = rng.normal(scale=20.0, size=(1500, classes))
        h[:10] = 0.0  # ties
        h[10:20, 0] = -0.0
        g = rng.normal(size=(1500, classes))
        g[:30] = -0.0
        _, _, forward = net._table[-1]
        p, backward = forward(h, None, None, True)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert p.tobytes() == want.tobytes()
        got, _ = backward(g, True, True)
        assert got.tobytes() == (want * (g - np.sum(g * want, axis=-1, keepdims=True))).tobytes()
