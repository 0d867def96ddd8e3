"""Finite-difference validation of every backward rule.

All checks run in float64. Central differences with eps=1e-5; the
acceptance bar is relative error < 1e-4 against the analytic gradient.
"""

import numpy as np
import pytest

import oracles
from oracles import sum_all
from segstack import (BNState, ConvParams, Tensor, backward, conv2d,
                      cross_entropy_loss, maxpool2, relu, unpool2)
from segstack import convkernels as ck
from segstack.nnops import batchnorm, conv_norm, softmax_channels, to_nchw
from segstack.tensor import add, add_n, concat_channels, mean_n, scale

TOL = 1e-4


def t64(a, grad=True):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def weighted_sum(out, w):
    """Fixed random projection to a scalar so FD probes the full output."""
    return sum_all(scale(out, 1.0) if w is None else _mul_const(out, w))


def _mul_const(t, w):
    out = Tensor(t.data * w, requires_grad=t.requires_grad)
    from segstack.tensor import _record
    _record(out, (t,), lambda g: (g * w,), "mulc")
    return out


def project(rng, shape):
    return rng.standard_normal(shape)


class TestElementwise:
    def test_relu(self):
        rng = np.random.default_rng(7)
        # keep samples away from the kink at 0
        data = rng.standard_normal((3, 4, 5, 5))
        data[np.abs(data) < 0.05] = 0.1
        x = t64(data)
        w = project(rng, data.shape)
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(relu(x), w)), [x], rng)
        assert err < TOL

    def test_add_and_scale(self):
        rng = np.random.default_rng(8)
        a = t64(rng.standard_normal((2, 3, 4, 4)))
        b = t64(rng.standard_normal((2, 3, 4, 4)))
        w = project(rng, a.shape)
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(scale(add(a, b), -1.7), w)), [a, b], rng)
        assert err < TOL

    def test_add_n_mean_n(self):
        rng = np.random.default_rng(9)
        ts = [t64(rng.standard_normal((1, 2, 3, 3))) for _ in range(4)]
        w = project(rng, ts[0].shape)
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(add_n(ts), w)), ts, rng)
        assert err < TOL
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(mean_n(ts), w)), ts, rng)
        assert err < TOL

    def test_concat_channels(self):
        rng = np.random.default_rng(10)
        a = t64(rng.standard_normal((2, 2, 3, 3)))
        b = t64(rng.standard_normal((2, 5, 3, 3)))
        w = project(rng, (2, 7, 3, 3))
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(concat_channels([a, b]), w)), [a, b], rng)
        assert err < TOL


class TestConvGrad:
    @pytest.mark.parametrize("pad,stride,k", [((0, 0), 1, 3), ((1, 1), 1, 3),
                                              ((2, 2), 2, 5), ((0, 1), 1, 1)])
    def test_input_weight_bias(self, pad, stride, k):
        rng = np.random.default_rng(100 + k + stride)
        x = t64(rng.standard_normal((2, 3, 8, 8)))
        wt = t64(rng.standard_normal((4, 3, k, k)) * 0.5)
        bt = t64(rng.standard_normal(4))
        params = ConvParams(wt, bt, pad, stride)

        def loss():
            out = conv2d(x, params)
            return sum_all(_mul_const(out, project(np.random.default_rng(5),
                                                   out.shape)))

        err = oracles.check_gradients(loss, [x, wt, bt], rng)
        assert err < TOL

    def test_im2col_route_grad(self, monkeypatch):
        monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: "im2col")
        fill = ck._fill
        calls = []

        def spy(*args):
            calls.append(args)
            return fill(*args)

        monkeypatch.setattr(ck, "_fill", spy)
        rng = np.random.default_rng(42)
        x = t64(rng.standard_normal((1, 2, 9, 9)))
        wt = t64(rng.standard_normal((2, 2, 5, 5)) * 0.3)
        params = ConvParams(wt, None, (2, 2), 1)

        def loss():
            out = conv2d(x, params)
            return sum_all(_mul_const(out, project(np.random.default_rng(6),
                                                   out.shape)))

        err = oracles.check_gradients(loss, [x, wt], rng)
        assert calls, "the im2col route never ran"
        assert err < TOL


class TestPoolGrad:
    def test_maxpool_routes_to_argmax(self):
        rng = np.random.default_rng(11)
        # well-separated values so eps-perturbation cannot flip the argmax
        base = rng.permutation(2 * 2 * 6 * 6).astype(np.float64)
        x = t64(base.reshape(2, 2, 6, 6))
        w = project(rng, (2, 2, 3, 3))
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(maxpool2(x)[0], w)), [x], rng)
        assert err < TOL

    def test_unpool_grad(self):
        rng = np.random.default_rng(12)
        x = t64(rng.standard_normal((1, 2, 3, 3)))
        idx = rng.integers(0, 4, size=(1, 2, 3, 3)).astype(np.uint8)
        mask = idx.transpose(0, 2, 3, 1)
        w = project(rng, (1, 2, 6, 6))
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(unpool2(x, mask), w)), [x], rng)
        assert err < TOL


class TestBatchNormGrad:
    def test_train_mode(self):
        rng = np.random.default_rng(13)
        x = t64(rng.standard_normal((3, 4, 5, 5)) * 2 + 1)
        state = BNState.create(4)
        state.gamma = t64(rng.standard_normal(4) * 0.5 + 1)
        state.beta = t64(rng.standard_normal(4))
        w = project(rng, x.shape)

        def loss():
            return sum_all(_mul_const(batchnorm(x, state, mode="train"), w))

        err = oracles.check_gradients(loss, [x, state.gamma, state.beta], rng)
        assert err < TOL

    def test_eval_mode(self):
        rng = np.random.default_rng(14)
        x = t64(rng.standard_normal((2, 3, 4, 4)))
        state = BNState.create(3)
        state.gamma = t64(rng.standard_normal(3) + 1)
        state.beta = t64(rng.standard_normal(3))
        state.running_mean = rng.standard_normal(3)
        state.running_var = rng.random(3) + 0.5
        state.initialized = True
        w = project(rng, x.shape)

        def loss():
            return sum_all(_mul_const(batchnorm(x, state, mode="eval"), w))

        err = oracles.check_gradients(loss, [x, state.gamma, state.beta], rng)
        assert err < TOL


class TestConvBnReluGrad:
    """The fused channels-last unit in both batch-norm modes, on both
    conv routes (the input gradient's included), with and without bias."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("route", ["direct", "im2col"])
    @pytest.mark.parametrize("bias", [True, False])
    def test_input_weight_bias_gamma_beta(self, monkeypatch, mode, route,
                                          bias):
        monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: route)
        rng = np.random.default_rng(19)
        x = t64(rng.standard_normal((2, 6, 5, 3)))
        params = ConvParams(t64(rng.standard_normal((4, 3, 3, 3)) * 0.4),
                            t64(rng.standard_normal(4)) if bias else None,
                            (1, 1))
        state = BNState.create(4)
        state.gamma = t64(rng.standard_normal(4) * 0.5 + 1)
        state.beta = t64(rng.standard_normal(4) * 0.5)
        if mode == "eval":
            state.running_mean = rng.standard_normal(4)
            state.running_var = rng.random(4) + 0.5
            state.initialized = True
        w = project(rng, (2, 6, 5, 4))
        leaves = [x, params.weight, state.gamma, state.beta]
        if bias:
            leaves.append(params.bias)

        def loss():
            y = to_nchw(conv_norm(x, params, state, mode))
            return sum_all(_mul_const(y, w.transpose(0, 3, 1, 2)))

        err = oracles.check_gradients(loss, leaves, rng)
        assert err < TOL


class TestSoftmaxCEGrad:
    def test_softmax(self):
        rng = np.random.default_rng(15)
        x = t64(rng.standard_normal((2, 5, 3, 3)))
        w = project(rng, x.shape)
        err = oracles.check_gradients(
            lambda: sum_all(_mul_const(softmax_channels(x), w)), [x], rng)
        assert err < TOL

    def test_cross_entropy(self):
        rng = np.random.default_rng(16)
        x = t64(rng.standard_normal((2, 4, 5, 5)))
        labels = rng.integers(0, 4, size=(2, 5, 5))
        err = oracles.check_gradients(
            lambda: cross_entropy_loss(x, labels), [x], rng)
        assert err < TOL

    def test_cross_entropy_with_ignored(self):
        rng = np.random.default_rng(17)
        from segstack import IGNORE_LABEL
        x = t64(rng.standard_normal((1, 3, 4, 4)))
        labels = rng.integers(0, 3, size=(1, 4, 4))
        labels[0, :2, :] = IGNORE_LABEL
        err = oracles.check_gradients(
            lambda: cross_entropy_loss(x, labels), [x], rng)
        assert err < TOL


class TestCompositeGraph:
    def test_conv_bn_relu_pool_unpool_softmax_ce(self):
        """End-to-end check through one encoder-decoder-ish slice."""
        rng = np.random.default_rng(18)
        x = t64(rng.standard_normal((2, 2, 8, 8)))
        w1 = t64(rng.standard_normal((4, 2, 3, 3)) * 0.4)
        b1 = t64(np.zeros(4))
        p1 = ConvParams(w1, b1, (1, 1))
        state = BNState.create(4)
        state.gamma = t64(np.ones(4) + rng.standard_normal(4) * 0.1)
        state.beta = t64(rng.standard_normal(4) * 0.1)
        w2 = t64(rng.standard_normal((3, 4, 3, 3)) * 0.4)
        p2 = ConvParams(w2, None, (1, 1))
        labels = rng.integers(0, 3, size=(2, 8, 8))

        def loss():
            h = batchnorm(conv2d(x, p1), state, mode="train")
            h = relu(h)
            pooled, mask = maxpool2(h)
            up = unpool2(pooled, mask)
            logits = conv2d(up, p2)
            return cross_entropy_loss(logits, labels)

        err = oracles.check_gradients(
            loss, [x, w1, b1, state.gamma, state.beta, w2], rng, n_coords=60)
        assert err < TOL
