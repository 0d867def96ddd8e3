"""Conv weights keep the public shape (oc, c, kh, kw) but lie in memory in
the kernels' (oc, kh, kw, c) order, "kernel-major": every constructor
allocates them so, restores and training keep them so, the kernels give
the same bits for any order, and the im2col forward reads the weight in
place."""

import contextlib

import numpy as np
import pytest

from segstack import convkernels as ck
from segstack import training
from segstack.datapipe import synth_dataset
from segstack.fusion import make_corrector
from segstack.multikernel import extend_with_scale, make_head
from segstack.nnops import ConvParams, he_fill
from segstack.segnet import (build_segnet, init_he, load_checkpoint,
                             load_encoder_checkpoint, named_parameters,
                             save_checkpoint, state_entries)
from segstack.training import TrainConfig, train_segnet
from test_conv_split import one_cpu


def kernel_major(a: np.ndarray) -> bool:
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def conv_weights(spec):
    return [(name, t) for name, t, _ in named_parameters(spec) if t.ndim == 4]


def mini_net(seed=None):
    spec = build_segnet(k=5, scale="mini", in_channels=3,
                        head_scales=(3, 5, 7))
    if seed is not None:
        init_he(spec, seed=seed)
    return spec


def assert_kernel_major(named):
    named = list(named)
    assert named
    for name, t in named:
        assert kernel_major(t.data), name


class TestConstructors:
    @pytest.mark.parametrize("scale", ["mini", "full"])
    def test_network_weights_before_and_after_init(self, scale):
        spec = build_segnet(k=5, scale=scale, in_channels=3)
        assert_kernel_major(conv_weights(spec))
        init_he(spec, seed=0)
        assert_kernel_major(conv_weights(spec))

    def test_head_extension_and_corrector(self):
        head = make_head(16, 5, scales=(3, 5))
        head = extend_with_scale(head, 7, np.random.default_rng(0))
        assert_kernel_major((f"s{b.ksize[0]}", b.weight)
                            for b in head.branches)
        assert_kernel_major((name, t) for name, t
                            in make_corrector(10, 5, hidden=8).tensors()
                            if t.ndim == 4)


class TestKeptThrough:
    def test_checkpoint_and_encoder_loads(self, tmp_path):
        save_checkpoint(tmp_path, state_entries(mini_net(seed=1)))
        for load in (load_checkpoint, load_encoder_checkpoint):
            spec = mini_net()
            load(spec, tmp_path)
            assert_kernel_major(conv_weights(spec))

    def test_training_and_velocity(self, tmp_path, monkeypatch):
        optimizers = []

        class RecordingSGD(training.SGD):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(training, "SGD", RecordingSGD)
        spec = mini_net(seed=2)
        data = [(t[0].data, t[2]) for t in synth_dataset(3, 4, 32)]
        train_segnet(spec, data, TrainConfig(epochs=1, batch_size=2, seed=3,
                                             patch=32), tmp_path)
        weights = conv_weights(spec)
        assert_kernel_major(weights)
        (opt,) = optimizers
        for name, t in weights:
            assert kernel_major(opt._vel[id(t)][0]), name


def conv_case(rng, oc=128, c=128, k=3):
    """A (x, g) pair for a 3x3 conv (at the default widths, large enough
    to split in two), and its weight in C order and in kernel-major order
    with the same values."""
    x = rng.standard_normal((2, 16, 16, c)).astype(np.float32)
    g = rng.standard_normal((2, 16, 16, oc)).astype(np.float32)
    w_c = rng.standard_normal((oc, c, k, k)).astype(np.float32)
    w_k = np.empty((oc, k, k, c), np.float32).transpose(0, 3, 1, 2)
    w_k[...] = w_c
    assert w_c.flags.c_contiguous and kernel_major(w_k)
    return x, g, w_c, w_k


@pytest.fixture(params=["direct", "im2col"])
def route(request, monkeypatch):
    monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: request.param)
    return request.param


class TestKernels:
    @pytest.mark.parametrize("split", ["whole", "helper", "inline"])
    def test_any_weight_order_gives_the_same_bits(self, route, split,
                                                  monkeypatch):
        monkeypatch.setattr(ck._split, "pinned", split != "whole")
        x, g, w_c, w_k = conv_case(np.random.default_rng(0))
        with one_cpu() if split == "inline" else contextlib.nullcontext():
            got = [[ck.conv_forward(x, w, (1, 1), 1),
                    *ck.conv_backward(x, w, g, (1, 1), 1)]
                   for w in (w_c, w_k)]
        for a, b in zip(*got):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_weight_gradient_is_kernel_major(self, route):
        x, g, w_c, w_k = conv_case(np.random.default_rng(1), oc=8, c=6)
        for w in (w_c, w_k):
            _, gw, _ = ck.conv_backward(x, w, g, (1, 1), 1)
            assert gw.shape == w.shape and kernel_major(gw)

    def test_im2col_forward_reads_a_network_weight_in_place(self,
                                                            monkeypatch):
        monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: "im2col")
        x, _, _, _ = conv_case(np.random.default_rng(2), oc=8, c=6)
        params = ConvParams.zeros(6, 8, 3)
        he_fill(params, np.random.default_rng(3))
        w_k = params.weight.data
        operands, real = [], np.matmul

        def spy(a, b, *args, **kwargs):
            operands.append(b)
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        ck.conv_forward(x, w_k, (1, 1), 1)
        assert operands and all(np.shares_memory(b, w_k) for b in operands)
