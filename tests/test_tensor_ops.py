"""Forward semantics of the tensor operator set and the conv kernels'
gradients, pinned against the naive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import sum_all
from segstack import (IGNORE_LABEL, ConvParams, ShapeError, StaleTapeError,
                      Tensor, backward, conv2d, cross_entropy_loss, maxpool2,
                      relu, softmax_channels, unpool2)
from segstack import convkernels as ck
from segstack.nnops import (BNState, PoolMask, batchnorm, conv_unit, pool,
                           unpool)
from segstack.segnet import ConvUnit
from segstack.tensor import no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def nhwc(a):
    """Channels-last copy of an (n,c,h,w) array."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def make_conv(w, b=None, pad=(0, 0), stride=1):
    wt = Tensor(np.asarray(w, dtype=np.float64), requires_grad=True)
    bt = None if b is None else Tensor(np.asarray(b, dtype=np.float64),
                                       requires_grad=True)
    return ConvParams(wt, bt, pad, stride)


class TestConv2d:
    def test_all_ones_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        params = make_conv(np.ones((1, 1, 3, 3)), b=np.zeros(1))
        out = conv2d(x, params)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0)

    def test_identity_kernel_same_padding(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 6, 6)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, make_conv(w, pad=(1, 1)))
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)

    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 5, 5))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), make_conv(w, b))
        expect = oracles.naive_conv2d(x, w, b)
        np.testing.assert_allclose(out.data, expect, rtol=1e-6)

    @pytest.mark.parametrize("route", ["direct", "im2col"])
    def test_both_routes_match_oracle(self, rng, route):
        for _ in range(10):
            n, c, oc = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(k, 13))
            w = int(rng.integers(k, 13))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.integers(0, 3))
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((oc, c, k, k))
            got = ck.conv_forward(nhwc(x), wt, (pad, pad), stride, route)
            expect = nhwc(oracles.naive_conv2d(x, wt, None, (pad, pad), stride))
            np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-9)

    def test_output_shape_formula(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 11, 9)))
        params = make_conv(rng.standard_normal((3, 2, 3, 3)), pad=(1, 1), stride=2)
        out = conv2d(x, params)
        assert out.shape == (1, 3, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_axis(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 8, 8)))
        params = make_conv(rng.standard_normal((2, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, params)

    def test_kernel_larger_than_padded_input(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        params = make_conv(rng.standard_normal((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="height"):
            conv2d(x, params)


class TestMaxPoolUnpool:
    def test_single_window(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out, mask = maxpool2(x)
        assert out.item() == 4.0
        assert mask.indices[0, 0, 0, 0] == 3  # bottom-right slot

    def test_tie_break_first_slot(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0))
        out, mask = maxpool2(x)
        assert out.item() == 7.0
        assert mask.indices[0, 0, 0, 0] == 0

    def test_matches_window_scan(self, rng):
        x = rng.standard_normal((1, 2, 8, 8))
        out, mask = maxpool2(Tensor(x))
        expect_v, expect_i = oracles.scan_maxpool2(x)
        np.testing.assert_array_equal(out.data, expect_v)
        np.testing.assert_array_equal(mask.indices, nhwc(expect_i))

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError, match="odd"):
            maxpool2(Tensor(rng.standard_normal((1, 1, 5, 4))))

    def test_round_trip_places_maxima(self, rng):
        # distinct per-window values via a shuffled value grid
        vals = (rng.permutation(64) + 1.0).reshape(1, 1, 8, 8)
        x = Tensor(vals)
        pooled, mask = maxpool2(x)
        restored = unpool2(pooled, mask)
        expect = oracles.scatter_unpool2(*oracles.scan_maxpool2(vals))
        np.testing.assert_array_equal(restored.data, expect)
        # every window max survives, everything else is zeroed
        nz = restored.data != 0
        assert nz.sum() == 16
        np.testing.assert_array_equal(np.sort(restored.data[nz]),
                                      np.sort(pooled.data.reshape(-1)))

    def test_unpool_zero_input(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        mask_src, mask = maxpool2(Tensor(np.arange(16.0).reshape(1, 1, 4, 4)))
        out = unpool2(x, mask)
        assert not out.data.any()

    def test_channels_last_matches_scan_with_ties(self, rng):
        # few distinct values, so most windows hold a tied maximum
        x = rng.integers(0, 3, size=(2, 3, 6, 8)).astype(np.float32)
        out, mask = pool(Tensor(nhwc(x)))
        expect_v, expect_i = oracles.scan_maxpool2(x)
        np.testing.assert_array_equal(out.data.transpose(0, 3, 1, 2),
                                      expect_v)
        assert mask.indices.dtype == np.uint8
        np.testing.assert_array_equal(mask.indices.transpose(0, 3, 1, 2),
                                      expect_i)
        restored = unpool(out, mask)
        np.testing.assert_array_equal(
            restored.data.transpose(0, 3, 1, 2),
            oracles.scatter_unpool2(expect_v, expect_i))

    def test_unpool_mass_conservation(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        idx = rng.integers(0, 4, size=(2, 3, 4, 4)).astype(np.uint8)
        out = unpool2(Tensor(x), PoolMask((2, 4, 4, 3), nhwc(idx)))
        expect = oracles.scatter_unpool2(x, idx)
        np.testing.assert_array_equal(out.data, expect)
        assert out.data.sum() == pytest.approx(x.sum(), rel=1e-12)

    def test_unpool_shape_mismatch(self, rng):
        idx = np.zeros((1, 2, 2, 1), dtype=np.uint8)
        with pytest.raises(ShapeError, match="mask"):
            unpool2(Tensor(np.zeros((1, 1, 3, 2))), PoolMask((1, 2, 2, 1), idx))


def _unit(rng, oc=6, c=4, bias=True, dtype=np.float32):
    params = ConvParams(
        Tensor(rng.standard_normal((oc, c, 3, 3)).astype(dtype) * 0.3,
               requires_grad=True),
        Tensor(rng.standard_normal(oc).astype(dtype), requires_grad=True)
        if bias else None, (1, 1))
    bn = BNState.create(oc, dtype=dtype)
    bn.gamma.data[...] = rng.uniform(0.5, 1.5, oc)
    bn.beta.data[...] = rng.standard_normal(oc) * 0.5
    return ConvUnit("u", params, bn, "encoder")


class TestConvBnRelu:
    """The fused unit against the composition of the (n,c,h,w) ops."""

    @pytest.mark.parametrize("bias", [True, False])
    def test_folded_eval_matches_composition(self, rng, bias):
        unit = _unit(rng, bias=bias)
        unit.bn.running_mean[...] = rng.standard_normal(6) * 2
        unit.bn.running_var[...] = rng.uniform(0.2, 3.0, 6)
        unit.bn.initialized[...] = 1
        x = rng.standard_normal((2, 4, 16, 12)).astype(np.float32) * 3
        with no_grad():
            got = conv_unit(Tensor(nhwc(x)), unit.params, unit.bn,
                            "eval").data
            want = relu(batchnorm(conv2d(Tensor(x), unit.params), unit.bn,
                                  "eval")).data
        assert got.dtype == np.float32
        assert _rel_err(got.transpose(0, 3, 1, 2), want) < 1e-6

    def test_train_matches_composition_and_running_stats(self, rng):
        units = [_unit(np.random.default_rng(3)) for _ in range(2)]
        x = rng.standard_normal((2, 4, 16, 12)).astype(np.float32) + 1
        got = conv_unit(Tensor(nhwc(x)), units[0].params, units[0].bn,
                        "train").data
        want = relu(batchnorm(conv2d(Tensor(x), units[1].params),
                              units[1].bn, "train")).data
        assert _rel_err(got.transpose(0, 3, 1, 2), want) < 1e-6
        for attr in ("running_mean", "running_var"):
            np.testing.assert_allclose(getattr(units[0].bn, attr),
                                       getattr(units[1].bn, attr),
                                       rtol=1e-6, atol=1e-7)

    def test_uninitialized_eval_rejected(self, rng):
        from segstack import TrainingError
        unit = _unit(rng)
        with pytest.raises(TrainingError, match="uninitialized"):
            conv_unit(Tensor(np.zeros((1, 4, 4, 4), np.float32)),
                      unit.params, unit.bn, "eval")


class TestSoftmax:
    def test_uniform_logits(self):
        x = Tensor(np.zeros((1, 5, 2, 2)))
        p = softmax_channels(x)
        np.testing.assert_allclose(p.data, 0.2, rtol=1e-7)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal((2, 4, 3, 3))
        a = softmax_channels(Tensor(z)).data
        b = softmax_channels(Tensor(z + 123.5)).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)

    def test_matches_direct_oracle(self, rng):
        z = rng.standard_normal((2, 6, 4, 4))
        p = softmax_channels(Tensor(z)).data
        np.testing.assert_allclose(p, oracles.softmax_direct(z), rtol=1e-7)

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, k, seed):
        z = np.random.default_rng(seed).standard_normal((1, k, 3, 3)) * 10
        p = softmax_channels(Tensor(z)).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


class TestCrossEntropy:
    def test_confident_correct_logits(self, rng):
        labels = rng.integers(0, 4, size=(1, 4, 4))
        z = np.zeros((1, 4, 4, 4))
        for i in range(4):
            for j in range(4):
                z[0, labels[0, i, j], i, j] = 50.0  # +50 margin on true class
        loss = cross_entropy_loss(Tensor(z), labels)
        assert loss.item() < 1e-6

    def test_uniform_logits_give_log_k(self):
        k = 7
        z = Tensor(np.zeros((2, k, 3, 3)))
        labels = np.zeros((2, 3, 3), dtype=np.int64)
        loss = cross_entropy_loss(z, labels)
        assert loss.item() == pytest.approx(np.log(k), rel=1e-9)

    def test_matches_per_pixel_oracle(self, rng):
        z = rng.standard_normal((2, 5, 4, 4))
        labels = rng.integers(0, 5, size=(2, 4, 4))
        labels[0, 0, :2] = IGNORE_LABEL
        loss = cross_entropy_loss(Tensor(z), labels)
        expect = oracles.cross_entropy_direct(z, labels)
        assert loss.item() == pytest.approx(expect, rel=1e-6)

    def test_invalid_label_reports_pixel(self, rng):
        z = Tensor(rng.standard_normal((1, 3, 2, 2)))
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        labels[0, 1, 0] = 9
        with pytest.raises(ShapeError, match=r"label 9.*y=1, x=0"):
            cross_entropy_loss(z, labels)

    def test_ignored_pixels_excluded_from_normalizer(self, rng):
        z = rng.standard_normal((1, 3, 2, 2))
        labels = np.full((1, 2, 2), IGNORE_LABEL, dtype=np.int64)
        labels[0, 0, 0] = 1
        loss = cross_entropy_loss(Tensor(z), labels)
        p = oracles.softmax_direct(z)
        assert loss.item() == pytest.approx(-np.log(p[0, 1, 0, 0]), rel=1e-6)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_detached_tensor_receives_no_grad(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=False)
        y = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        from segstack import add
        backward(sum_all(add(x, y)))
        assert x.grad is None
        assert y.grad is not None

    def test_only_leaves_keep_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        from segstack import add
        hidden = relu(add(x, y))
        loss = sum_all(hidden)
        backward(loss)
        assert hidden.grad is None and loss.grad is None
        mask = (x.data + y.data > 0).astype(np.float64)
        np.testing.assert_array_equal(x.grad, mask)
        np.testing.assert_array_equal(y.grad, mask)

    def test_backward_twice_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        loss = sum_all(x)
        backward(loss)
        with pytest.raises(StaleTapeError):
            backward(loss)

    def test_backward_needs_scalar(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(relu(x))

    def test_relu_gradient_zero_on_negatives(self):
        x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), requires_grad=True)
        backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0, 1.0])

    def test_forward_backward_stay_finite(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        params = ConvParams(
            Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32) * 0.5,
                   requires_grad=True),
            Tensor(np.zeros(4, dtype=np.float32), requires_grad=True),
            (1, 1))
        out = relu(conv2d(x, params))
        labels = rng.integers(0, 4, size=(2, 8, 8))
        loss = cross_entropy_loss(out, labels)
        backward(loss)
        assert np.isfinite(out.data).all()
        assert np.isfinite(loss.data).all()
        assert np.isfinite(x.grad).all()
        assert np.isfinite(params.weight.grad).all()


# the acceptance suite's conv oracle tolerance
CONV_TOL = 1e-6

# (kh, kw), (ph, pw), stride; padding above k-1 makes the input
# gradient's re-padding negative, so it crops the upstream gradient
BACKWARD_CASES = [
    ((3, 3), (1, 1), 1),
    ((3, 3), (0, 0), 2),
    ((5, 5), (2, 2), 2),
    ((1, 1), (3, 3), 1),
    ((3, 3), (3, 1), 1),
    ((3, 3), (3, 3), 2),
    ((2, 4), (0, 3), 3),
]


def _force_route(monkeypatch, route):
    """Send every correlation, the input gradient's included, to ``route``."""
    monkeypatch.setattr(ck, "select_route", lambda rows, c: route)


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1.0)


class TestConvBackward:
    @pytest.mark.parametrize("route", ["direct", "im2col"])
    @pytest.mark.parametrize(
        "ksize,pad,stride", BACKWARD_CASES,
        ids=[f"k{k[0]}x{k[1]}-pad{p[0]}-{p[1]}-s{s}"
             for k, p, s in BACKWARD_CASES])
    def test_matches_oracle(self, rng, monkeypatch, route, ksize, pad, stride):
        _force_route(monkeypatch, route)
        x = rng.standard_normal((2, 3, 9, 8))
        w = rng.standard_normal((4, 3) + ksize)
        oh, ow = ck.check_conv_shapes(nhwc(x), w, pad, stride)
        g = rng.standard_normal((2, 4, oh, ow))
        got = ck.conv_backward(nhwc(x), w, nhwc(g), pad, stride, route)
        gx, gw, gb = oracles.naive_conv2d_backward(x, w, g, pad, stride)
        want = nhwc(gx), gw, gb
        for name, a, b in zip(("grad_x", "grad_w", "grad_b"), got, want):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9,
                                       err_msg=name)

    def test_input_grad_skipped_on_request(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        gx, gw, _ = ck.conv_backward(nhwc(x), w, np.ones((1, 3, 3, 3)), (0, 0),
                                     1, "direct", need_input_grad=False)
        assert gx is None and gw.shape == w.shape

    @pytest.mark.parametrize("xshape,wshape", [
        ((4, 512, 4, 4), (512, 512, 3, 3)),
        ((1, 16, 64, 64), (5, 16, 7, 7)),
    ], ids=["3x3-512ch-4px", "7x7-16to5-64px"])
    def test_routes_agree_on_router_shapes(self, rng, monkeypatch, xshape,
                                           wshape):
        x = nhwc(rng.standard_normal(xshape))
        w = rng.standard_normal(wshape) / np.sqrt(np.prod(wshape[1:]))
        pad = ((wshape[2] - 1) // 2,) * 2
        g = nhwc(rng.standard_normal(xshape[:1] + wshape[:1] + xshape[2:]))
        results = []
        for route in ("direct", "im2col"):
            _force_route(monkeypatch, route)
            results.append(
                (ck.conv_forward(x, w, pad, 1, route),)
                + ck.conv_backward(x, w, g, pad, 1, route))
        for name, a, b in zip(("out", "grad_x", "grad_w", "grad_b"),
                              *results):
            assert _rel_err(a, b) < CONV_TOL, name


class TestConvOracleProperty:
    def test_random_shapes_up_to_16(self, rng):
        # shapes up to 2x4x16x16 with random kernels, both routes
        for case in range(40):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 5))
            oc = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5, 7]))
            h = int(rng.integers(k, 17))
            w = int(rng.integers(k, 17))
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((oc, c, k, k))
            b = rng.standard_normal(oc)
            got = conv2d(Tensor(x), make_conv(wt, b)).data
            expect = oracles.naive_conv2d(x, wt, b)
            np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-9)
