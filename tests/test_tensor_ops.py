"""Forward semantics of the tensor operator set and the conv kernels'
gradients, pinned against the naive oracles."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import sum_all
from segstack import (IGNORE_LABEL, ConvParams, Tensor, backward,
                      build_segnet, conv2d, cross_entropy_loss, forward,
                      maxpool2, relu, unpool2)
from segstack import convkernels as ck
from segstack import tensor
from segstack.errors import (ConfigError, ShapeError, SpecError,
                             StaleTapeError, TrainingError)
from segstack.nnops import (BNState, batchnorm, conv_norm, pool,
                           softmax_channels, to_nchw, unpool)
from segstack.segnet import ConvUnit
from segstack.tensor import (apply_steps, hold_step, leaf_grads_to, no_grad,
                             pending_steps, value)


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
    def test_both_routes_match_oracle(self, rng, monkeypatch, route):
        _force_route(monkeypatch, route)
        for _ in range(10):
            n, c, oc = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(k, 13))
            w = int(rng.integers(k, 13))
            stride = int(rng.choice([1, 2]))
            pad = int(rng.integers(0, 3))
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((oc, c, k, k))
            got = ck.conv_forward(nhwc(x), wt, (pad, pad), stride)
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


def _zeros(*shape):
    return Tensor(np.zeros(shape))


MALFORMED = {
    "conv2d_3d_input": (lambda: conv2d(_zeros(3, 4, 4), make_conv(
        np.zeros((1, 3, 1, 1)))), ShapeError, "input must be 4-D"),
    "forward_3d_input": (lambda: forward(build_segnet(2, "mini"),
                                         _zeros(3, 32, 32), mode="train"),
                         ShapeError, "input must be 4-D"),
    "forward_mode": (lambda: forward(build_segnet(2, "mini"),
                                     _zeros(1, 3, 32, 32), mode="Train"),
                     ConfigError, "unknown mode 'Train'"),
    "conv_weight_3d": (lambda: ConvParams(_zeros(1, 3, 3), None, (1, 1)),
                       SpecError, "weight must be 4-D"),
    "conv_bias_shape": (lambda: make_conv(np.zeros((2, 1, 3, 3)),
                                          b=np.zeros(3)),
                        SpecError, "does not match 2 output channels"),
    "conv_stride_0": (lambda: make_conv(np.zeros((1, 1, 3, 3)), stride=0),
                      SpecError, "stride must be positive"),
    "conv_padding_negative": (lambda: make_conv(np.zeros((1, 1, 3, 3)),
                                                pad=(1, -1)),
                              SpecError, "padding must be non-negative"),
    "add_shapes": (lambda: tensor.add(_zeros(1, 2), _zeros(2, 1)),
                   ShapeError, r"operand shapes \(1, 2\) and \(2, 1\)"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_operand_rejected(case):
    """Each check on what a public op is handed, reached from the op."""
    call, error, message = MALFORMED[case]
    with pytest.raises(error, match=message):
        call()


class TestMaxPoolUnpool:
    def test_single_window(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out, mask = maxpool2(x)
        assert out.item() == 4.0
        assert mask[0, 0, 0, 0] == 3  # bottom-right slot

    def test_tie_break_first_slot(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0))
        out, mask = maxpool2(x)
        assert out.item() == 7.0
        assert mask[0, 0, 0, 0] == 0

    def test_matches_window_scan(self, rng):
        x = rng.standard_normal((1, 2, 8, 8))
        out, mask = maxpool2(Tensor(x))
        expect_v, expect_i = oracles.scan_maxpool2(x)
        np.testing.assert_array_equal(out.data, expect_v)
        np.testing.assert_array_equal(mask, nhwc(expect_i))

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError, match="height axis extent 5 is odd"):
            maxpool2(Tensor(rng.standard_normal((1, 1, 5, 4))))
        with pytest.raises(ShapeError, match="width axis extent 5 is odd"):
            maxpool2(Tensor(rng.standard_normal((1, 1, 4, 5))))

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
        assert mask.dtype == np.uint8
        np.testing.assert_array_equal(mask.transpose(0, 3, 1, 2),
                                      expect_i)
        restored = unpool(out, mask)
        np.testing.assert_array_equal(
            restored.data.transpose(0, 3, 1, 2),
            oracles.scatter_unpool2(expect_v, expect_i))

    def test_unpool_mass_conservation(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        idx = rng.integers(0, 4, size=(2, 3, 4, 4)).astype(np.uint8)
        out = unpool2(Tensor(x), nhwc(idx))
        expect = oracles.scatter_unpool2(x, idx)
        np.testing.assert_array_equal(out.data, expect)
        assert out.data.sum() == pytest.approx(x.sum(), rel=1e-12)

    @staticmethod
    def special_values(rng, shape, dtype):
        """Normal values with every other entry one of NaN payloads,
        infinities, -0.0 and subnormals."""
        uint = np.dtype(f"u{np.dtype(dtype).itemsize}")
        payload_nan = np.array(uint.type(np.iinfo(uint).max - 1)).view(dtype)
        special = np.array([np.nan, -np.nan, payload_nan, np.inf, -np.inf,
                            -0.0, 0.0, np.finfo(dtype).smallest_subnormal,
                            -np.finfo(dtype).max], dtype)
        values = rng.standard_normal(shape).astype(dtype)
        flat = values.reshape(-1)
        flat[::2] = np.resize(special, flat[::2].size)
        return values

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter2_bits_match_where_oracle(self, rng, dtype):
        """The bit-select scatter moves every value bit for bit."""
        values = self.special_values(rng, (3, 4, 5, 6), dtype)
        idx = rng.integers(0, 4, values.shape).astype(np.uint8)
        got = ck.scatter2(values, idx)
        assert got.dtype == values.dtype
        assert got.tobytes() == oracles.scatter2_where(values, idx).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["nhwc", "nchw"])
    def test_gather2_bits_match_choose_oracle(self, rng, dtype, layout):
        """The bit-select gather moves every value bit for bit, from a
        contiguous gradient or a transposed view of one."""
        g = self.special_values(rng, (3, 8, 10, 6), dtype)
        if layout == "nchw":
            g = np.ascontiguousarray(g.transpose(0, 3, 1, 2)).transpose(
                0, 2, 3, 1)
        idx = rng.integers(0, 4, (3, 4, 5, 6)).astype(np.uint8)
        got = ck.gather2(g, idx)
        assert got.dtype == g.dtype
        assert got.tobytes() == oracles.gather2_choose(g, idx).tobytes()

    def test_unpool_shape_mismatch(self, rng):
        idx = np.zeros((1, 2, 2, 1), dtype=np.uint8)
        with pytest.raises(ShapeError, match="mask"):
            unpool2(Tensor(np.zeros((1, 1, 3, 2))), idx)


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
            got = to_nchw(conv_norm(Tensor(nhwc(x)), unit.params, unit.bn,
                                    "eval")).data
            want = relu(batchnorm(conv2d(Tensor(x), unit.params), unit.bn,
                                  "eval")).data
        assert got.dtype == np.float32
        assert _rel_err(got, want) < 1e-6

    def test_train_matches_composition_and_running_stats(self, rng):
        units = [_unit(np.random.default_rng(3)) for _ in range(2)]
        x = rng.standard_normal((2, 4, 16, 12)).astype(np.float32) + 1
        got = to_nchw(conv_norm(Tensor(nhwc(x)), units[0].params,
                                units[0].bn, "train")).data
        want = relu(batchnorm(conv2d(Tensor(x), units[1].params),
                              units[1].bn, "train")).data
        assert _rel_err(got, want) < 1e-6
        for attr in ("running_mean", "running_var"):
            np.testing.assert_allclose(getattr(units[0].bn, attr),
                                       getattr(units[1].bn, attr),
                                       rtol=1e-6, atol=1e-7)

    def test_uninitialized_eval_rejected(self, rng):
        from segstack.errors import TrainingError
        unit = _unit(rng)
        with pytest.raises(TrainingError, match="uninitialized"):
            conv_norm(Tensor(np.zeros((1, 4, 4, 4), np.float32)),
                      unit.params, unit.bn, "eval")
        # batchnorm checks the state's channel count and the mode
        x = Tensor(np.zeros((1, 6, 4, 4), np.float32))
        with pytest.raises(ShapeError, match="6 channels, state expects 4"):
            batchnorm(x, BNState.create(4), "train")
        with pytest.raises(ConfigError, match="unknown mode 'Train'"):
            batchnorm(x, unit.bn, "Train")


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
        with pytest.raises(ShapeError, match="integer-typed, got float64"):
            cross_entropy_loss(z, labels.astype(np.float64))
        with pytest.raises(ShapeError, match=r"\(1, 2, 3\) does not match"):
            cross_entropy_loss(z, np.zeros((1, 2, 3), dtype=np.int64))
        with pytest.raises(ShapeError, match="logits must be 4-D"):
            cross_entropy_loss(Tensor(z.data[0]), labels)

    def test_all_pixels_ignored_rejected(self, rng):
        z = Tensor(rng.standard_normal((1, 3, 2, 2)))
        labels = np.full((1, 2, 2), IGNORE_LABEL, dtype=np.int64)
        with pytest.raises(TrainingError, match="every pixel carries"):
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
        from segstack.tensor import add
        backward(sum_all(add(x, y)))
        assert x.grad is None
        assert y.grad is not None

    def test_only_leaves_keep_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        from segstack.tensor import add
        hidden = relu(add(x, y))
        loss = sum_all(hidden)
        backward(loss)
        assert hidden.grad is None and loss.grad is None
        mask = (x.data + y.data > 0).astype(np.float64)
        np.testing.assert_array_equal(x.grad, mask)
        np.testing.assert_array_equal(y.grad, mask)

    def test_operand_read_twice_gets_both_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        backward(sum_all(tensor.add(x, x)))
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_loss_without_tape_gives_no_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        with no_grad():
            unrecorded = sum_all(x)
        for loss in (Tensor(np.float32(1)), unrecorded):
            backward(loss)
            assert loss.grad is None and x.grad is None
            with pytest.raises(StaleTapeError):
                backward(loss)

    def test_integer_data_is_held_as_float32(self):
        t = Tensor(np.arange(3))
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t.data, [0, 1, 2])
        assert repr(t) == "Tensor(shape=(3,), dtype=float32)"
        t.requires_grad = True
        assert repr(relu(t)) == "Tensor(shape=(3,), dtype=float32, op='relu')"

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


class TestPendingSteps:
    def step(self, rng):
        a = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        return a, 0.37, rng.standard_normal(a.shape).astype(np.float32)

    def test_outside_a_block_nothing_is_held(self, rng):
        a, s, v = self.step(rng)
        before = a.copy()
        assert not hold_step(a, s, v)
        assert value(a) is a
        np.testing.assert_array_equal(a, before)

    def test_held_step_reads_as_applied_and_ends_applied(self, rng):
        """Inside the block the array keeps its bits and ``value`` has the
        in-place update's; the block's end applies what is still held."""
        a, s, v = self.step(rng)
        before = a.copy()
        want = a.copy()
        want -= s * v
        steps = {}
        with pending_steps(steps):
            assert hold_step(a, s, v)
            assert value(a).tobytes() == want.tobytes()
            assert a.tobytes() == before.tobytes()
        assert not steps
        assert a.tobytes() == want.tobytes()

    def test_raising_block_ends_with_its_steps_applied(self, rng):
        a, s, v = self.step(rng)
        want = a.copy()
        want -= s * v
        steps = {}
        with pytest.raises(Boom):
            with pending_steps(steps):
                assert hold_step(a, s, v)
                raise Boom
        assert not steps
        assert a.tobytes() == want.tobytes()
        assert tensor._modes.pending is None

    def test_conv_reads_its_weight_with_the_pending_step(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        a, s, v = self.step(rng)
        params = ConvParams(Tensor(a, requires_grad=True), None, (1, 1))
        with no_grad():
            steps = {}
            with pending_steps(steps):
                hold_step(a, s, v)
                pending = conv2d(x, params).data
                steps.clear()  # dropped, not applied
            apply_steps({id(a): (a, s, v)})
            applied = conv2d(x, params).data
        assert pending.tobytes() == applied.tobytes()


class Boom(Exception):
    pass


class TestTapeModes:
    """``no_grad``, ``leaf_grads_to`` and ``pending_steps`` each set their
    own field of the tape's modes and restore only that field, whether the
    block ends or raises, nested in either order."""

    MODES = ("no_grad", "leaf_grads_to", "pending_steps")

    def state(self):
        m = tensor._modes
        return dict(zip(self.MODES, (m.grad, m.sink, m.pending)))

    def block(self, mode):
        if mode == "no_grad":
            return no_grad()
        if mode == "leaf_grads_to":
            return leaf_grads_to(lambda leaf, grad: None)
        return pending_steps({})

    def changed(self, before):
        after = self.state()
        return {m for m in self.MODES if after[m] is not before[m]}

    @pytest.mark.parametrize("raises", [False, True])
    @pytest.mark.parametrize("outer, inner",
                             list(itertools.permutations(MODES, 2)))
    def test_nested_blocks_restore_only_their_own_mode(self, outer, inner,
                                                       raises):
        def ending():
            return pytest.raises(Boom) if raises else contextlib.nullcontext()

        base = self.state()
        with ending():
            with self.block(outer):
                assert self.changed(base) == {outer}
                mid = self.state()
                with ending():
                    with self.block(inner):
                        assert self.changed(mid) == {inner}
                        if raises:
                            raise Boom
                assert self.changed(mid) == set()
                if raises:
                    raise Boom
        assert self.changed(base) == set()

    def test_modes_are_set_as_the_ops_read_them(self, rng):
        x = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
        sent = []
        with no_grad():
            assert not relu(x).requires_grad
        with leaf_grads_to(lambda leaf, grad: sent.append(leaf)):
            backward(sum_all(relu(x)))
        assert sent == [x] and x.grad is None


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
    monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: route)


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
        got = ck.conv_backward(nhwc(x), w, nhwc(g), pad, stride)
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
                                     1, need_input_grad=False)
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
                (ck.conv_forward(x, w, pad, 1),)
                + ck.conv_backward(x, w, g, pad, 1))
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
