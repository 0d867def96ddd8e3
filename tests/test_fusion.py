import numpy as np
import pytest

import oracles
from segstack import Tensor, backward, cross_entropy_loss
from segstack.errors import ShapeError, SpecError
from segstack.fusion import (CorrectorSpec, StreamOutput, forward_corrector,
                             fuse_average, fuse_residual,
                             fusion_stats, init_corrector, make_corrector)
from segstack.nnops import ConvParams, he_fill, softmax_channels


def make_stream(rng, n=1, k=3, c=4, h=8, w=8, dtype=np.float64):
    logits = Tensor(rng.standard_normal((n, k, h, w)).astype(dtype))
    feats = Tensor(rng.standard_normal((n, c, h, w)).astype(dtype))
    return StreamOutput(softmax_channels(logits), feats)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestAverage:
    def test_identical_streams_reproduce_stream(self, rng):
        s = make_stream(rng)
        out = fuse_average([s, s])
        np.testing.assert_array_equal(out.data, s.probs.data)

    def test_disagreeing_one_hot_streams(self):
        a = np.zeros((1, 2, 2, 2))
        b = np.zeros((1, 2, 2, 2))
        a[:, 0], b[:, 1] = 1.0, 1.0
        feats = Tensor(np.zeros((1, 1, 2, 2)))
        out = fuse_average([StreamOutput(Tensor(a), feats),
                            StreamOutput(Tensor(b), feats)])
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 0.5))

    def test_channel_sums_stay_one(self, rng):
        streams = [make_stream(rng) for _ in range(3)]
        out = fuse_average(streams)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_permutation_invariant(self, rng):
        a, b = make_stream(rng), make_stream(rng)
        np.testing.assert_array_equal(fuse_average([a, b]).data,
                                      fuse_average([b, a]).data)

    def test_single_stream_rejected(self, rng):
        with pytest.raises(SpecError, match="at least 2"):
            fuse_average([make_stream(rng)])

    def test_shape_mismatch_rejected(self, rng):
        a = make_stream(rng, h=8)
        b = make_stream(rng, h=16)
        with pytest.raises(ShapeError, match="disagree"):
            fuse_average([a, b])


class TestResidual:
    def corrector(self, c_total=8, k=3, seed=0):
        corr = make_corrector(c_total, k, hidden=16, dtype=np.float64)
        init_corrector(corr, seed)
        return corr

    def test_zero_final_layer_is_identity(self, rng):
        streams = [make_stream(rng), make_stream(rng)]
        corr = self.corrector()
        out = fuse_residual(streams, corr)
        avg = fuse_average(streams)
        np.testing.assert_array_equal(out.data, avg.data)

    def test_nonzero_corrector_adds_its_output(self, rng):
        streams = [make_stream(rng), make_stream(rng)]
        corr = self.corrector()
        he_fill(corr.convs[2], np.random.default_rng(5))
        out = fuse_residual(streams, corr)
        from segstack.tensor import concat_channels
        zcat = concat_channels([s.features for s in streams])
        correction = forward_corrector(corr, zcat)
        expect = fuse_average(streams).data + correction.data
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_output_shape_independent_of_feature_width(self, rng):
        streams = [make_stream(rng, c=4), make_stream(rng, c=9)]
        corr = self.corrector(c_total=13)
        assert fuse_residual(streams, corr).shape == (1, 3, 8, 8)

    def test_channel_mismatch_rejected(self, rng):
        streams = [make_stream(rng), make_stream(rng)]
        corr = self.corrector(c_total=5)
        with pytest.raises(SpecError, match="channels"):
            fuse_residual(streams, corr)

    def test_serialization_names(self):
        corr = self.corrector()
        names = [n for n, _ in corr.tensors()]
        assert names == ["corr.c0.weight", "corr.c0.bias",
                         "corr.c1.weight", "corr.c1.bias",
                         "corr.c2.weight", "corr.c2.bias"]

    def test_broken_chain_rejected(self):
        with pytest.raises(SpecError, match="chain"):
            CorrectorSpec([ConvParams.zeros(4, 8, 3),
                           ConvParams.zeros(9, 8, 3),
                           ConvParams.zeros(8, 3, 3)])

    def test_gradient_reaches_corrector_and_streams(self, rng):
        z1 = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        f1 = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        z2 = Tensor(rng.standard_normal((1, 3, 6, 6)), requires_grad=True)
        f2 = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        corr = self.corrector(c_total=4)
        he_fill(corr.convs[2], np.random.default_rng(7))
        labels = rng.integers(0, 3, size=(1, 6, 6))

        def loss():
            streams = [StreamOutput(softmax_channels(z1), f1),
                       StreamOutput(softmax_channels(z2), f2)]
            return cross_entropy_loss(fuse_residual(streams, corr), labels)

        leaves = [z1, f1, z2, f2, corr.convs[0].weight, corr.convs[2].weight]
        err = oracles.check_gradients(loss, leaves, rng, n_coords=40)
        assert err < 1e-4


class TestStats:
    def test_zero_corrector_stats_are_zero(self, rng):
        streams = [make_stream(rng), make_stream(rng)]
        corr = make_corrector(8, 3, dtype=np.float64)
        init_corrector(corr, 0)
        from segstack.tensor import concat_channels
        zcat = concat_channels([s.features for s in streams])
        correction = forward_corrector(corr, zcat)
        stats = fusion_stats(fuse_average(streams), correction)
        assert stats.m_corr == 0.0
        assert stats.s_corr == 0.0
        assert 0.0 < stats.m_avg <= 1.0

    def test_one_hot_streams_give_m_avg_one(self):
        p = np.zeros((1, 4, 3, 3))
        p[:, 2] = 1.0
        stats = fusion_stats(p, np.zeros((1, 4, 3, 3)))
        assert stats.m_avg == 1.0
        assert stats.s_avg == 0.0

    def test_requires_4d(self):
        with pytest.raises(ShapeError, match="4-D"):
            fusion_stats(np.zeros((3, 3)), np.zeros((1, 2, 3, 3)))


def test_stream_output_validates_alignment(rng):
    probs = softmax_channels(Tensor(rng.standard_normal((1, 3, 8, 8))))
    with pytest.raises(ShapeError, match="disagree"):
        StreamOutput(probs, Tensor(rng.standard_normal((1, 2, 4, 4))))
