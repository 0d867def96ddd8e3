import numpy as np
import pytest

import oracles
from segstack import SpecError, Tensor, backward, cross_entropy_loss, mean_n
from segstack.multikernel import (MultiKernelHead, branch_outputs,
                                  extend_with_scale, forward_multikernel,
                                  make_head, multikernel_loss)
from segstack.nnops import ConvParams, conv2d, he_fill


def filled_head(in_ch, k, scales, seed=0):
    head = make_head(in_ch, k, scales=scales, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for b in head.branches:
        he_fill(b, rng)
        b.bias.data[...] = rng.standard_normal(k)
    return head


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def test_single_branch_equals_plain_conv(rng):
    head = filled_head(4, 3, (3,))
    x = Tensor(rng.standard_normal((2, 4, 8, 8)))
    out = forward_multikernel(head, x)
    plain = conv2d(x, head.branches[0])
    np.testing.assert_array_equal(out.data, plain.data)


def test_identity_branches_reproduce_input():
    head = make_head(2, 2, scales=(3, 5, 7), dtype=np.float64)
    for b in head.branches:
        k = b.ksize[0]
        for q in range(2):
            b.weight.data[q, q, k // 2, k // 2] = 1.0
    x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 9, 9)))
    out = forward_multikernel(head, x)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-12)


def test_output_is_mean_of_branches(rng):
    head = filled_head(3, 5, (3, 5, 7), seed=2)
    x = rng.standard_normal((2, 3, 10, 10))
    out = forward_multikernel(head, Tensor(x))
    per_branch = [oracles.naive_conv2d(x, b.weight.data, b.bias.data,
                                       b.padding, 1)
                  for b in head.branches]
    np.testing.assert_allclose(out.data, np.mean(per_branch, axis=0), rtol=1e-6)


def test_branches_preserve_spatial_shape(rng):
    head = filled_head(2, 3, (3, 5, 7), seed=3)
    x = Tensor(rng.standard_normal((1, 2, 11, 7)))
    for z in branch_outputs(head, x):
        assert z.shape == (1, 3, 11, 7)


def test_loss_identity_with_averaged_logits(rng):
    head = filled_head(3, 4, (3, 5, 7), seed=4)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)))
    labels = rng.integers(0, 4, size=(2, 8, 8))
    zs = branch_outputs(head, x)
    loss_a = multikernel_loss(zs, labels)
    zs2 = branch_outputs(head, x)
    loss_b = cross_entropy_loss(mean_n(zs2), labels)
    assert abs(loss_a.item() - loss_b.item()) < 1e-12


def test_identical_branches_equal_single_branch_loss(rng):
    single = filled_head(2, 3, (3,), seed=5)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)))
    labels = rng.integers(0, 3, size=(1, 6, 6))
    z = conv2d(x, single.branches[0])
    loss_one = cross_entropy_loss(z, labels)
    zs = [conv2d(x, single.branches[0]) for _ in range(3)]
    loss_rep = multikernel_loss(zs, labels)
    assert loss_rep.item() == pytest.approx(loss_one.item(), abs=1e-9)


def test_branch_gradient_scales_as_one_over_s(rng):
    """Each branch receives 1/S of the gradient a lone head would get."""
    head = filled_head(2, 3, (3, 5, 7), seed=6)
    x_data = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((1, 3, 6, 6))

    def weighted(t, w):
        out = Tensor(t.data * w, requires_grad=True)
        from segstack.tensor import _record
        _record(out, (t,), lambda g: (g * w,), "mulc")
        return out

    from oracles import sum_all
    backward(sum_all(weighted(forward_multikernel(head, Tensor(x_data)), w)))
    grads_ens = [b.weight.grad.copy() for b in head.branches]

    for b, g_ens in zip(head.branches, grads_ens):
        b.weight.grad = None
        backward(sum_all(weighted(conv2d(Tensor(x_data), b), w)))
        np.testing.assert_allclose(g_ens, b.weight.grad / 3.0, rtol=1e-10)


class TestExtend:
    def test_embedded_replica_keeps_output(self, rng):
        head = filled_head(2, 3, (3, 5), seed=7)
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        before = forward_multikernel(head, x)
        new = extend_with_scale(head, 7, np.random.default_rng(0))
        # embed the 3x3 branch at the center of the new 7x7 kernel
        b3, b7 = head.branches[0], new.branches[-1]
        b7.weight.data[...] = 0
        b7.weight.data[:, :, 2:5, 2:5] = b3.weight.data
        b7.bias.data[...] = b3.bias.data
        # output of new branch equals 3x3 branch; check the ensemble moved
        # toward that branch by exactly the averaging weights
        after = forward_multikernel(new, x)
        z3 = conv2d(x, b3).data
        z5 = conv2d(x, head.branches[1]).data
        np.testing.assert_allclose(after.data, (2 * z3 + z5) / 3, rtol=1e-10)
        np.testing.assert_allclose(before.data, (z3 + z5) / 2, rtol=1e-10)

    def test_zero_branch_scales_by_s_over_s_plus_one(self, rng):
        head = filled_head(3, 2, (3, 5), seed=8)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)))
        before = forward_multikernel(head, x)
        new = extend_with_scale(head, 7, np.random.default_rng(1))
        new.branches[-1].weight.data[...] = 0
        new.branches[-1].bias.data[...] = 0
        after = forward_multikernel(new, x)
        np.testing.assert_allclose(after.data, before.data * (2 / 3), rtol=1e-12)

    def test_existing_tensors_shared_not_copied(self, rng):
        head = filled_head(2, 2, (3, 5), seed=9)
        new = extend_with_scale(head, 7, np.random.default_rng(2))
        assert new.branches[0].weight is head.branches[0].weight
        assert new.branches[1].bias is head.branches[1].bias
        assert new.scales == (3, 5, 7)

    def test_insertion_keeps_ascending_order(self, rng):
        head = filled_head(2, 2, (3, 7), seed=10)
        new = extend_with_scale(head, 5, np.random.default_rng(3))
        assert new.scales == (3, 5, 7)

    def test_new_branch_is_he_initialized(self):
        head = filled_head(8, 2, (3,), seed=11)
        new = extend_with_scale(head, 9, np.random.default_rng(4))
        w = new.branches[-1].weight.data
        assert w.std() == pytest.approx(np.sqrt(2 / (8 * 81)), rel=0.2)
        assert not new.branches[-1].bias.data.any()

    def test_even_size_rejected(self):
        head = filled_head(2, 2, (3,))
        with pytest.raises(SpecError, match="odd"):
            extend_with_scale(head, 4, np.random.default_rng(0))

    def test_duplicate_size_rejected(self):
        head = filled_head(2, 2, (3, 5))
        with pytest.raises(SpecError, match="strictly ascending"):
            extend_with_scale(head, 5, np.random.default_rng(0))


class TestValidation:
    def test_branch_names_default(self):
        assert filled_head(2, 2, (3, 5, 7)).branch_names() == ["s3", "s5", "s7"]

    def test_channel_disagreement_rejected_at_construction(self):
        a = ConvParams.zeros(2, 3, 3, dtype=np.float64)
        b = ConvParams.zeros(4, 3, 5, dtype=np.float64)
        with pytest.raises(SpecError, match="channels"):
            MultiKernelHead([a, b])

    def test_non_same_padding_rejected(self):
        bad = ConvParams(Tensor(np.zeros((3, 2, 5, 5))),
                         Tensor(np.zeros(3)), (1, 1))
        with pytest.raises(SpecError, match="same-padding"):
            MultiKernelHead([bad])

    def test_empty_loss_rejected(self):
        with pytest.raises(SpecError, match="at least one"):
            multikernel_loss([], np.zeros((1, 2, 2), dtype=np.int64))

    def test_make_head_rejects_duplicates(self):
        with pytest.raises(SpecError, match="strictly ascending"):
            make_head(2, 2, scales=(3, 3))
