"""The route rule and the blocked im2col route: forward, input gradient
and weight gradient pinned against the naive oracles on shapes either
side of the rule, with ragged and image-spanning blocks, a 7x7 kernel,
and the weight gradient's column halves."""

import numpy as np
import pytest

import oracles
from segstack import convkernels as ck


def nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


@pytest.fixture(params=["whole", "split"])
def parts(request, monkeypatch):
    """Unsplit, or every kernel split in two parts (run inline)."""
    if request.param == "split":
        monkeypatch.setattr(ck._split, "pinned", True)
        monkeypatch.setattr(ck, "_SPLIT_MACS", 0)
        monkeypatch.setattr(ck, "_SPLIT_CALL_MACS", 0)
        monkeypatch.setattr(ck, "usable_cpus", lambda: 1)
    return request.param


def check_against_oracle(x, w, pad, stride=1):
    oh, ow = ck.check_conv_shapes(nhwc(x), w, pad, stride)
    g = np.random.default_rng(1).standard_normal((len(x), len(w), oh, ow))
    got = (ck.conv_forward(nhwc(x), w, pad, stride),
           *ck.conv_backward(nhwc(x), w, nhwc(g), pad, stride))
    gx, gw, gb = oracles.naive_conv2d_backward(x, w, g, pad, stride)
    want = (nhwc(oracles.naive_conv2d(x, w, None, pad, stride)), nhwc(gx),
            gw, gb)
    for name, a, b in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9, err_msg=name)


class TestRule:
    @pytest.mark.parametrize("c,oc,route", [
        (3, 64, "im2col"), (32, 64, "im2col"), (64, 128, "im2col"),
        (5, 64, "im2col"), (3, 63, "direct"), (64, 5, "direct"),
        (16, 16, "direct"), (32, 32, "direct")])
    def test_wide_convs_go_im2col(self, c, oc, route):
        assert ck.select_route(4 * 64 * 64, c, oc) == route

    def test_few_rows_per_channel_go_im2col(self):
        assert ck.select_route(15 * 8, 8, 2) == "im2col"
        assert ck.select_route(16 * 8, 8, 2) == "direct"


def plan(n, oh, ow, k, oc, itemsize=4):
    """``_im2col``'s blocks for n images of oh x ow output pixels."""
    xp = np.empty((n, oh + 3, ow + 2, 1), f"f{itemsize}")
    return ck._im2col(xp, 3, 3, 1, oh, ow, k, oc)[2]


class TestBlockPlan:
    def test_blocks_cover_the_rows_in_order(self):
        for n, oh, ow, k, oc in ((4, 64, 64, 576, 64), (4, 4, 4, 4608, 512),
                                 (3, 5, 7, 11, 3), (1, 1, 1, 1, 1)):
            blocks = plan(n, oh, ow, k, oc)
            assert blocks[0][0] == 0 and blocks[-1][1] == n * oh
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            sizes = [j1 - j0 for j0, j1 in blocks]
            assert max(sizes) == sizes[0]

    def test_slabs_fit_the_cap_unless_thin(self):
        # 64 px, 3 -> 64: 75 image rows of 27 columns fit the cap
        blocks = plan(4, 64, 64, 27, 64)
        assert blocks[0] == (0, 75) and blocks[-1] == (225, 256)
        assert 75 * 64 * 27 * 4 <= ck._SLAB_BYTES < 76 * 64 * 27 * 4
        # 16 px, 256 -> 256: a slab of 3 image rows would be thin beside 256
        # output channels, so blocks hold 2 * 256 pixels
        assert plan(4, 16, 16, 2304, 256) == [(0, 32), (32, 64)]
        # 8 px, 512 -> 512: the whole column matrix is one block
        assert plan(4, 8, 8, 4608, 512) == [(0, 32)]

    def test_windows_are_a_view(self):
        xp = ck._pad(np.zeros((2, 5, 6, 3)), (1, 1), (7, 8))
        win = ck._im2col(xp, 3, 3, 1, 5, 6, 27, 1)[0]
        assert win.shape == (2, 5, 6, 3, 9) and np.shares_memory(win, xp)


class TestBlockedRoute:
    @pytest.mark.parametrize("oc,route", [(64, "im2col"), (63, "direct")])
    def test_either_side_of_the_rule(self, parts, oc, route):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((oc, 4, 3, 3))
        assert ck.select_route(2 * 8 * 8, 4, oc) == route
        check_against_oracle(x, w, (1, 1))

    @pytest.mark.parametrize("ksize,pad,stride",
                             [((3, 3), (1, 1), 1), ((7, 7), (3, 3), 1),
                              ((3, 3), (0, 1), 2)])
    def test_ragged_image_spanning_blocks(self, parts, monkeypatch, ksize,
                                          pad, stride):
        monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: "im2col")
        # blocks of 4 output image rows over 3 images: blocks span images,
        # and the last one is ragged
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5, 6 * stride - 1, 5 * stride))
        w = rng.standard_normal((4, 5) + ksize)
        oh, ow = ck.check_conv_shapes(nhwc(x), w, pad, stride)
        k = ksize[0] * ksize[1] * 5
        monkeypatch.setattr(ck, "_SLAB_BYTES", 4 * ow * k * 8)
        monkeypatch.setattr(ck, "_ROWS_PER_OC", 0)
        sizes = [j1 - j0 for j0, j1 in plan(3, oh, ow, k, 4, itemsize=8)]
        assert oh == 5 and sizes == [4, 4, 4, 3]
        check_against_oracle(x, w, pad, stride)
