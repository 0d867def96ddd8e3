"""Multi-kernel prediction head: parallel same-padding convolutions of
distinct sizes whose outputs are averaged with weight exactly 1/S.

Averaging the branch outputs makes the head equivalent to averaging an
ensemble of S single-branch models that share the trunk, so a plain
single-conv head is just the S = 1 case.

By linearity the average of same-padded branches is one same-padded conv
whose kernel is the mean of the branch kernels, each zero-padded to the
largest size, and whose bias is the mean bias.  ``fold_head`` builds
that conv, which the network runs channels-last and ``forward_multikernel``
runs on (n,c,h,w) input; each branch kernel's gradient is the centre crop
of the folded kernel's gradient times 1/S.  ``branch_outputs`` is the
per-branch reference path.
"""

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .nnops import ConvParams, conv2d, cross_entropy_loss, he_fill, same_padding
from .tensor import Tensor, _record, mean_n


@dataclass
class MultiKernelHead:
    """Branches kept in strictly ascending kernel-size order; the
    reduction order is fixed by that ordering so repeated forwards are
    bit-identical."""

    branches: "list[ConvParams]"

    def __post_init__(self):
        if not self.branches:
            raise SpecError("multi-kernel head needs at least one branch")
        first = self.branches[0]
        sizes = []
        for b in self.branches:
            kh, kw = b.ksize
            if kh != kw:
                raise SpecError(f"head branches use square kernels, got {b.ksize}")
            p = same_padding(kh)
            if b.padding != (p, p) or b.stride != 1:
                raise SpecError(
                    f"head branch of size {kh} must use same-padding stride 1, "
                    f"got padding {b.padding} stride {b.stride}")
            if (b.in_channels, b.out_channels) != (first.in_channels,
                                                   first.out_channels):
                raise SpecError(
                    f"head branches disagree on channels: "
                    f"{(b.in_channels, b.out_channels)} vs "
                    f"{(first.in_channels, first.out_channels)}")
            sizes.append(kh)
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise SpecError(f"head branches must be strictly ascending by "
                            f"size, got {sizes}")

    @property
    def scales(self) -> "tuple[int, ...]":
        return tuple(b.ksize[0] for b in self.branches)

    @property
    def in_channels(self) -> int:
        return self.branches[0].in_channels

    @property
    def out_channels(self) -> int:
        return self.branches[0].out_channels

    def branch_names(self) -> "list[str]":
        """Stable serialization names: s3, s5, ..."""
        return [f"s{size}" for size in self.scales]


def make_head(in_channels: int, k: int, scales=(3, 5, 7),
              dtype=np.float32) -> MultiKernelHead:
    """Zero-weight head; call he_fill per branch (or init the whole net)."""
    branches = [ConvParams.zeros(in_channels, k, s, dtype=dtype)
                for s in sorted(scales)]
    return MultiKernelHead(branches)


def branch_outputs(head: MultiKernelHead, x: Tensor) -> "list[Tensor]":
    return [conv2d(x, b) for b in head.branches]


def _centre_pad(kernel: Tensor, size: int) -> Tensor:
    """(oc,ic,k,k) kernel zero-padded to (oc,ic,size,size), centred."""
    o = (size - kernel.shape[2]) // 2
    out = Tensor(np.pad(kernel.data, ((0, 0), (0, 0), (o, o), (o, o))))
    return _record(out, (kernel,), lambda g: (g[:, :, o:size - o, o:size - o]
                                              .copy(),), "centre_pad")


def fold_head(head: MultiKernelHead) -> ConvParams:
    """The head as one conv; a one-branch head is its own fold."""
    if len(head.branches) == 1:
        return head.branches[0]
    size = head.scales[-1]
    weight = mean_n([_centre_pad(b.weight, size) for b in head.branches])
    bias = (None if head.branches[0].bias is None
            else mean_n([b.bias for b in head.branches]))
    return ConvParams(weight, bias, (same_padding(size),) * 2)


def forward_multikernel(head: MultiKernelHead, x: Tensor) -> Tensor:
    """(1/S) sum of branch convolutions of (n,c,h,w) ``x``, run as the
    folded conv."""
    return conv2d(x, fold_head(head))


def multikernel_loss(branch_logits, labels) -> Tensor:
    """Cross entropy of the branch-averaged logits.

    Shares the code path of cross_entropy_loss on the averaged logits,
    so the two are identical to the bit, not just within tolerance.
    """
    outs = list(branch_logits)
    if not outs:
        raise SpecError("multikernel_loss needs at least one branch output")
    return cross_entropy_loss(mean_n(outs), labels)


def extend_with_scale(head: MultiKernelHead, new_kernel_size: int,
                      rng: np.random.Generator) -> MultiKernelHead:
    """New head with one extra He-initialized branch; existing branch
    parameter tensors are shared, not copied, so they stay bit-unchanged
    and any optimizer state attached to them remains valid."""
    proto = head.branches[0]
    new = ConvParams.zeros(head.in_channels, head.out_channels, new_kernel_size,
                           bias=proto.bias is not None,
                           dtype=proto.weight.dtype)
    he_fill(new, rng)
    pos = bisect.bisect_right(head.scales, new_kernel_size)
    branches = list(head.branches)
    branches.insert(pos, new)
    return MultiKernelHead(branches)
