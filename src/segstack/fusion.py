"""Dual-stream prediction fusion.

Two (or more) streams each produce a per-pixel class probability map P_r
and the feature map Z_r that fed their prediction head. Naive fusion
averages the P_r. Residual fusion adds a learned correction computed by
a small 3-conv network over the concatenated Z_r; with the corrector's
final layer at zero the residual path reproduces plain averaging
bit-for-bit, so training starts from the averaging baseline and learns
small corrections on top.

The fused residual map is not renormalized: inference takes argmax on it
directly, and training wraps it in softmax + cross entropy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, SpecError
from .nnops import (ConvParams, conv_norm, he_fill, seeded_rng, to_nchw,
                    to_nhwc)
from .tensor import Tensor, add, concat_channels, mean_n, relu


@dataclass
class StreamOutput:
    """probs: post-softmax (n,k,h,w); features: the tensor that fed the
    stream's head (n,c,h,w), spatially aligned with probs."""

    probs: Tensor
    features: Tensor

    def __post_init__(self):
        if (self.probs.shape[0],) + self.probs.shape[2:] != \
                (self.features.shape[0],) + self.features.shape[2:]:
            raise ShapeError(
                f"probs {self.probs.shape} and features {self.features.shape} "
                "disagree on batch or spatial extents")


@dataclass
class CorrectorSpec:
    """Three same-padding 3x3 convs, ReLU between, k channels out."""

    convs: "list[ConvParams]"

    def __post_init__(self):
        for a, b in zip(self.convs, self.convs[1:]):
            if a.out_channels != b.in_channels:
                raise SpecError(
                    f"corrector conv chain broken: {a.out_channels} -> "
                    f"{b.in_channels}")

    @property
    def in_channels(self) -> int:
        return self.convs[0].in_channels

    @property
    def out_channels(self) -> int:
        return self.convs[-1].out_channels

    def tensors(self) -> "list[tuple[str, Tensor]]":
        out = []
        for i, c in enumerate(self.convs):
            for suffix, t in c.tensors():
                out.append((f"corr.c{i}.{suffix}", t))
        return out


def make_corrector(in_channels: int, k: int, hidden: int = 64,
                   dtype=np.float32) -> CorrectorSpec:
    """All-zero parameters; init_corrector fills the hidden layers and
    leaves the final layer at zero (the residual identity)."""
    if hidden < 1:
        raise ConfigError(f"corrector needs at least 1 hidden channel, got "
                          f"{hidden}")
    return CorrectorSpec([
        ConvParams.zeros(in_channels, hidden, 3, dtype=dtype),
        ConvParams.zeros(hidden, hidden, 3, dtype=dtype),
        ConvParams.zeros(hidden, k, 3, dtype=dtype),
    ])


def init_corrector(corr: CorrectorSpec, seed: int) -> None:
    rng = seeded_rng(seed)
    he_fill(corr.convs[0], rng)
    he_fill(corr.convs[1], rng)
    corr.convs[2].weight.data[...] = 0
    if corr.convs[2].bias is not None:
        corr.convs[2].bias.data[...] = 0


def forward_corrector(corr: CorrectorSpec, z: Tensor) -> Tensor:
    """The corrector on (n,c,h,w) ``z``, run channels-last."""
    h = to_nhwc(z)
    for conv in corr.convs[:-1]:
        h = relu(conv_norm(h, conv, None, "train"))
    return to_nchw(conv_norm(h, corr.convs[-1], None, "train"))


def _check_streams(streams):
    if len(streams) < 2:
        raise SpecError(f"fusion needs at least 2 streams, got {len(streams)}")
    shape = streams[0].probs.shape
    for s in streams[1:]:
        if s.probs.shape != shape:
            raise ShapeError(f"stream probability shapes disagree: "
                             f"{s.probs.shape} vs {shape}")


def fuse_average(streams: "list[StreamOutput]") -> Tensor:
    """Arithmetic mean of per-stream probability maps. Convexity keeps
    per-pixel channel sums at 1."""
    _check_streams(streams)
    return mean_n([s.probs for s in streams])


def correction(streams: "list[StreamOutput]", corr: CorrectorSpec) -> Tensor:
    """The corrector's output over the streams' concatenated features."""
    zcat = concat_channels([s.features for s in streams])
    if zcat.shape[1] != corr.in_channels:
        raise SpecError(
            f"corrector expects {corr.in_channels} input channels, streams "
            f"concatenate to {zcat.shape[1]}")
    return forward_corrector(corr, zcat)


def fuse_residual(streams: "list[StreamOutput]", corr: CorrectorSpec) -> Tensor:
    """Averaged probabilities plus the learned correction (unnormalized)."""
    return add(fuse_average(streams), correction(streams, corr))


@dataclass
class FusionStats:
    m_avg: float
    s_avg: float
    m_corr: float
    s_corr: float


def fusion_stats(averaged, correction) -> FusionStats:
    """Mean/std over pixels of each map's value at its per-pixel argmax
    channel. For a confident ensemble the averaged map sits near 1.0;
    a well-behaved corrector stays near 0."""
    avg = averaged.data if isinstance(averaged, Tensor) else np.asarray(averaged)
    cor = correction.data if isinstance(correction, Tensor) else np.asarray(correction)
    if avg.ndim != 4 or cor.ndim != 4:
        raise ShapeError("fusion_stats expects 4-D (n,k,h,w) maps")
    a = avg.max(axis=1).astype(np.float64)
    c = cor.max(axis=1).astype(np.float64)
    return FusionStats(float(a.mean()), float(a.std()),
                       float(c.mean()), float(c.std()))
