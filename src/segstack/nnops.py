"""Network operators: convolution, pooling/unpooling, batch norm,
softmax and the pixel-wise cross-entropy loss.

These wrap the raw kernels from ``convkernels`` with tape recording and
carry the parameter containers (``ConvParams``, ``BNState``) and the
pooling argmax record (``PoolMask``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import convkernels as ck
from .errors import ShapeError, SpecError, TrainingError
from .tensor import Tensor, _record

#: Label value excluded from losses and metrics.
IGNORE_LABEL = 255


# ---------------------------------------------------------------------------
# Parameter containers


def same_padding(ksize: int) -> int:
    """Per-side zero padding that preserves spatial extent (odd kernels)."""
    if ksize % 2 == 0:
        raise SpecError(f"'same' padding requires an odd kernel size, got {ksize}")
    return (ksize - 1) // 2


@dataclass
class ConvParams:
    """Weights of one convolution: weight (oc,ic,kh,kw), optional bias (oc,)."""

    weight: Tensor
    bias: Optional[Tensor]
    padding: tuple[int, int]
    stride: int = 1

    def __post_init__(self):
        if self.weight.ndim != 4:
            raise SpecError(f"conv weight must be 4-D, got shape {self.weight.shape}")
        oc = self.weight.shape[0]
        if self.bias is not None and self.bias.shape != (oc,):
            raise SpecError(
                f"conv bias shape {self.bias.shape} does not match {oc} output channels")
        if self.stride < 1:
            raise SpecError(f"conv stride must be positive, got {self.stride}")
        if min(self.padding) < 0:
            raise SpecError(f"conv padding must be non-negative, got {self.padding}")

    @classmethod
    def zeros(cls, in_ch: int, out_ch: int, ksize: int, bias: bool = True,
              dtype=np.float32, stride: int = 1,
              padding: str | tuple[int, int] = "same") -> "ConvParams":
        if padding == "same":
            p = same_padding(ksize)
            padding = (p, p)
        w = Tensor(np.zeros((out_ch, in_ch, ksize, ksize), dtype=dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True) if bias else None
        return cls(w, b, padding, stride)

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def ksize(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]

    def tensors(self) -> list[tuple[str, Tensor]]:
        out = [("weight", self.weight)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out


def he_fill(params: ConvParams, rng: np.random.Generator) -> None:
    """He-normal weights (std = sqrt(2/fan_in)), zero bias, in place."""
    oc, ic, kh, kw = params.weight.shape
    std = np.sqrt(2.0 / (ic * kh * kw))
    vals = rng.normal(0.0, std, size=(oc, ic, kh, kw))
    params.weight.data[...] = vals.astype(params.weight.dtype)
    if params.bias is not None:
        params.bias.data[...] = 0


@dataclass
class PoolMask:
    """Per-window argmax record of a 2x2 pooling pass.

    ``indices[n,c,i,j]`` is the flat row-major offset (0..3) of the max
    within the window that produced pooled cell (i, j).
    """

    shape: tuple[int, int, int, int]
    indices: np.ndarray

    def __post_init__(self):
        if tuple(self.indices.shape) != tuple(self.shape):
            raise ShapeError(
                f"PoolMask indices shape {self.indices.shape} != declared {self.shape}")


@dataclass
class BNState:
    """Batch-norm parameters and running statistics for one channel axis.

    ``initialized`` is a 0-d float64 array, 1 once the running statistics
    hold values; ``batchnorm`` sets it in place, so it checkpoints and
    restores like the statistics themselves."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    initialized: np.ndarray = field(default_factory=lambda: np.zeros(()))

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1, eps: float = 1e-5,
               dtype=np.float32) -> "BNState":
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=np.float64),
            running_var=np.ones(channels, dtype=np.float64),
            momentum=momentum,
            eps=eps,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("bn.gamma", self.gamma), ("bn.beta", self.beta)]


# ---------------------------------------------------------------------------
# Operators


def conv2d(x: Tensor, params: ConvParams, route: str | None = None) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding; ``route``
    overrides the kernel route ``ck.select_route`` picks."""
    w, b = params.weight, params.bias
    oh, ow = ck.check_conv_shapes(x.data, w.data, params.padding, params.stride)
    if route is None:
        route = ck.select_route(x.shape[0] * oh * ow, x.shape[1])
    out_data = ck.conv2d_forward(
        x.data, w.data, None if b is None else b.data,
        params.padding, params.stride, route=route)
    out = Tensor(out_data)
    parents = (x, w) if b is None else (x, w, b)

    def fn(g):
        gx, gw, gb = ck.conv2d_backward(
            x.data, w.data, g, params.padding, params.stride, route,
            need_input_grad=x.requires_grad)
        return (gx, gw) if b is None else (gx, gw, gb)

    return _record(out, parents, fn, "conv2d")


def maxpool2(x: Tensor) -> tuple[Tensor, PoolMask]:
    """2x2 max pooling with stride 2; ties go to the first window slot."""
    out_data, idx = ck.maxpool2_forward(x.data)
    mask = PoolMask(out_data.shape, idx)
    out = Tensor(out_data)
    fn = lambda g: (ck.maxpool2_backward(g, idx),)
    return _record(out, (x,), fn, "maxpool2"), mask


def unpool2(x: Tensor, mask: PoolMask) -> Tensor:
    """Scatter pooled activations back to the mask's argmax positions."""
    out = Tensor(ck.unpool2_forward(x.data, mask.indices))
    fn = lambda g: (ck.unpool2_backward(g, mask.indices),)
    return _record(out, (x,), fn, "unpool2")


def batchnorm(x: Tensor, state: BNState, mode: str = "train") -> Tensor:
    """Channel-wise batch normalization with affine parameters.

    Train mode normalizes by batch statistics and folds them into the
    running averages; eval mode normalizes by the running statistics and
    requires them to be initialized (a train step or a checkpoint load).
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm: input must be 4-D, got shape {x.shape}")
    if x.shape[1] != state.channels:
        raise ShapeError(
            f"batchnorm: channel axis has {x.shape[1]} channels, state expects "
            f"{state.channels}")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")

    gamma, beta = state.gamma, state.beta
    dt = x.dtype

    if mode == "train":
        mu64 = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var64 = (x.data.astype(np.float64) ** 2).mean(axis=(0, 2, 3)) - mu64 ** 2
        var64 = np.maximum(var64, 0.0)
        m = state.momentum
        state.running_mean *= (1.0 - m)
        state.running_mean += m * mu64
        state.running_var *= (1.0 - m)
        state.running_var += m * var64
        state.initialized[...] = 1.0
        mu = mu64.astype(dt)
        inv_std = (1.0 / np.sqrt(var64 + state.eps)).astype(dt)
    else:
        if not state.initialized:
            raise TrainingError(
                "batchnorm: uninitialized running statistics; run a train step "
                "or load them from a checkpoint before eval mode")
        mu = state.running_mean.astype(dt)
        inv_std = (1.0 / np.sqrt(state.running_var + state.eps)).astype(dt)

    xhat = (x.data - mu.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
    out = Tensor(gamma.data.reshape(1, -1, 1, 1) * xhat
                 + beta.data.reshape(1, -1, 1, 1))

    if mode == "train":
        def fn(g):
            gam = gamma.data.reshape(1, -1, 1, 1)
            inv = inv_std.reshape(1, -1, 1, 1)
            cnt = g.shape[0] * g.shape[2] * g.shape[3]
            dgamma = (g * xhat).sum(axis=(0, 2, 3))
            dbeta = g.sum(axis=(0, 2, 3))
            dxhat = g * gam
            s1 = dxhat.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
            s2 = (dxhat * xhat).sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
            dx = (inv / cnt) * (cnt * dxhat - s1 - xhat * s2)
            return dx.astype(g.dtype, copy=False), dgamma, dbeta
    else:
        def fn(g):
            gam = gamma.data.reshape(1, -1, 1, 1)
            inv = inv_std.reshape(1, -1, 1, 1)
            dgamma = (g * xhat).sum(axis=(0, 2, 3))
            dbeta = g.sum(axis=(0, 2, 3))
            return g * gam * inv, dgamma, dbeta

    return _record(out, (x, gamma, beta), fn, "batchnorm")


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel (class) axis, max-subtracted."""
    if x.ndim != 4:
        raise ShapeError(f"softmax_channels: input must be 4-D, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def fn(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), fn, "softmax")


def _validate_labels(labels: np.ndarray, k: int, shape) -> np.ndarray:
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise ShapeError(f"labels must be integer-typed, got {lab.dtype}")
    if lab.shape != shape:
        raise ShapeError(
            f"labels shape {lab.shape} does not match logits spatial shape {shape}")
    bad = (lab >= k) & (lab != IGNORE_LABEL)
    if bad.any():
        n, y, x = np.argwhere(bad)[0]
        raise ShapeError(
            f"invalid label {int(lab[n, y, x])} >= {k} classes at pixel "
            f"(batch={n}, y={y}, x={x})")
    return lab.astype(np.int64, copy=False)


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over labeled pixels of -log softmax(true class).

    ``labels`` holds class ids in [0, k) with ``IGNORE_LABEL`` marking
    pixels excluded from both the sum and the normalizer.  The per-pixel
    terms are accumulated in float64 regardless of the logits dtype.
    """
    if logits.ndim != 4:
        raise ShapeError(f"cross_entropy_loss: logits must be 4-D, got {logits.shape}")
    n, k, h, w = logits.shape
    lab = _validate_labels(labels, k, (n, h, w))
    valid = lab != IGNORE_LABEL
    count = int(valid.sum())
    if count == 0:
        raise TrainingError("cross_entropy_loss: every pixel carries the "
                            "ignore sentinel, nothing to normalize over")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    lse = (zmax + np.log(sez))[:, 0]                      # (n,h,w)
    safe_lab = np.where(valid, lab, 0)
    picked = np.take_along_axis(z, safe_lab[:, None], axis=1)[:, 0]
    per_pixel = np.where(valid, lse - picked, 0.0)
    total = per_pixel.sum(dtype=np.float64) / count
    out = Tensor(np.asarray(total, dtype=z.dtype))

    def fn(g):
        p = ez / sez
        onehot_sub = p.copy()
        np.put_along_axis(
            onehot_sub, safe_lab[:, None],
            np.take_along_axis(onehot_sub, safe_lab[:, None], axis=1) - 1.0, axis=1)
        gx = onehot_sub * (valid[:, None] / count)
        return (gx.astype(z.dtype, copy=False) * g.reshape(-1)[0],)

    return _record(out, (logits,), fn, "cross_entropy")
