"""Network operators: convolution, pooling/unpooling, batch norm,
softmax and the pixel-wise cross-entropy loss.

These wrap the raw kernels from ``convkernels`` with tape recording and
carry the parameter containers (``ConvParams``, ``BNState``) and the
pooling argmax record (``PoolMask``).

The network runs on channels-last (n, h, w, c) activations:
``conv_bn_relu`` is one unit as one tape node, and ``conv2d``,
``maxpool2`` and ``unpool2`` take either layout. ``batchnorm`` and the
loss work on (n, c, h, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import convkernels as ck
from .errors import ShapeError, SpecError, TrainingError
from .tensor import Tensor, _record, permute, recording

#: Label value excluded from losses and metrics.
IGNORE_LABEL = 255
#: Batch-norm running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


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
              dtype=np.float32) -> "ConvParams":
        """Zero stride-1 convolution with same padding."""
        p = same_padding(ksize)
        w = Tensor(np.zeros((out_ch, in_ch, ksize, ksize), dtype=dtype),
                   requires_grad=True)
        b = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True) if bias else None
        return cls(w, b, (p, p))

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

    ``indices`` has the pooled map's shape and layout, (n,c,i,j) or with
    ``channels_last`` (n,i,j,c); each entry is the flat row-major offset
    (0..3) of the max within the window that produced pooled cell (i, j).
    """

    shape: tuple[int, int, int, int]
    indices: np.ndarray
    channels_last: bool = False

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
    initialized: np.ndarray = field(default_factory=lambda: np.zeros(()))

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BNState":
        return cls(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=np.float64),
            running_var=np.ones(channels, dtype=np.float64),
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("bn.gamma", self.gamma), ("bn.beta", self.beta)]


# ---------------------------------------------------------------------------
# Operators


def conv2d(x: Tensor, params: ConvParams,
           channels_last: bool = False) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding of (n,c,h,w)
    ``x``, or of (n,h,w,c) ``x`` with ``channels_last``."""
    if channels_last:
        return _conv_unit(x, params, None, "train")
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D, got {x.ndim}-D")
    return permute(_conv_unit(permute(x, (0, 2, 3, 1)), params, None,
                              "train"), (0, 3, 1, 2))


def conv_bn_relu(h: Tensor, unit, mode: str = "train") -> Tensor:
    """relu(batchnorm(conv2d(h))) of channels-last (n,h,w,c) ``h`` as one
    tape node; ``unit`` carries the ``params`` (ConvParams) and ``bn``
    (BNState) of the conv and its batch norm, and ``mode`` is the batch
    norm's."""
    return _conv_unit(h, unit.params, unit.bn, mode)


def _conv_unit(h: Tensor, params: ConvParams, bn: "BNState | None",
               mode: str) -> Tensor:
    """Channels-last conv plus bias, or with ``bn`` conv -> batch norm ->
    ReLU, on the route ``ck.select_route`` picks.

    Train mode keeps for backward only the conv input, the normalised
    pre-ReLU activation and the ReLU mask; the conv bias cancels against
    the batch mean, so it enters only the running mean. Eval mode applies
    the running statistics as one per-channel scale and shift on the conv
    output, in place, unless the tape needs the normalised activation."""
    x, w, b = h.data, params.weight, params.bias
    oh, ow = ck.check_conv_shapes(x, w.data, params.padding, params.stride)
    route = ck.select_route(len(x) * oh * ow, x.shape[3])
    rows = ck.conv_forward(x, w.data, params.padding, params.stride, route)
    n, oc = len(x), rows.shape[-1]
    rows = rows.reshape(-1, oc)
    parents = (h, w) + (() if b is None else (b,))
    bias = None if b is None else b.data
    if bn is None:
        if bias is not None:
            rows += bias.astype(rows.dtype, copy=False)
    else:
        _check_bn(bn, oc, mode)
        parents += (bn.gamma, bn.beta)
        gamma = bn.gamma.data
        if mode == "eval" and not recording(parents):
            scale, shift = _eval_affine(bn, bias, rows.dtype)
            rows *= scale
            rows += shift
            np.maximum(rows, 0, out=rows)
            return Tensor(rows.reshape(n, oh, ow, oc))
        inv = _normalize(rows, bn, mode, bias)
        xhat, rows = rows, rows * gamma
        rows += bn.beta.data
        mask = rows > 0
        np.maximum(rows, 0, out=rows)
    out = Tensor(rows.reshape(n, oh, ow, oc))

    def fn(g):
        gy = g.reshape(-1, oc)
        if bn is not None:
            gy, dgamma, dbeta = _bn_backward(gy * mask, xhat, gamma, inv,
                                             mode)
        gx, gw, gb = ck.conv_backward(
            x, w.data, gy.reshape(n, oh, ow, oc), params.padding,
            params.stride, route, need_input_grad=h.requires_grad)
        grads = (gx, gw) + (() if b is None else (gb,))
        return grads if bn is None else grads + (dgamma, dbeta)

    return _record(out, parents, fn,
                   "conv2d" if bn is None else "conv_bn_relu")


def maxpool2(x: Tensor, channels_last: bool = False
             ) -> tuple[Tensor, PoolMask]:
    """2x2 max pooling with stride 2 of (n,c,h,w) ``x``, or of (n,h,w,c)
    ``x`` with ``channels_last``; ties go to the first window slot."""
    if channels_last:
        out_data, idx = ck.maxpool2(x.data)
        bwd = ck.scatter2
    else:
        out_data, idx = ck.maxpool2_forward(x.data)
        bwd = ck.maxpool2_backward
    mask = PoolMask(out_data.shape, idx, channels_last)
    out = Tensor(out_data)
    fn = lambda g: (bwd(g, idx),)
    return _record(out, (x,), fn, "maxpool2"), mask


def unpool2(x: Tensor, mask: PoolMask) -> Tensor:
    """Scatter pooled activations back to the mask's argmax positions; ``x``
    has the mask's layout."""
    if mask.channels_last:
        fwd, bwd = ck.scatter2, ck.gather2
    else:
        fwd, bwd = ck.unpool2_forward, ck.unpool2_backward
    out = Tensor(fwd(x.data, mask.indices))
    fn = lambda g: (bwd(g, mask.indices),)
    return _record(out, (x,), fn, "unpool2")


def _check_bn(state: BNState, channels: int, mode: str) -> None:
    if channels != state.channels:
        raise ShapeError(
            f"batchnorm: channel axis has {channels} channels, state expects "
            f"{state.channels}")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")
    if mode == "eval" and not state.initialized:
        raise TrainingError(
            "batchnorm: uninitialized running statistics; run a train step "
            "or load them from a checkpoint before eval mode")


def _inv_std(var) -> np.ndarray:
    return 1.0 / np.sqrt(var + BN_EPS)


def _eval_affine(state: BNState, bias, dtype):
    """Per-channel (scale, shift) taking a conv output that lacks ``bias``
    to the eval-mode batch norm of the conv output plus ``bias``."""
    scale = state.gamma.data * _inv_std(state.running_var)
    mean = state.running_mean if bias is None else state.running_mean - bias
    return scale.astype(dtype), (state.beta.data - mean * scale).astype(dtype)


def _normalize(rows: np.ndarray, state: BNState, mode: str,
               bias=None) -> np.ndarray:
    """Normalizes (pixels, channels) ``rows`` in place by the batch (train)
    or running (eval) statistics of ``rows + bias``; returns the per-channel
    1/sqrt(var + eps). Train mode folds the batch statistics into the
    running ones. The statistics are GEMVs over the rows, the variance
    taken around the mean."""
    dt = rows.dtype
    if mode == "train":
        ones = np.ones(len(rows), dt)
        # where a float32 sum or square overflows, redo it in float64
        with np.errstate(over="ignore"):
            mean = (ones @ rows).astype(np.float64) / len(rows)
            if not np.isfinite(mean).all():
                mean = rows.mean(axis=0, dtype=np.float64)
            rows -= mean.astype(dt)
            var = (ones @ np.square(rows)).astype(np.float64) / len(rows)
        if not np.isfinite(var).all():
            var = np.square(rows, dtype=np.float64).mean(axis=0)
        if bias is not None:
            mean += bias
        m = BN_MOMENTUM
        state.running_mean *= (1.0 - m)
        state.running_mean += m * mean
        state.running_var *= (1.0 - m)
        state.running_var += m * var
        state.initialized[...] = 1.0
    else:
        offset = state.running_mean - (0.0 if bias is None else bias)
        rows -= offset.astype(dt)
        var = state.running_var
    inv = _inv_std(var).astype(dt)
    rows *= inv
    return inv


def _bn_backward(g: np.ndarray, xhat: np.ndarray, gamma: np.ndarray,
                 inv: np.ndarray, mode: str):
    """(grad of the input rows, dgamma, dbeta) of gamma * xhat + beta for
    upstream (pixels, channels) rows ``g``, which it overwrites. Train
    mode is the closed form through the batch statistics."""
    ones = np.ones(len(g), g.dtype)
    dbeta = ones @ g
    tmp = g * xhat
    dgamma = ones @ tmp
    if mode == "train":
        g -= dbeta / len(g)
        g -= np.multiply(xhat, dgamma / len(g), out=tmp)
    g *= gamma * inv
    return g, dgamma, dbeta


def batchnorm(x: Tensor, state: BNState, mode: str = "train") -> Tensor:
    """Channel-wise batch normalization with affine parameters of
    (n,c,h,w) ``x``.

    Train mode normalizes by batch statistics and folds them into the
    running averages; eval mode normalizes by the running statistics and
    requires them to be initialized (a train step or a checkpoint load).
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm: input must be 4-D, got shape {x.shape}")
    _check_bn(state, x.shape[1], mode)
    gamma, beta = state.gamma, state.beta
    n, c, hh, ww = x.shape
    xhat = np.copy(ck.nhwc(x.data), order="C").reshape(-1, c)
    inv = _normalize(xhat, state, mode)
    out = Tensor(ck.nchw((xhat * gamma.data + beta.data)
                          .reshape(n, hh, ww, c)))

    def fn(g):
        rows = np.copy(ck.nhwc(g), order="C").reshape(-1, c)
        dx, dgamma, dbeta = _bn_backward(rows, xhat, gamma.data, inv, mode)
        return ck.nchw(dx.reshape(n, hh, ww, c)), dgamma, dbeta

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
