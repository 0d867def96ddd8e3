"""Network operators: convolution, pooling/unpooling, batch norm,
softmax and the pixel-wise cross-entropy loss.

These wrap the raw kernels from ``convkernels`` with tape recording and
carry the parameter containers (``ConvParams``, ``BNState``).

The network runs on channels-last (n, h, w, c) activations through
``conv_norm``, ``pool`` and ``unpool``. A unit (conv -> batch norm ->
ReLU) ends at its normalisation: ``conv_norm`` returns a *pending*
tensor, whose data is the normalised conv output x̂ and which stands for
y = max(gamma * x̂ + beta, 0). Whatever reads it (the next conv,
``pool``, ``unpool``, the head, or ``to_nchw``) computes y as a
transient, and a conv computes it again in backward, so the tape keeps
only x̂ of a unit's output. Its gradient is that of y, as for any
tensor; its own backward recomputes the ReLU mask and runs batch norm's.
A conv reads its weight with any pending SGD step (``tensor.value``).
A pooling mask is a uint8 array of each window's argmax slot (0..3).
``to_nhwc`` and ``to_nchw`` convert between that layout and the public
(n, c, h, w) one; the public ops ``conv2d``, ``maxpool2``, ``unpool2``
and ``batchnorm`` run the same channels-last code between the two.
Softmax and the loss work on (n, c, h, w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import convkernels as ck
from .errors import ConfigError, ShapeError, SpecError, TrainingError
from .tensor import Tensor, _record, recording, value

#: Label value excluded from losses and metrics.
IGNORE_LABEL = 255
#: Batch-norm running-statistics momentum and variance epsilon.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


# ---------------------------------------------------------------------------
# Parameter containers


def same_padding(ksize: int) -> int:
    """Per-side zero padding that preserves spatial extent (odd kernels)."""
    if ksize < 1 or ksize % 2 == 0:
        raise SpecError(f"'same' padding requires a positive odd kernel size, "
                        f"got {ksize}")
    return (ksize - 1) // 2


@dataclass
class ConvParams:
    """Weights of one convolution: weight (oc,ic,kh,kw), optional bias (oc,).

    ``zeros`` lays the weight out (oc,kh,kw,ic) in memory, the order the
    kernels read, so ``weight.data`` is a transposed view: write it
    through indexing or ``[...]``, as ``reshape(-1)`` copies."""

    weight: Tensor
    bias: "Tensor | None"
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
        w = Tensor(np.zeros((out_ch, ksize, ksize, in_ch), dtype=dtype)
                   .transpose(0, 3, 1, 2), requires_grad=True)
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


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``, which must be >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def he_fill(params: ConvParams, rng: np.random.Generator) -> None:
    """He-normal weights (std = sqrt(2/fan_in)), zero bias, in place."""
    oc, ic, kh, kw = params.weight.shape
    std = np.sqrt(2.0 / (ic * kh * kw))
    vals = rng.normal(0.0, std, size=(oc, ic, kh, kw))
    params.weight.data[...] = vals.astype(params.weight.dtype)
    if params.bias is not None:
        params.bias.data[...] = 0


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

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("bn.gamma", self.gamma), ("bn.beta", self.beta)]


# ---------------------------------------------------------------------------
# Operators


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding of (n,c,h,w)
    ``x``: ``conv_norm`` without batch norm between two permutes."""
    return to_nchw(conv_norm(to_nhwc(x), params, None, "train"))


class _Pending(Tensor):
    """A unit output that stands for y = max(gamma * data + beta, 0) of
    ``bn``: the value its readers see and its gradient is taken against."""

    __slots__ = ("bn",)

    def __init__(self, data: np.ndarray, bn: BNState):
        super().__init__(data)
        self.bn = bn


def _activation(xhat: np.ndarray, bn: BNState) -> np.ndarray:
    """max(gamma * xhat + beta, 0), fresh."""
    y = xhat * bn.gamma.data
    y += bn.beta.data
    return np.maximum(y, 0, out=y)


def _value(h: Tensor) -> np.ndarray:
    """``h`` as its readers see it: its data, or a pending tensor's y."""
    return _activation(h.data, h.bn) if isinstance(h, _Pending) else h.data


def to_nhwc(x: Tensor) -> Tensor:
    """(n,c,h,w) ``x`` laid out channels-last: one tape op."""
    if x.ndim != 4:
        raise ShapeError(f"input must be 4-D, got shape {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)))
    return _record(out, (x,), lambda g: (np.ascontiguousarray(
        g.transpose(0, 3, 1, 2)),), "permute")


def to_nchw(h: Tensor) -> Tensor:
    """Channels-last ``h`` as its readers see it (a pending unit output's
    y), laid out (n,c,h,w): one tape op."""
    out = Tensor(np.ascontiguousarray(_value(h).transpose(0, 3, 1, 2)))
    return _record(out, (h,), lambda g: (np.ascontiguousarray(
        g.transpose(0, 2, 3, 1)),), "permute")


def conv_norm(h: Tensor, params: ConvParams, bn: "BNState | None",
              mode: str) -> Tensor:
    """Channels-last conv plus bias of ``h``, read as readers do; the
    kernels check the shapes and pick each GEMM's route. With ``bn`` it is
    a unit: its output is normalised in place and returned pending. That
    takes two tape nodes over one buffer: batch norm's backward runs in
    the pending node, so the walk frees the gradient of y before the
    conv's backward runs. The conv bias cancels against the batch mean in
    train mode, so it enters only the running mean. Eval mode without a
    tape finishes the unit in place, as one per-channel scale and shift."""
    w, b = params.weight, params.bias
    # a pending input's y is transient: conv_forward drops it once padded
    rows = ck.conv_forward(_value(h), value(w.data), params.padding,
                           params.stride)
    n, oh, ow, oc = rows.shape
    rows = rows.reshape(-1, oc)
    parents = (h, w) + (() if b is None else (b,))
    bias = None if b is None else b.data
    if bn is None:
        if bias is not None:
            rows += bias.astype(rows.dtype, copy=False)
    else:
        _check_bn(bn, oc, mode)
        if mode == "eval" and not recording(parents + (bn.gamma, bn.beta)):
            scale, shift = _eval_affine(bn, bias, rows.dtype)
            rows *= scale
            rows += shift
            np.maximum(rows, 0, out=rows)
            return Tensor(rows.reshape(n, oh, ow, oc))
        inv = _normalize(rows, bn, mode, bias)

    def fn(g):
        gx, gw, gb = ck.conv_backward(
            _value(h), w.data, g, params.padding, params.stride,
            need_input_grad=h.requires_grad)
        return (gx, gw) + (() if b is None else (gb,))

    out = _record(Tensor(rows.reshape(n, oh, ow, oc)), parents, fn, "conv2d")
    if bn is None:
        return out

    def norm_fn(g):
        t = _activation(rows, bn)
        gx, dgamma, dbeta = _bn_backward(
            np.multiply(g.reshape(-1, oc), t > 0, out=t), rows,
            bn.gamma.data, inv, mode)
        return gx.reshape(n, oh, ow, oc), dgamma, dbeta

    return _record(_Pending(out.data, bn), (out, bn.gamma, bn.beta), norm_fn,
                   "bn_relu")


def pool(h: Tensor) -> tuple[Tensor, np.ndarray]:
    """2x2 max pooling with stride 2 of channels-last ``h``, and the mask
    of row-major argmax slots, shaped like the output; ties go to slot 0."""
    out_data, mask = ck.maxpool2(_value(h))
    fn = lambda g: (ck.scatter2(g, mask),)
    return _record(Tensor(out_data), (h,), fn, "maxpool2"), mask


def unpool(h: Tensor, mask: np.ndarray) -> Tensor:
    """Scatter channels-last pooled activations back to the mask's argmax
    slots."""
    if h.shape != mask.shape:
        raise ShapeError(f"unpool: input shape {h.shape} does not match "
                         f"mask shape {mask.shape}")
    out = Tensor(ck.scatter2(_value(h), mask))
    fn = lambda g: (ck.gather2(g, mask),)
    return _record(out, (h,), fn, "unpool2")


def maxpool2(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """``pool`` of (n,c,h,w) ``x``; the uint8 mask stays channels-last."""
    out, mask = pool(to_nhwc(x))
    return to_nchw(out), mask


def unpool2(x: Tensor, mask: np.ndarray) -> Tensor:
    """``unpool`` of (n,c,h,w) ``x``."""
    return to_nchw(unpool(to_nhwc(x), mask))


def _check_bn(state: BNState, channels: int, mode: str) -> None:
    if channels != len(state.gamma.data):
        raise ShapeError(
            f"batchnorm: channel axis has {channels} channels, state expects "
            f"{len(state.gamma.data)}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"batchnorm: unknown mode {mode!r}")
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


def batchnorm(x: Tensor, state: BNState, mode: str) -> Tensor:
    """Channel-wise batch normalization with affine parameters of
    (n,c,h,w) ``x``, run on its channels-last rows.

    Train mode normalizes by batch statistics and folds them into the
    running averages; eval mode normalizes by the running statistics and
    requires them to be initialized (a train step or a checkpoint load).
    """
    h = to_nhwc(x)
    c = h.shape[3]
    _check_bn(state, c, mode)
    gamma, beta = state.gamma, state.beta
    xhat = h.data.reshape(-1, c).copy()
    inv = _normalize(xhat, state, mode)
    out = Tensor((xhat * gamma.data + beta.data).reshape(h.shape))

    def fn(g):
        dx, dgamma, dbeta = _bn_backward(g.reshape(-1, c).copy(), xhat,
                                         gamma.data, inv, mode)
        return dx.reshape(h.shape), dgamma, dbeta

    return to_nchw(_record(out, (h, gamma, beta), fn, "batchnorm"))


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel (class) axis, max-subtracted."""
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
