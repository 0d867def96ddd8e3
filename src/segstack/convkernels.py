"""Raw ndarray kernels for 2-D convolution and 2x2 max pooling.

Every convolution, forward or backward, is one channels-last correlation
(``_correlate``) on one of two routes:

* ``direct``: one GEMM per kernel offset.  With the padded input's rows
  flattened, the window of offset (i, j) is the run of rows shifted by
  ``i*width + j``, read in place.  Larger strides subsample the stride-1 map.
* ``im2col``: one GEMM over a column matrix of all receptive fields.

The input gradient is the forward correlation of the zero-dilated upstream
gradient, re-padded by k-1-p, with the flipped, channel-swapped kernel; the
weight gradient reads the forward's windows on the forward's route.
``select_route`` goes by the GEMM's shape.  Both routes agree up to float
reduction order; the tests pin each against naive nested-loop oracles.

Everything here is pure ndarray-in/ndarray-out; autodiff wiring lives
in ``nnops``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

# GEMMs with fewer rows (n*oh*ow) than this per input channel go im2col. One
# BLAS thread, batch 4, forward: 3x3 512 ch at 8 px, im2col 23 ms vs direct
# 63 ms; 128 ch at 32 px (32 rows/ch) 19 vs 24, but backward 50 vs 43; 7x7
# 16->5 at 64 px 31 vs 12.
_IM2COL_ROWS_PER_CHANNEL = 16
# The direct route walks rows in chunks of about this many bytes of input and
# output rows, so a chunk stays in cache across all kernel offsets.
_CHUNK_BYTES = 1 << 18


def check_conv_shapes(x: np.ndarray, w: np.ndarray, pad: tuple[int, int],
                      stride: int) -> tuple[int, int]:
    """Validates a conv2d call and returns its output extents (oh, ow)."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D (n,c,h,w), got {x.ndim}-D")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4-D (oc,ic,kh,kw), got {w.ndim}-D")
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    if c != ic:
        raise ShapeError(
            f"conv2d: channel axis mismatch, input has {c} channels but weight expects {ic}")
    ph, pw = pad
    if h + 2 * ph < kh:
        raise ShapeError(
            f"conv2d: height axis too small, {h}+2*{ph} padded < kernel {kh}")
    if wd + 2 * pw < kw:
        raise ShapeError(
            f"conv2d: width axis too small, {wd}+2*{pw} padded < kernel {kw}")
    return (h + 2 * ph - kh) // stride + 1, (wd + 2 * pw - kw) // stride + 1


def select_route(rows: int, c: int) -> str:
    """Route of a GEMM with ``rows`` output pixels and ``c`` input channels."""
    return "im2col" if rows < _IM2COL_ROWS_PER_CHANNEL * c else "direct"


def _channels_last(x: np.ndarray, offset: tuple[int, int],
                   extent: tuple[int, int], dilation: int = 1) -> np.ndarray:
    """Zero (n, eh + 1, ew, c) map with x[:, :, i, j] at offset + dilation *
    (i, j); what lands outside (eh, ew) is dropped.  The spare bottom row
    keeps the direct route's shifted row runs inside the buffer."""
    out = np.zeros((x.shape[0], extent[0] + 1, extent[1], x.shape[1]), x.dtype)
    src, dst = [], []
    for o, e, length in zip(offset, extent, x.shape[2:]):
        lo = max(0, -(o // dilation))
        hi = max(lo, min(length, (e - 1 - o) // dilation + 1))
        src.append(slice(lo, hi))
        dst.append(slice(o + dilation * lo, o + dilation * hi, dilation))
    out[:, dst[0], dst[1]] = x[:, :, src[0], src[1]].transpose(0, 2, 3, 1)
    return out


def _row_chunks(span: int, c: int, oc: int, itemsize: int):
    step = max(256, _CHUNK_BYTES // ((c + oc) * itemsize))
    return [(r0, min(span, r0 + step)) for r0 in range(0, span, step)]


def _columns(xp: np.ndarray, kh: int, kw: int, stride: int,
             oh: int, ow: int) -> np.ndarray:
    """(n*oh*ow, kh*kw*c) receptive fields of a ``_channels_last`` map."""
    win = sliding_window_view(xp[:, :-1], (kh, kw), axis=(1, 2))
    win = win[:, :stride * (oh - 1) + 1:stride, :stride * (ow - 1) + 1:stride]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(xp.shape[0] * oh * ow, -1)


def _correlate(xp: np.ndarray, w: np.ndarray, stride: int, oh: int, ow: int,
               route: str) -> np.ndarray:
    """``_channels_last`` map * ``w`` (oc,c,kh,kw) -> (n,oc,oh,ow)."""
    n, _, width, c = xp.shape
    oc, _, kh, kw = w.shape
    if route == "im2col":
        out = (_columns(xp, kh, kw, stride, oh, ow)
               @ w.transpose(0, 2, 3, 1).reshape(oc, -1).T)
        return np.ascontiguousarray(out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))
    if route != "direct":
        raise ValueError(f"unknown conv route {route!r}")
    # output row r reads input rows r + i*width + j; rows that wrap past a
    # row's or an image's end are cut away at the end
    flat = xp.reshape(-1, c)
    span = len(flat) - (kh - 1) * width - (kw - 1)
    taps = [(ki * width + kj, np.ascontiguousarray(w[:, :, ki, kj].T))
            for ki in range(kh) for kj in range(kw)]
    chunks = _row_chunks(span, c, oc, xp.itemsize)
    acc = np.zeros((len(flat), oc), dtype=xp.dtype)
    part = np.empty((chunks[0][1], oc), dtype=xp.dtype)
    for r0, r1 in chunks:
        out, p = acc[r0:r1], part[:r1 - r0]
        for shift, wk in taps:
            out += np.matmul(flat[r0 + shift:r1 + shift], wk, out=p)
    acc = acc.reshape(xp.shape[:3] + (oc,)).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(
        acc[:, :, :stride * (oh - 1) + 1:stride, :stride * (ow - 1) + 1:stride])


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   pad: tuple[int, int], stride: int, route: str) -> np.ndarray:
    """Cross-correlation of ``x`` (n,c,h,w) with ``w`` (oc,c,kh,kw)."""
    oh, ow = check_conv_shapes(x, w, pad, stride)
    xp = _channels_last(x, pad, (x.shape[2] + 2 * pad[0], x.shape[3] + 2 * pad[1]))
    out = _correlate(xp, w.astype(x.dtype, copy=False), stride, oh, ow, route)
    if b is not None:
        out += b.reshape(1, -1, 1, 1).astype(x.dtype, copy=False)
    return out


def _weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                 stride: int, route: str) -> np.ndarray:
    """(oc,kh,kw,c) weight gradient, read from the forward's windows of xp."""
    _, hp1, width, c = xp.shape
    oc, oh, ow = g.shape[1:]
    if route == "im2col":
        cols = _columns(xp, kh, kw, stride, oh, ow)
        return (g.transpose(0, 2, 3, 1).reshape(-1, oc).T @ cols).reshape(
            oc, kh, kw, c)
    # g on the stride-1 output grid, laid out like xp, shifts like the forward
    gf = _channels_last(g, (0, 0), (hp1 - 1, width), stride).reshape(-1, oc)
    xf = xp.reshape(-1, c)
    shifts = [ki * width + kj for ki in range(kh) for kj in range(kw)]
    gw = np.zeros((len(shifts), oc, c), dtype=xp.dtype)
    for r0, r1 in _row_chunks(len(xf) - shifts[-1], c, oc, xp.itemsize):
        gt = gf[r0:r1].T
        for t, shift in enumerate(shifts):
            gw[t] += gt @ xf[r0 + shift:r1 + shift]
    return gw.reshape(kh, kw, oc, c).transpose(2, 0, 1, 3)


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                    pad: tuple[int, int], stride: int, route: str,
                    need_input_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of the conv2d output w.r.t. input, weight and bias.

    ``g`` is the upstream gradient with the output's shape (n,oc,oh,ow)
    and ``route`` the route the forward took.  Returns (grad_x, grad_w,
    grad_b); grad_x is None when not requested.
    """
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    ph, pw = pad
    grad_w = np.ascontiguousarray(_weight_grad(
        _channels_last(x, pad, (h + 2 * ph, wd + 2 * pw)), g, kh, kw, stride,
        route).transpose(0, 3, 1, 2), dtype=w.dtype)
    grad_x = None
    if need_input_grad:
        gp = _channels_last(g, (kh - 1 - ph, kw - 1 - pw),
                            (h + kh - 1, wd + kw - 1), stride)
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(g.dtype, copy=False)
        grad_x = _correlate(gp, w_t, 1, h, wd, select_route(n * h * wd, oc))
    return grad_x, grad_w, g.sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# 2x2 max pooling with argmax masks


def _window_view(x: np.ndarray) -> np.ndarray:
    """(n,c,h,w) -> (n,c,h/2,w/2,4) with row-major window order."""
    n, c, h, w = x.shape
    v = x.reshape(n, c, h // 2, 2, w // 2, 2)
    return v.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, indices); indices are flat offsets 0..3 within each
    2x2 window, row-major, first occurrence winning ties."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2: input must be 4-D, got {x.ndim}-D")
    n, c, h, w = x.shape
    if h % 2:
        raise ShapeError(f"maxpool2: height axis extent {h} is odd")
    if w % 2:
        raise ShapeError(f"maxpool2: width axis extent {w} is odd")
    v = _window_view(x)
    idx = v.argmax(axis=-1).astype(np.uint8)
    out = np.take_along_axis(v, idx[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), idx


def _scatter_windows(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Place ``values`` (n,c,oh,ow) at window offsets ``idx`` in a doubled map."""
    n, c, oh, ow = values.shape
    buf = np.zeros((n, c, oh, ow, 4), dtype=values.dtype)
    np.put_along_axis(buf, idx[..., None].astype(np.intp), values[..., None], axis=-1)
    out = buf.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(out.reshape(n, c, 2 * oh, 2 * ow))


def maxpool2_backward(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return _scatter_windows(g, idx)


def unpool2_forward(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if x.shape != idx.shape:
        raise ShapeError(
            f"unpool2: input shape {x.shape} does not match mask shape {idx.shape}")
    return _scatter_windows(x, idx)


def unpool2_backward(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    gv = _window_view(g)
    return np.take_along_axis(gv, idx[..., None].astype(np.intp), axis=-1)[..., 0]
