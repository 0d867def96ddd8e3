"""Raw ndarray kernels for 2-D convolution and 2x2 max pooling on
channels-last (n, h, w, c) arrays.

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

With BLAS pinned, a kernel whose GEMMs clear a size gate (``_parts``)
runs as two fixed parts, set by the shapes alone: alternate row chunks
(direct route), alternate taps, each summed over the chunks in order (its
weight gradient), or two row blocks (im2col; column blocks for its weight
gradient).  The caller runs part 0 and a helper thread part 1 (``_run``);
without the helper the caller runs both, so the bits never depend on it.

Pooling reads each 2x2 window from an (n, h/2, 2, w/2, 2, c) view; slot k
of a window is its row-major offset (k // 2, k % 2), and the argmax is the
uint8 slot of the first maximum.

Weights are (oc, c, kh, kw) throughout.  The (n, c, h, w) section at the
end (``nhwc``, ``nchw``, ``conv2d_*``, ``maxpool2_*``, ``unpool2_*``) has no
caller in the package; ``nnops`` calls only the channels-last kernels.

Everything here is pure ndarray-in/ndarray-out; autodiff wiring lives
in ``nnops``.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

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
# With BLAS pinned to one thread (README, "Determinism"), a kernel splits
# when the op does at least _SPLIT_MACS multiply-adds and each of its matmul
# calls at least _SPLIT_CALL_MACS; no mini-net op does. Unpinned, BLAS keeps
# both cores busy already. pool: the helper, a one-thread pool once started
# under lock (forked children drop both); inline: the caller runs both parts.
_SPLIT_MACS, _SPLIT_CALL_MACS = 50_000_000, 1_000_000
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_split = SimpleNamespace(pool=None, lock=threading.Lock(), inline=False,
                         pinned={os.environ.get(v) for v in _BLAS_VARS}
                         - {None} == {"1"})
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: vars(_split).update(
        pool=None, lock=threading.Lock()))


def _parts(op_macs: int, call_macs: int) -> int:
    return 2 if (_split.pinned and op_macs >= _SPLIT_MACS
                 and call_macs >= _SPLIT_CALL_MACS) else 1


def _run(job, parts: int) -> None:
    """``job(p)`` for each part p: with two parts, part 1 on the helper if
    the process may run on two CPUs."""
    if parts == 2 and not _split.inline and (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) >= 2:
        with _split.lock:
            _split.pool = _split.pool or ThreadPoolExecutor(1)
        second = _split.pool.submit(job, 1)
        try:
            job(0)
        finally:
            error = second.exception()  # waits for part 1
        if error is not None:
            raise error
        return
    for p in range(parts):
        job(p)


@contextlib.contextmanager
def _inline_kernels():
    """The caller runs both parts of every kernel for the block, also in
    processes forked inside it."""
    saved, _split.inline = _split.inline, True
    try:
        yield
    finally:
        _split.inline = saved


def check_conv_shapes(x: np.ndarray, w: np.ndarray, pad: tuple[int, int],
                      stride: int) -> tuple[int, int]:
    """Validates a conv of channels-last ``x`` and returns its output
    extents (oh, ow)."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D, got {x.ndim}-D")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4-D (oc,ic,kh,kw), got {w.ndim}-D")
    n, h, wd, c = x.shape
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


def _pad(x: np.ndarray, offset: tuple[int, int], extent: tuple[int, int],
         dilation: int = 1) -> np.ndarray:
    """Zero (n, eh + 1, ew, c) map with x[:, i, j] at offset + dilation *
    (i, j); what lands outside (eh, ew) is dropped.  The spare bottom row
    keeps the direct route's shifted row runs inside the buffer."""
    out = np.zeros((x.shape[0], extent[0] + 1, extent[1], x.shape[3]), x.dtype)
    src, dst = [], []
    for o, e, length in zip(offset, extent, x.shape[1:3]):
        lo = max(0, -(o // dilation))
        hi = max(lo, min(length, (e - 1 - o) // dilation + 1))
        src.append(slice(lo, hi))
        dst.append(slice(o + dilation * lo, o + dilation * hi, dilation))
    out[:, dst[0], dst[1]] = x[:, src[0], src[1]]
    return out


def _row_chunks(span: int, c: int, oc: int, itemsize: int):
    step = max(256, _CHUNK_BYTES // ((c + oc) * itemsize))
    return [(r0, min(span, r0 + step)) for r0 in range(0, span, step)]


def _columns(xp: np.ndarray, kh: int, kw: int, stride: int,
             oh: int, ow: int) -> np.ndarray:
    """(n*oh*ow, kh*kw*c) receptive fields of a ``_pad`` map."""
    win = sliding_window_view(xp[:, :-1], (kh, kw), axis=(1, 2))
    win = win[:, :stride * (oh - 1) + 1:stride, :stride * (ow - 1) + 1:stride]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(xp.shape[0] * oh * ow, -1)


def _correlate(xp: np.ndarray, w: np.ndarray, stride: int, oh: int, ow: int,
               route: str) -> np.ndarray:
    """``_pad`` map * ``w`` (oc,c,kh,kw) -> (n,oh,ow,oc), maybe a strided
    view of a larger buffer."""
    n, _, width, c = xp.shape
    oc, _, kh, kw = w.shape
    macs = n * oh * ow * oc * c * kh * kw
    if route == "im2col":
        cols = _columns(xp, kh, kw, stride, oh, ow)
        wt = w.transpose(0, 2, 3, 1).reshape(oc, -1).T
        out = np.empty((len(cols), oc), xp.dtype)
        a, o = (np.array_split(m, _parts(macs, macs // 2)) for m in (cols, out))
        _run(lambda p: np.matmul(a[p], wt, out=o[p]), len(a))
        return out.reshape(n, oh, ow, oc)
    if route != "direct":
        raise ValueError(f"unknown conv route {route!r}")
    # output row r reads input rows r + i*width + j; rows that wrap past a
    # row's or an image's end are cut away at the end
    flat = xp.reshape(-1, c)
    span = len(flat) - (kh - 1) * width - (kw - 1)
    taps = [(ki * width + kj, np.ascontiguousarray(w[:, :, ki, kj].T))
            for ki in range(kh) for kj in range(kw)]
    chunks = _row_chunks(span, c, oc, xp.itemsize)
    parts = _parts(macs, chunks[0][1] * c * oc)
    acc = np.zeros((len(flat), oc), dtype=xp.dtype)
    scratch = np.empty((parts, chunks[0][1], oc), dtype=xp.dtype)

    def job(p):
        for r0, r1 in chunks[p::parts]:
            out, s = acc[r0:r1], scratch[p, :r1 - r0]
            for shift, wk in taps:
                out += np.matmul(flat[r0 + shift:r1 + shift], wk, out=s)

    _run(job, parts)
    acc = acc.reshape(xp.shape[:3] + (oc,))
    return acc[:, :stride * (oh - 1) + 1:stride, :stride * (ow - 1) + 1:stride]


def conv_forward(x: np.ndarray, w: np.ndarray, pad: tuple[int, int],
                 stride: int, route: str) -> np.ndarray:
    """Cross-correlation of ``x`` (n,h,w,c) with ``w`` (oc,c,kh,kw) ->
    (n,oh,ow,oc), bias not added."""
    oh, ow = check_conv_shapes(x, w, pad, stride)
    w = w.astype(x.dtype, copy=False)
    xp = _pad(x, pad, (x.shape[1] + 2 * pad[0], x.shape[2] + 2 * pad[1]))
    # a transient x that the caller did not keep goes now, and the padded map
    # before the copy out: two fewer activation-sized buffers at the peak
    del x
    out = _correlate(xp, w, stride, oh, ow, route)
    del xp
    return np.ascontiguousarray(out)


def _weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                 stride: int, route: str) -> np.ndarray:
    """(oc,kh,kw,c) weight gradient, read from the forward's windows of xp."""
    _, hp1, width, c = xp.shape
    oh, ow, oc = g.shape[1:]
    macs = g.size * c * kh * kw
    if route == "im2col":
        cols = _columns(xp, kh, kw, stride, oh, ow)
        gt = g.reshape(-1, oc).T
        gw = np.empty((oc, cols.shape[1]), np.result_type(g, xp))
        b, o = (np.array_split(m, _parts(macs, macs // 2), axis=1)
                for m in (cols, gw))
        _run(lambda p: np.matmul(gt, b[p], out=o[p]), len(b))
        return gw.reshape(oc, kh, kw, c)
    # g on the stride-1 output grid, laid out like xp, shifts like the forward
    gf = _pad(g, (0, 0), (hp1 - 1, width), stride).reshape(-1, oc)
    xf = xp.reshape(-1, c)
    shifts = [ki * width + kj for ki in range(kh) for kj in range(kw)]
    chunks = _row_chunks(len(xf) - shifts[-1], c, oc, xp.itemsize)
    parts = _parts(macs, chunks[0][1] * c * oc)
    gw = np.zeros((len(shifts), oc, c), dtype=xp.dtype)
    scratch = np.empty((parts, oc, c), np.result_type(gf, xf))

    def job(p):
        for r0, r1 in chunks:
            gt = gf[r0:r1].T
            for t in range(p, len(shifts), parts):
                gw[t] += np.matmul(gt, xf[r0 + shifts[t]:r1 + shifts[t]],
                                   out=scratch[p])

    _run(job, parts)
    return gw.reshape(kh, kw, oc, c).transpose(2, 0, 1, 3)


def conv_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                  pad: tuple[int, int], stride: int, route: str,
                  need_input_grad: bool = True
                  ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of ``conv_forward`` plus a bias w.r.t. input, weight and
    bias.

    ``g`` is the upstream gradient with the output's shape (n,oh,ow,oc)
    and ``route`` the route the forward took.  Returns (grad_x, grad_w,
    grad_b); grad_x is None when not requested.
    """
    n, h, wd, c = x.shape
    oc, _, kh, kw = w.shape
    ph, pw = pad
    grad_w = np.ascontiguousarray(_weight_grad(
        _pad(x, pad, (h + 2 * ph, wd + 2 * pw)), g, kh, kw, stride,
        route).transpose(0, 3, 1, 2), dtype=w.dtype)
    del x  # as in conv_forward
    grad_x = None
    if need_input_grad:
        gp = _pad(g, (kh - 1 - ph, kw - 1 - pw), (h + kh - 1, wd + kw - 1),
                  stride)
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(g.dtype, copy=False)
        grad_x = _correlate(gp, w_t, 1, h, wd, select_route(n * h * wd, oc))
        del gp  # as in conv_forward
        grad_x = np.ascontiguousarray(grad_x)
    return grad_x, grad_w, g.sum(axis=(0, 1, 2))


# ---------------------------------------------------------------------------
# 2x2 max pooling with argmax masks

_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _windows(x: np.ndarray) -> np.ndarray:
    """(n,h,w,c) -> (n,h/2,2,w/2,2,c); slot (i, j) is [:, :, i, :, j]."""
    n, h, w, c = x.shape
    return x.reshape(n, h // 2, 2, w // 2, 2, c)


def _slots(x: np.ndarray) -> list[np.ndarray]:
    v = _windows(x)
    return [v[:, :, i, :, j] for i, j in _SLOTS]


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, indices) of channels-last ``x``; indices are the
    window slots 0..3, first occurrence winning ties."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2: input must be 4-D, got {x.ndim}-D")
    n, h, w, c = x.shape
    if h % 2:
        raise ShapeError(f"maxpool2: height axis extent {h} is odd")
    if w % 2:
        raise ShapeError(f"maxpool2: width axis extent {w} is odd")
    a, b, c, d = _slots(x)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    # the first slot holding the maximum is the run of slots below it
    below = a < out
    idx = below.astype(np.uint8)
    for slot in (b, c):
        below &= slot < out
        idx += below
    return out, idx


def scatter2(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Place ``values`` (n,oh,ow,c) at window slots ``idx`` of a zero
    (n,2oh,2ow,c) map: unpooling, and the gradient of pooling. A slot is
    the values' bits ANDed with all ones where ``idx`` picks it, else 0."""
    n, oh, ow, c = values.shape
    bits = values.view(f"u{values.itemsize}")
    out = np.empty((n, oh, 2, ow, 2, c), bits.dtype)
    for k, (i, j) in enumerate(_SLOTS):
        keep = np.negative(np.equal(idx, k).astype(bits.dtype))
        np.bitwise_and(bits, keep, out=out[:, :, i, :, j])
    return out.view(values.dtype).reshape(n, 2 * oh, 2 * ow, c)


def gather2(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The window-slot ``idx`` entries of ``g``: the gradient of
    ``scatter2`` w.r.t. its values."""
    return np.choose(idx, _slots(g))


# ---------------------------------------------------------------------------
# (n, c, h, w) adapters
# perfbench/tracing.py wraps these names; they go once perfbench reads its
# per-layer times from an in-tape profiler instead (see ROADMAP.md).


def nhwc(x: np.ndarray) -> np.ndarray:
    """Channels-last view of a 4-D (n,c,h,w) array; other ranks as given."""
    return x.transpose(0, 2, 3, 1) if x.ndim == 4 else x


def nchw(x: np.ndarray) -> np.ndarray:
    """Contiguous (n,c,h,w) copy of a channels-last array."""
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                   pad: tuple[int, int], stride: int, route: str) -> np.ndarray:
    """Cross-correlation of ``x`` (n,c,h,w) with ``w`` (oc,c,kh,kw), plus
    ``b``."""
    out = conv_forward(nhwc(x), w, pad, stride, route)
    if b is not None:
        out += b.astype(x.dtype, copy=False)
    return nchw(out)


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                    pad: tuple[int, int], stride: int, route: str,
                    need_input_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """``conv_backward`` of (n,c,h,w) ``x`` and ``g``."""
    gx, gw, gb = conv_backward(nhwc(x), w, nhwc(g), pad, stride, route,
                               need_input_grad)
    return None if gx is None else nchw(gx), gw, gb


def maxpool2_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out, idx = maxpool2(nhwc(x))
    return nchw(out), nchw(idx)


def maxpool2_backward(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return nchw(scatter2(nhwc(g), nhwc(idx)))


def unpool2_forward(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    if x.shape != idx.shape:
        raise ShapeError(
            f"unpool2: input shape {x.shape} does not match mask shape {idx.shape}")
    return nchw(scatter2(nhwc(x), nhwc(idx)))


def unpool2_backward(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return nchw(gather2(nhwc(g), nhwc(idx)))
