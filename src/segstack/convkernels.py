"""Raw ndarray kernels for 2-D convolution and 2x2 max pooling on
channels-last (n, h, w, c) arrays.

Every convolution, forward or backward, is one channels-last correlation
(``_correlate``) on one of two routes:

* ``direct``: one GEMM per kernel offset.  With the padded input's rows
  flattened, the window of offset (i, j) is the run of rows shifted by
  ``i*width + j``, read in place.  Larger strides subsample the stride-1 map.
* ``im2col``: the column matrix of all receptive fields times the weight
  matrix, one block of output image rows at a time.  A plan set by the
  shapes alone (``_im2col``) sizes the blocks to stay in L2; each block is
  copied into a buffer allocated up front and multiplied into place.

The input gradient is the forward correlation of the zero-dilated upstream
gradient, re-padded by k-1-p, with the flipped, channel-swapped kernel; the
weight gradient reads the forward's windows on the forward's route.  Each
correlation's route is ``select_route`` of its GEMM's shape, so callers pass
none.  Both routes agree up to float reduction order; the tests pin each
against naive nested-loop oracles.

With BLAS pinned, a kernel whose GEMMs clear a size gate (``_parts``)
runs as two fixed parts, set by the shapes alone: alternate row chunks
(direct route), alternate taps, each summed over the chunks in order (its
weight gradient), alternate blocks (im2col; halves of the output channels
of a one-block plan), or halves of the columns, each summed over the blocks
in plan order (its weight gradient).  The caller runs part 0 and a helper
thread part 1 (``_run``); without the helper the caller runs both, so the
bits never depend on it.  A forked child starts its own helper.

Pooling reads each 2x2 window from an (n, h/2, 2, w/2, 2, c) view; slot k
of a window is its row-major offset (k // 2, k % 2), and the argmax is the
uint8 slot of the first maximum.

Weights have shape (oc, c, kh, kw) throughout, and the kernels read
them in (oc, kh, kw, c) memory order (``nnops.ConvParams`` allocates
them so): the im2col forward's weight matrix is then a view, and the
weight gradient comes back in that order, as a view.  A weight in any
other order costs a copy.  ``nnops`` calls only the channels-last
kernels; the (n, c, h, w) adapters at the end have no caller in the
package.

Everything here is pure ndarray-in/ndarray-out; autodiff wiring lives
in ``nnops``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

# GEMMs with at least _IM2COL_MIN_OC output channels, or fewer rows (n*oh*ow)
# than _IM2COL_ROWS_PER_CHANNEL per input channel, go im2col (see the output
# of python3 tests/route_sweep.py), in blocks of at most _SLAB_BYTES of columns
# (a block stays in L2, and the two parts' blocks add little to the step's
# peak memory) but of at least _ROWS_PER_OC rows per output channel, so that
# the GEMM's other operand stays small beside them.
_IM2COL_ROWS_PER_CHANNEL, _IM2COL_MIN_OC = 16, 64
_SLAB_BYTES, _ROWS_PER_OC = 1 << 19, 2
# The direct route walks rows in chunks of about this many bytes of input and
# output rows, so a chunk stays in cache across all kernel offsets.
_CHUNK_BYTES = 1 << 18
# With BLAS pinned to one thread (README, "Determinism"), a kernel splits
# when the op does at least _SPLIT_MACS multiply-adds and each of its matmul
# calls at least _SPLIT_CALL_MACS; no mini-net op does. Unpinned, BLAS keeps
# both cores busy already. pool: the helper, a one-thread pool once started
# under lock (forked children drop both).
_SPLIT_MACS, _SPLIT_CALL_MACS = 50_000_000, 1_000_000
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_split = SimpleNamespace(pool=None, lock=threading.Lock(),
                         pinned={os.environ.get(v) for v in _BLAS_VARS}
                         - {None} == {"1"})
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: vars(_split).update(
        pool=None, lock=threading.Lock()))


def _parts(op_macs: int, call_macs: int) -> int:
    return 2 if (_split.pinned and op_macs >= _SPLIT_MACS
                 and call_macs >= _SPLIT_CALL_MACS) else 1


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _run(job, parts: int) -> None:
    """``job(p)`` for each part p: with two parts, part 1 on the helper if
    the process may run on two CPUs, under the caller's float error state
    (``np.errstate`` is per thread)."""
    if parts == 2 and usable_cpus() >= 2:
        with _split.lock:
            _split.pool = _split.pool or ThreadPoolExecutor(1)
        second = _split.pool.submit(_with_errstate, np.geterr(), job)
        try:
            job(0)
        finally:
            error = second.exception()  # waits for part 1
        if error is not None:
            raise error
        return
    for p in range(parts):
        job(p)


def _with_errstate(state: dict, job) -> None:
    with np.errstate(**state):
        job(1)


def check_conv_shapes(x: np.ndarray, w: np.ndarray, pad: tuple[int, int],
                      stride: int) -> tuple[int, int]:
    """Validates a conv of channels-last ``x`` and returns its output
    extents (oh, ow)."""
    n, h, wd, c = x.shape
    oc, ic, kh, kw = w.shape
    if c != ic:
        raise ShapeError(
            f"conv2d: channel axis mismatch, input has {c} channels but weight expects {ic}")
    ph, pw = pad
    for axis, e, p, k in (("height", h, ph, kh), ("width", wd, pw, kw)):
        if e + 2 * p < k:
            raise ShapeError(
                f"conv2d: {axis} axis too small, {e}+2*{p} padded < kernel {k}")
    return (h + 2 * ph - kh) // stride + 1, (wd + 2 * pw - kw) // stride + 1


def select_route(rows: int, c: int, oc: int) -> str:
    """Route of a GEMM of ``rows`` output pixels, ``c`` to ``oc`` channels."""
    im2col = oc >= _IM2COL_MIN_OC or rows < _IM2COL_ROWS_PER_CHANNEL * c
    return "im2col" if im2col else "direct"


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


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int,
            ow: int, k: int, oc: int):
    """(win, size, blocks) of the im2col route over ``_pad`` map xp: win is the
    (n, oh, ow, kh, kw*c) view of its receptive fields; blocks cut the n*oh
    output image rows into runs of at most ``size`` entries of k columns."""
    win = sliding_window_view(xp[:, :-1], (kh, kw), axis=(1, 2))
    win = win[:, :stride * (oh - 1) + 1:stride, :stride * (ow - 1) + 1:stride]
    win = win.transpose(0, 1, 2, 4, 5, 3)
    units = len(xp) * oh
    per = min(units, max(_SLAB_BYTES // (ow * k * xp.itemsize),
                         -(-_ROWS_PER_OC * oc // ow), 1))
    return (win.reshape(win.shape[:4] + (-1,)), per * ow * k,
            [(j, min(units, j + per)) for j in range(0, units, per)])


def _fill(buf: np.ndarray, win: np.ndarray, j0: int, j1: int, k0: int,
          k1: int) -> np.ndarray:
    """Columns k0:k1 of output image rows j0:j1 of ``_im2col``'s win, as
    rows of the column matrix in the head of ``buf``."""
    oh, ow, _, kwc = win.shape[1:]
    cols = buf[:(j1 - j0) * ow * (k1 - k0)].reshape(j1 - j0, ow, k1 - k0)
    for i in range(j0 // oh, (j1 - 1) // oh + 1):
        y0, y1 = max(j0, i * oh), min(j1, i * oh + oh)
        for ki in range(k0 // kwc, (k1 - 1) // kwc + 1):
            a, b = max(k0, ki * kwc), min(k1, ki * kwc + kwc)
            cols[y0 - j0:y1 - j0, :, a - k0:b - k0] = win[
                i, y0 - i * oh:y1 - i * oh, :, ki, a - ki * kwc:b - ki * kwc]
    return cols.reshape(-1, k1 - k0)


def _correlate(xp: np.ndarray, w: np.ndarray, stride: int, oh: int,
               ow: int) -> np.ndarray:
    """``_pad`` map * ``w`` (oc,c,kh,kw) -> (n,oh,ow,oc), maybe a strided
    view of a larger buffer."""
    n, _, width, c = xp.shape
    oc, _, kh, kw = w.shape
    macs = n * oh * ow * oc * c * kh * kw
    if select_route(n * oh * ow, c, oc) == "im2col":
        wt = w.transpose(2, 3, 1, 0).reshape(-1, oc)
        win, size, blocks = _im2col(xp, kh, kw, stride, oh, ow, len(wt), oc)
        parts = _parts(macs, size * oc // 2)
        out = np.empty((n * oh * ow, oc), xp.dtype)
        if len(blocks) == 1:
            # the one block is filled once; each part takes half the channels
            cols = _fill(np.empty(size, xp.dtype), win, 0, n * oh, 0, len(wt))
            o = [slice(p * oc // parts, (p + 1) * oc // parts)
                 for p in range(parts)]
            _run(lambda p: np.matmul(cols, wt[:, o[p]], out=out[:, o[p]]),
                 parts)
            return out.reshape(n, oh, ow, oc)
        buf = np.empty((parts, size), xp.dtype)

        def fill_and_multiply(p):  # blocks alternate between the parts
            for j0, j1 in blocks[p::parts]:
                cols = _fill(buf[p], win, j0, j1, 0, len(wt))
                np.matmul(cols, wt, out=out[j0 * ow:j1 * ow])

        _run(fill_and_multiply, parts)
        return out.reshape(n, oh, ow, oc)
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
                 stride: int) -> np.ndarray:
    """Cross-correlation of ``x`` (n,h,w,c) with ``w`` (oc,c,kh,kw) ->
    (n,oh,ow,oc), bias not added."""
    oh, ow = check_conv_shapes(x, w, pad, stride)
    w = w.astype(x.dtype, copy=False)
    xp = _pad(x, pad, (x.shape[1] + 2 * pad[0], x.shape[2] + 2 * pad[1]))
    # a transient x that the caller did not keep goes now, and the padded map
    # before the copy out: two fewer activation-sized buffers at the peak
    del x
    out = _correlate(xp, w, stride, oh, ow)
    del xp
    return np.ascontiguousarray(out)


def _weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                 stride: int) -> np.ndarray:
    """(oc,kh,kw,c) weight gradient, read from the forward's windows of xp
    on the forward's route."""
    _, hp1, width, c = xp.shape
    oh, ow, oc = g.shape[1:]
    macs = g.size * c * kh * kw
    if select_route(g.size // oc, c, oc) == "im2col":
        # part p owns a fixed half of the gradient's columns and adds up its
        # blocks in plan order, the first straight into place
        k = kh * kw * c
        parts = _parts(macs, macs // 2)
        most = -(-k // parts)
        win, size, blocks = _im2col(xp, kh, kw, stride, oh, ow, most, oc)
        gf = g.reshape(-1, oc)
        gw = np.empty((oc, k), np.result_type(g, xp))
        buf = np.empty((parts, size), xp.dtype)
        scratch = np.empty((parts, oc, most if len(blocks) > 1 else 0),
                           gw.dtype)

        def fill_and_accumulate(p):
            a, b = p * k // parts, (p + 1) * k // parts
            for j0, j1 in blocks:
                cols = _fill(buf[p], win, j0, j1, a, b)
                into = scratch[p, :, :b - a] if j0 else gw[:, a:b]
                np.matmul(gf[j0 * ow:j1 * ow].T, cols, out=into)
                if j0:
                    gw[:, a:b] += into

        _run(fill_and_accumulate, parts)
        return gw.reshape(oc, kh, kw, c)
    # g on the stride-1 output grid, laid out like xp, shifts like the forward
    gf = _pad(g, (0, 0), (hp1 - 1, width), stride).reshape(-1, oc)
    xf = xp.reshape(-1, c)
    shifts = [ki * width + kj for ki in range(kh) for kj in range(kw)]
    chunks = _row_chunks(len(xf) - shifts[-1], c, oc, xp.itemsize)
    parts = _parts(macs, chunks[0][1] * c * oc)
    gw = np.zeros((oc, len(shifts), c), dtype=xp.dtype)
    scratch = np.empty((parts, oc, c), np.result_type(gf, xf))

    def job(p):
        for r0, r1 in chunks:
            gt = gf[r0:r1].T
            for t in range(p, len(shifts), parts):
                gw[:, t] += np.matmul(gt, xf[r0 + shifts[t]:r1 + shifts[t]],
                                      out=scratch[p])

    _run(job, parts)
    return gw.reshape(oc, kh, kw, c)


def conv_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                  pad: tuple[int, int], stride: int, *,
                  need_input_grad: bool = True
                  ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of ``conv_forward`` plus a bias w.r.t. input, weight and
    bias.

    ``g`` is the upstream gradient with the output's shape (n,oh,ow,oc).
    Returns (grad_x, grad_w, grad_b); grad_x is None when not requested.
    """
    _, h, wd, _ = x.shape
    _, _, kh, kw = w.shape
    ph, pw = pad
    grad_w = _weight_grad(_pad(x, pad, (h + 2 * ph, wd + 2 * pw)), g, kh, kw,
                          stride).transpose(0, 3, 1, 2)
    grad_w = grad_w.astype(w.dtype, copy=False)
    del x  # as in conv_forward
    grad_x = None
    if need_input_grad:
        gp = _pad(g, (kh - 1 - ph, kw - 1 - pw), (h + kh - 1, wd + kw - 1),
                  stride)
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(g.dtype, copy=False)
        grad_x = _correlate(gp, w_t, 1, h, wd)
        del gp  # as in conv_forward
        grad_x = np.ascontiguousarray(grad_x)
    return grad_x, grad_w, g.sum(axis=(0, 1, 2))


# ---------------------------------------------------------------------------
# 2x2 max pooling with argmax masks

_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _slots(x: np.ndarray) -> list[np.ndarray]:
    """(n,h/2,w/2,c) views of (n,h,w,c) ``x`` at each window slot."""
    n, h, w, c = x.shape
    v = x.reshape(n, h // 2, 2, w // 2, 2, c)
    return [v[:, :, i, :, j] for i, j in _SLOTS]


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, indices) of channels-last ``x``; indices are the
    window slots 0..3, first occurrence winning ties."""
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
    ``scatter2`` w.r.t. its values. Each slot's bits are ANDed with all
    ones where ``idx`` picks it, else 0, and the four are ORed."""
    bits = g.view(f"u{g.itemsize}")
    out = np.zeros(idx.shape, bits.dtype)
    for k, slot in enumerate(_slots(bits)):
        keep = np.negative(np.equal(idx, k).astype(bits.dtype))
        out |= np.bitwise_and(slot, keep, out=keep)
    return out.view(g.dtype)


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
                   pad: tuple[int, int], stride: int) -> np.ndarray:
    """Cross-correlation of ``x`` (n,c,h,w) with ``w`` (oc,c,kh,kw), plus
    ``b``."""
    out = conv_forward(nhwc(x), w, pad, stride)
    if b is not None:
        out += b.astype(x.dtype, copy=False)
    return nchw(out)


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                    pad: tuple[int, int], stride: int, *,
                    need_input_grad: bool = True
                    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """``conv_backward`` of (n,c,h,w) ``x`` and ``g``."""
    gx, gw, gb = conv_backward(nhwc(x), w, nhwc(g), pad, stride,
                               need_input_grad=need_input_grad)
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
