"""Full-scene prediction by tiling, per-window forward passes, and
overlap averaging.

``window_map`` is the one eval path from windows to a class map; scene
prediction and the accuracy measurements in ``training`` share it.

``threads`` = n above its default of 1 splits the windows over n worker
processes (fewer if there are fewer windows). On each call the caller
forks n - 1 children, which inherit the loaded networks, the corrector
and the scenes by copy-on-write. Worker j maps windows j, j + n,
j + 2n, ...; the caller is worker 0. Children write their maps into a
shared anonymous mmap at the window's plan index and leave through
``os._exit``, so nothing is pickled and the caller's stdio buffers are
never flushed twice. A child that fails, by an exception, a warning or
a signal, has its windows mapped again by the caller, so an error
surfaces there with its own type. The caller stitches in plan order,
which keeps the output bitwise independent of ``threads``. On two
cores, two workers map a fused 512x512 scene at stride 64 1.8x as fast
as one; the thread pool they replace reached 1.46x, because the many
short numpy calls of a window hold the GIL.

Forking copies only the calling thread: other threads of the caller
must not hold locks the windows need. While workers run, the caller and
its children run every conv kernel inline (``convkernels``), so no helper
thread competes for the cores they share. Platforms without ``os.fork``
accept ``threads=1`` only.
"""

import math
import mmap
import os
import signal
import warnings

import numpy as np

from .convkernels import _inline_kernels
from .datapipe import TileGeometry, plan_tiles, stitch_average
from .errors import ConfigError, DataError, ShapeError
from .fusion import StreamOutput, fuse_average, fuse_residual
from .nnops import softmax_channels
from .segnet import NetworkSpec, forward_parts
from .tensor import Tensor, no_grad


def _crop_window(bands, win):
    return bands[:, win.top:win.top + win.height,
                 win.left:win.left + win.width]


def stream_outputs(specs, xs) -> "list[StreamOutput]":
    """Eval-mode softmax probabilities and head features of each network
    in ``specs`` on its input in ``xs``."""
    outs = []
    for spec, x in zip(specs, xs):
        logits, feats = forward_parts(spec, x, mode="eval")
        outs.append(StreamOutput(softmax_channels(logits), feats))
    return outs


def window_map(specs, corr, xs) -> np.ndarray:
    """Class map (n, k, h, w) of co-registered inputs ``xs``, one per
    network in ``specs``: one stream's probabilities, the streams'
    average, or with a corrector the residual-corrected average. The
    caller holds ``no_grad()``; forked tile workers inherit it."""
    streams = stream_outputs(specs, xs)
    if corr is not None:
        return fuse_residual(streams, corr).data
    if len(streams) == 1:
        return streams[0].probs.data
    return fuse_average(streams).data


def _map_forked(worker, windows, k, workers):
    """``worker`` over every window on ``workers`` processes: the caller
    and ``workers - 1`` forked children. Returns the maps in plan order,
    those of children as float64 views of a shared buffer (exact for any
    float map, and ``stitch_average`` sums in float64 anyway)."""
    win = windows[0]
    shape = (len(windows), k, win.height, win.width)
    buf = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                        np.float64).reshape(shape)
    maps = list(buf)

    def map_share(j, out):
        for i in range(j, len(windows), workers):
            out[i] = worker(windows[i])

    children = {}
    try:
        for j in range(1, workers):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    warnings.simplefilter("error")
                    map_share(j, buf)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = j
        map_share(0, maps)
        while children:
            pid, status = os.waitpid(next(iter(children)), 0)
            j = children.pop(pid)
            if os.waitstatus_to_exitcode(status) != 0:
                map_share(j, maps)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
    return maps


def _predict_scene(specs, corr, bands, geom, threads) -> np.ndarray:
    """Stitched ``window_map`` over co-registered scenes, one per network;
    stream i is the scene of ``specs[i]``."""
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"{threads} tile workers need os.fork, which this "
                          f"platform lacks; use threads=1")
    for i, b in enumerate(bands):
        if b.ndim != 3:
            raise ShapeError(f"scene must be (bands, height, width), "
                             f"got shape {b.shape}")
        if not np.isfinite(b).all():
            band, row, col = np.argwhere(~np.isfinite(b))[0]
            raise DataError(f"stream {i} scene has a non-finite value "
                            f"{b[band, row, col]} at band {band}, row {row}, "
                            f"column {col}")
    h, w = bands[0].shape[1:]
    if any(b.shape[1:] != (h, w) for b in bands):
        raise ShapeError(f"streams must be co-registered, got "
                         f"{[b.shape[1:] for b in bands]}")
    windows = plan_tiles(h, w, geom or TileGeometry())

    def worker(win):
        return window_map(specs, corr, [Tensor(_crop_window(b, win)[None])
                                         for b in bands])[0]

    workers = min(threads, len(windows))
    with no_grad():
        if workers == 1:
            maps = [worker(win) for win in windows]
        else:
            with _inline_kernels():
                maps = _map_forked(worker, windows, specs[0].k, workers)
    return stitch_average(windows, maps, h, w)


def predict_probs(spec: NetworkSpec, bands: np.ndarray,
                  geom: TileGeometry = None, threads: int = 1) -> np.ndarray:
    """Class probability map (k, H, W) in float64 for one scene.

    Every window goes through an eval-mode forward and a channel softmax;
    overlapping predictions are averaged per pixel after the softmax, so
    each output pixel is a mean of distributions (and still sums to 1).
    """
    return _predict_scene([spec], None, [bands], geom, threads)


def predict_probs_fused(spec_a: NetworkSpec, spec_b: NetworkSpec,
                        corr, bands_a: np.ndarray, bands_b: np.ndarray,
                        geom: TileGeometry = None,
                        threads: int = 1) -> np.ndarray:
    """Dual-stream prediction: per window, both streams run forward, the
    fused map (residual correction when a corrector is given, plain
    averaging otherwise) is computed, and fused maps are stitched.

    With a corrector the fused values are corrected scores rather than
    renormalized probabilities; argmax treats them the same way.
    """
    return _predict_scene([spec_a, spec_b], corr, [bands_a, bands_b], geom,
                          threads)


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """Argmax over the class axis; ties go to the lowest class index."""
    if probs.ndim != 3:
        raise ShapeError(f"probability map must be (k, H, W), got shape "
                         f"{probs.shape}")
    return probs.argmax(axis=0).astype(np.uint8)
