"""Full-scene prediction by tiling, per-window forward passes, and
overlap averaging.

``window_map`` is the one eval path from windows to a class map; scene
prediction and the accuracy measurements in ``training`` share it.

``predict_scene`` maps the windows in one loop on n processes, n the
least of ``threads``, the window count and the CPUs this process may
run on: the caller forks n - 1 children (none for n = 1), which inherit
the loaded networks, the corrector and the scenes by copy-on-write.
Worker j maps windows j, j + n, j + 2n, ...; the caller is worker 0. A
child writes each map into the next slot of its own small shared ring
and sends a one-byte "ready" token down a pipe; the caller, taking the
maps in plan order and mapping its own in between, sends a "free" token
back once it has added a slot's map. So nothing is pickled, and memory
does not grow with the window count: a 1024x1024 scene at patch 64
peaks at about 99 MB at stride 64 (256 windows) and at stride 16 (3721
windows) alike, with one worker or two. Children leave through
``os._exit``, so the caller's stdio buffers are never flushed twice. A
child that fails, by an exception, a warning or a signal, exits and so
closes its pipe; at that end of file the caller maps the child's
remaining windows itself, so an error surfaces there with its own type.
The caller adds every map in plan order, which keeps the output bitwise
independent of ``threads``.

Forking copies only the calling thread: other threads of the caller
must not hold locks the windows need. A child splits its large conv
kernels on a helper thread of its own (``convkernels``). Platforms
without ``os.fork`` accept ``threads=1`` only.
"""

import contextlib
import math
import mmap
import os
import signal
import warnings

import numpy as np

from .convkernels import usable_cpus
from .datapipe import TileGeometry, check_bands, plan_tiles, stitch_average
from .errors import ConfigError, ShapeError
from .fusion import StreamOutput, fuse_average, fuse_residual
from .nnops import softmax_channels
from .segnet import NetworkSpec, check_patch, forward_parts
from .tensor import Tensor, no_grad

# Map slots in each forked worker's ring: a worker runs up to this many
# of its windows ahead of the caller. At least two, so that a worker maps
# its next window while the caller adds the one before.
_RING_SLOTS = 4


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


def _window_maps(worker, windows, k, workers):
    """``worker`` over every window, in plan order, on ``workers``
    processes: the caller and ``workers - 1`` forked children. A child's
    map arrives as a float64 view of a slot of its ring (exact for any
    float map), and the slot is handed back when the next map is asked
    for."""
    win = windows[0]
    shape = (_RING_SLOTS, k, win.height, win.width)
    rings, ready, free, pids = {}, {}, {}, []
    try:
        for j in range(1, workers):
            rings[j] = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                                     np.float64).reshape(shape)
            (ready_r, ready_w), (free_r, free_w) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in [*ready.values(), *free.values(), ready_r,
                               free_w]:
                        os.close(fd)
                    warnings.simplefilter("error")
                    for n, i in enumerate(range(j, len(windows), workers)):
                        if n >= _RING_SLOTS:
                            os.read(free_r, 1)
                        rings[j][n % _RING_SLOTS] = worker(windows[i])
                        os.write(ready_w, b"+")
                finally:
                    os._exit(0)  # the caller reads only the pipe
            pids.append(pid)
            os.close(ready_w)
            os.close(free_r)
            ready[j], free[j] = ready_r, free_w
        live = set(ready)
        for i, win in enumerate(windows):
            j = i % workers
            if j not in live or not os.read(ready[j], 1):
                live.discard(j)
                yield worker(win)
                continue
            yield rings[j][i // workers % _RING_SLOTS]
            if i + workers * _RING_SLOTS < len(windows):
                with contextlib.suppress(BrokenPipeError):
                    os.write(free[j], b"-")
    finally:
        for fd in [*ready.values(), *free.values()]:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def check_threads(threads: int) -> None:
    """ConfigError unless ``threads`` tile workers can run here."""
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"{threads} tile workers need os.fork, which this "
                          f"platform lacks; use threads=1")


def predict_scene(specs, corr, bands, geom, threads) -> np.ndarray:
    """Stitched ``window_map`` over co-registered scenes, one per network;
    stream i is the scene of ``specs[i]``."""
    check_threads(threads)
    for i, b in enumerate(bands):
        check_bands(b, f"stream {i} scene")
    h, w = bands[0].shape[1:]
    if any(b.shape[1:] != (h, w) for b in bands):
        raise ShapeError(f"streams must be co-registered, got "
                         f"{[b.shape[1:] for b in bands]}")
    check_patch(geom.patch, *specs)
    windows = plan_tiles(h, w, geom)

    def worker(win):
        rows, cols = (slice(win.top, win.top + win.height),
                      slice(win.left, win.left + win.width))
        return window_map(specs, corr, [Tensor(b[None, :, rows, cols])
                                         for b in bands])[0]

    workers = min(threads, len(windows), usable_cpus())
    maps = _window_maps(worker, windows, specs[0].k, workers)
    with no_grad(), contextlib.closing(maps):
        return stitch_average(windows, maps, h, w)


def predict_probs(spec: NetworkSpec, bands: np.ndarray,
                  geom: TileGeometry, threads: int = 1) -> np.ndarray:
    """Class probability map (k, H, W) in float64 for one scene.

    Every window goes through an eval-mode forward and a channel softmax;
    overlapping predictions are averaged per pixel after the softmax, so
    each output pixel is a mean of distributions (and still sums to 1).
    """
    return predict_scene([spec], None, [bands], geom, threads)


def predict_probs_fused(spec_a: NetworkSpec, spec_b: NetworkSpec,
                        corr, bands_a: np.ndarray, bands_b: np.ndarray,
                        geom: TileGeometry, threads: int = 1) -> np.ndarray:
    """Dual-stream prediction: per window, both streams run forward, the
    fused map (residual correction when a corrector is given, plain
    averaging otherwise) is computed, and fused maps are stitched.

    With a corrector the fused values are corrected scores rather than
    renormalized probabilities; argmax treats them the same way.
    """
    return predict_scene([spec_a, spec_b], corr, [bands_a, bands_b], geom,
                         threads)


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """Argmax over the class axis; ties go to the lowest class index."""
    if probs.ndim != 3:
        raise ShapeError(f"probability map must be (k, H, W), got shape "
                         f"{probs.shape}")
    return probs.argmax(axis=0).astype(np.uint8)
