"""Full-scene prediction by tiling, per-window forward passes, and
overlap averaging.

``window_map`` is the one eval path from windows to a class map; scene
prediction and the accuracy measurements in ``training`` share it.

``threads`` above its default of 1 runs the windows on a thread pool.
The pool is optional: the many small numpy calls of a window hold the
GIL, and on two cores two workers measured no speedup (1.00x on a fused
512x512 scene). It does not change the output bits either way, because
the stitch accumulates window results in planning order on the calling
thread.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

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
    caller holds ``no_grad()``; the flag is process-wide, so tile workers
    must not toggle it."""
    streams = stream_outputs(specs, xs)
    if corr is not None:
        return fuse_residual(streams, corr).data
    if len(streams) == 1:
        return streams[0].probs.data
    return fuse_average(streams).data


def _predict_scene(specs, corr, bands, geom, threads) -> np.ndarray:
    """Stitched ``window_map`` over co-registered scenes, one per network;
    stream i is the scene of ``specs[i]``."""
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
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

    with no_grad():
        if threads == 1:
            maps = [worker(win) for win in windows]
        else:
            with ThreadPoolExecutor(min(threads, len(windows))) as ex:
                maps = list(ex.map(worker, windows))
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
