"""Full-scene prediction by tiling, per-window forward passes, and
overlap averaging.

Windows are processed by a small thread pool (numpy releases the GIL for
the heavy kernels) but the stitch accumulates window results in planning
order on the calling thread, so the output is bitwise independent of the
worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .datapipe import TileGeometry, plan_tiles, stitch_average
from .errors import ConfigError, ShapeError
from .fusion import CorrectorSpec, StreamOutput, fuse_average, fuse_residual
from .nnops import softmax_channels
from .segnet import NetworkSpec, forward_parts
from .tensor import Tensor, no_grad

THREADS_ENV = "SEGSTACK_THREADS"


def thread_budget(requested=None) -> int:
    """Tile-level worker count: explicit argument if given, else the
    SEGSTACK_THREADS environment variable, else 1 (deterministic mode is
    the default, parallelism is opt-in)."""
    if requested is None:
        raw = os.environ.get(THREADS_ENV, "").strip()
        if not raw:
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, "
                              f"got {raw!r}") from None
    n = int(requested)
    if n < 1:
        raise ConfigError(f"thread count must be >= 1, got {n}")
    return n


def _check_bands(bands, what: str) -> None:
    if bands.ndim != 3:
        raise ShapeError(f"{what} must be (bands, height, width), "
                         f"got shape {bands.shape}")


def _crop_window(bands, win):
    return bands[:, win.top:win.top + win.height,
                 win.left:win.left + win.width]


def _map_windows(windows, worker, threads: int):
    if threads == 1:
        return [worker(w) for w in windows]
    with ThreadPoolExecutor(max_workers=min(threads, len(windows))) as ex:
        return list(ex.map(worker, windows))


def predict_probs(spec: NetworkSpec, bands: np.ndarray,
                  geom: TileGeometry = None, threads=None) -> np.ndarray:
    """Class probability map (k, H, W) in float64 for one scene.

    Every window goes through an eval-mode forward and a channel softmax;
    overlapping predictions are averaged per pixel after the softmax, so
    each output pixel is a mean of distributions (and still sums to 1).
    """
    _check_bands(bands, "scene")
    geom = geom or TileGeometry()
    h, w = bands.shape[1:]
    windows = plan_tiles(h, w, geom)
    threads = thread_budget(threads)

    def worker(win):
        x = Tensor(_crop_window(bands, win)[None])
        logits, _ = forward_parts(spec, x, mode="eval")
        return softmax_channels(logits).data[0]

    with no_grad():
        maps = _map_windows(windows, worker, threads)
    return stitch_average(windows, maps, h, w)


def predict_probs_fused(spec_a: NetworkSpec, spec_b: NetworkSpec,
                        corr, bands_a: np.ndarray, bands_b: np.ndarray,
                        geom: TileGeometry = None, threads=None) -> np.ndarray:
    """Dual-stream prediction: per window, both streams run forward, the
    fused map (residual correction when a corrector is given, plain
    averaging otherwise) is computed, and fused maps are stitched.

    With a corrector the fused values are corrected scores rather than
    renormalized probabilities; argmax treats them the same way.
    """
    _check_bands(bands_a, "first stream")
    _check_bands(bands_b, "second stream")
    if bands_a.shape[1:] != bands_b.shape[1:]:
        raise ShapeError(f"streams must be co-registered, got "
                         f"{bands_a.shape[1:]} vs {bands_b.shape[1:]}")
    geom = geom or TileGeometry()
    h, w = bands_a.shape[1:]
    windows = plan_tiles(h, w, geom)
    threads = thread_budget(threads)

    def worker(win):
        xa = Tensor(_crop_window(bands_a, win)[None])
        xb = Tensor(_crop_window(bands_b, win)[None])
        la, fa = forward_parts(spec_a, xa, mode="eval")
        lb, fb = forward_parts(spec_b, xb, mode="eval")
        streams = [StreamOutput(softmax_channels(la), fa),
                   StreamOutput(softmax_channels(lb), fb)]
        if corr is None:
            fused = fuse_average(streams)
        else:
            fused = fuse_residual(streams, corr)
        return fused.data[0]

    with no_grad():
        maps = _map_windows(windows, worker, threads)
    return stitch_average(windows, maps, h, w)


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """Argmax over the class axis; ties go to the lowest class index."""
    if probs.ndim != 3:
        raise ShapeError(f"probability map must be (k, H, W), got shape "
                         f"{probs.shape}")
    return probs.argmax(axis=0).astype(np.uint8)
