"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (plain loops, direct formulas) and
shares no code with the library paths it checks.
"""

from __future__ import annotations

import numpy as np

from segstack.tensor import Tensor, _record, no_grad


def naive_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
                 pad: tuple[int, int] = (0, 0), stride: int = 1) -> np.ndarray:
    """Direct convolution via nested loops over every output coordinate."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    assert c == ic
    ph, pw = pad
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    w64 = w.astype(np.float64)
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (wd + 2 * pw - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for i in range(n):
        for o in range(oc):
            for y in range(oh):
                for z in range(ow):
                    acc = 0.0
                    for cc in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[i, cc, y * stride + u, z * stride + v] \
                                    * w64[o, cc, u, v]
                    out[i, o, y, z] = acc
            if b is not None:
                out[i, o] += float(b[o])
    return out


def naive_conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                          pad: tuple[int, int] = (0, 0), stride: int = 1
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad_x, grad_w, grad_b) of naive_conv2d for upstream gradient ``g``,
    by scattering every output coordinate's gradient through every tap."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    ph, pw = pad
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros((oc, c, kh, kw), dtype=np.float64)
    for i in range(n):
        for y in range(g.shape[2]):
            for z in range(g.shape[3]):
                for u in range(kh):
                    for v in range(kw):
                        yy, zz = y * stride + u, z * stride + v
                        for o in range(oc):
                            go = float(g[i, o, y, z])
                            gw[o, :, u, v] += go * xp[i, :, yy, zz]
                            gxp[i, :, yy, zz] += go * w[o, :, u, v]
    return (gxp[:, :, ph:ph + h, pw:pw + wd], gw,
            g.sum(axis=(0, 2, 3), dtype=np.float64))


def scan_maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive per-window scan; ties resolved to the first row-major slot."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    idx = np.zeros((n, c, h // 2, w // 2), dtype=np.uint8)
    for i in range(n):
        for cc in range(c):
            for y in range(h // 2):
                for z in range(w // 2):
                    best, best_k = None, 0
                    for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                        v = x[i, cc, 2 * y + dy, 2 * z + dx]
                        if best is None or v > best:
                            best, best_k = v, k
                    out[i, cc, y, z] = best
                    idx[i, cc, y, z] = best_k
    return out, idx


def scatter_unpool2(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    n, c, oh, ow = x.shape
    out = np.zeros((n, c, 2 * oh, 2 * ow), dtype=x.dtype)
    offsets = ((0, 0), (0, 1), (1, 0), (1, 1))
    for i in range(n):
        for cc in range(c):
            for y in range(oh):
                for z in range(ow):
                    dy, dx = offsets[int(idx[i, cc, y, z])]
                    out[i, cc, 2 * y + dy, 2 * z + dx] = x[i, cc, y, z]
    return out


def scatter2_where(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Channels-last unpooling by one broadcast ``np.where`` over the
    (n, oh, 2, ow, 2, c) windows: slot k of a window takes the value
    where ``idx`` is k and zero elsewhere."""
    n, oh, ow, c = values.shape
    slots = np.arange(4, dtype=np.uint8).reshape(1, 1, 2, 1, 2, 1)
    out = np.where(idx[:, :, None, :, None] == slots,
                   values[:, :, None, :, None], values.dtype.type(0))
    return out.reshape(n, 2 * oh, 2 * ow, c)


def gather2_choose(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Channels-last unpooling gradient by ``np.choose``: entry (i, j) of
    the result is window (i, j)'s slot ``idx`` of ``g``."""
    n, h, w, c = g.shape
    v = g.reshape(n, h // 2, 2, w // 2, 2, c)
    return np.choose(idx, [v[:, :, i, :, j] for i in (0, 1) for j in (0, 1)])


def softmax_direct(z: np.ndarray) -> np.ndarray:
    """Plain exp/sum softmax over axis 1 at float64, no max subtraction."""
    e = np.exp(z.astype(np.float64))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_direct(z: np.ndarray, labels: np.ndarray,
                         ignore: int = 255) -> float:
    """Per-pixel scalar accumulation of the mean negative log-likelihood."""
    n, k, h, w = z.shape
    p = softmax_direct(z)
    total, count = 0.0, 0
    for i in range(n):
        for y in range(h):
            for x in range(w):
                lab = int(labels[i, y, x])
                if lab == ignore:
                    continue
                total += -np.log(p[i, lab, y, x])
                count += 1
    return total / count


def sum_all(a: Tensor) -> Tensor:
    """Reduce to a scalar tape node; accumulation runs in float64."""
    total = a.data.sum(dtype=np.float64)
    out = Tensor(np.asarray(total, dtype=a.dtype))
    return _record(out, (a,),
                   lambda g: (np.full_like(a.data, g.reshape(-1)[0]),), "sum")


def numeric_gradient(build_loss, tensor, coords, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``build_loss()`` w.r.t. entries of
    ``tensor.data`` at the given flat (C-order) coordinates. It writes
    through an index, not ``reshape(-1)``, which copies an array that is
    not C-contiguous, such as a conv weight."""
    data = tensor.data
    grads = np.zeros(len(coords), dtype=np.float64)
    with no_grad():
        for j, cidx in enumerate(coords):
            at = np.unravel_index(cidx, data.shape)
            orig = data[at]
            data[at] = orig + eps
            fp = float(build_loss().data)
            data[at] = orig - eps
            fm = float(build_loss().data)
            data[at] = orig
            grads[j] = (fp - fm) / (2.0 * eps)
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise relative error; pairs that are both ~0 count as 0."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    tiny = denom < 1e-8
    rel = np.where(tiny, 0.0, err / np.where(tiny, 1.0, denom))
    return float(rel.max()) if rel.size else 0.0


def check_gradients(build_loss, tensors, rng, n_coords: int = 100,
                    eps: float = 1e-5) -> float:
    """FD-check grads of a scalar loss for every tensor; returns max rel error.

    ``build_loss`` must run a fresh forward pass each call and return the
    scalar loss tensor; the listed tensors are the leaves to perturb.
    """
    from segstack.tensor import backward

    loss = build_loss()
    backward(loss)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "tensor missing grad after backward"
        size = t.data.size
        n = min(n_coords, size)
        coords = rng.choice(size, size=n, replace=False)
        numeric = numeric_gradient(build_loss, t, coords, eps=eps)
        analytic = t.grad.reshape(-1)[coords]
        worst = max(worst, max_rel_error(analytic, numeric))
    return worst


def stitch_direct(windows, maps, height: int, width: int) -> np.ndarray:
    """Per-pixel sum / count accumulation over covering windows."""
    k = maps[0].shape[0]
    acc = np.zeros((k, height, width), dtype=np.float64)
    cnt = np.zeros((height, width), dtype=np.float64)
    for (top, left, wh, ww), m in zip(
            [(w.top, w.left, w.height, w.width) for w in windows], maps):
        acc[:, top:top + wh, left:left + ww] += m
        cnt[top:top + wh, left:left + ww] += 1.0
    return acc / cnt[None]


def erode_direct(gt: np.ndarray, radius: int, ignore: int = 255) -> np.ndarray:
    """Brute-force distance-transform erosion: a pixel is ignored iff some
    pixel of a *different class* (sentinel excluded) lies within Euclidean
    distance ``radius``."""
    h, w = gt.shape
    out = gt.copy()
    offs = [(dy, dx)
            for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)
            if dy * dy + dx * dx <= radius * radius]
    for y in range(h):
        for x in range(w):
            a = gt[y, x]
            if a == ignore:
                continue
            for dy, dx in offs:
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < w:
                    b = gt[yy, xx]
                    if b != ignore and b != a:
                        out[y, x] = ignore
                        break
    return out


def f1_direct(cm: np.ndarray) -> dict:
    """Direct evaluation of per-class precision/recall/F1 plus accuracy."""
    k = cm.shape[0]
    res = {"precision": [], "recall": [], "f1": []}
    for i in range(k):
        tp = float(cm[i, i])
        c_i = float(cm[i, :].sum())
        p_i = float(cm[:, i].sum())
        recall = tp / c_i if c_i > 0 else float("nan")
        precision = tp / p_i if p_i > 0 else (float("nan") if c_i == 0 else 0.0)
        if c_i == 0:
            f1 = float("nan")
        elif tp == 0:
            f1 = 0.0
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        res["precision"].append(precision)
        res["recall"].append(recall)
        res["f1"].append(f1)
    total = float(cm.sum())
    res["accuracy"] = float(np.trace(cm)) / total if total > 0 else float("nan")
    return res


def read_p6(path) -> np.ndarray:
    """(h, w, 3) uint8 pixels of a binary PPM whose header is exactly
    ``P6\\n<w> <h>\\n255\\n``, the form ``datapipe.write_ppm`` writes."""
    with open(path, "rb") as fh:
        magic, size, maxval = (fh.readline() for _ in range(3))
        pixels = fh.read()
    assert (magic, maxval) == (b"P6\n", b"255\n"), (magic, maxval)
    w, h = map(int, size.split())
    return np.frombuffer(pixels, np.uint8).reshape(h, w, 3)
