"""Evaluation: boundary-eroded ground truth, confusion-matrix
accumulation, per-class precision/recall/F1 and overall pixel accuracy,
plus the text report.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .nnops import IGNORE_LABEL


def _disk_offsets(radius: int):
    """Offsets (dy,dx) with dy^2+dx^2 <= r^2, excluding the center."""
    out = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if (dy or dx) and dy * dy + dx * dx <= radius * radius:
                out.append((dy, dx))
    return out


def check_radius(radius: int) -> None:
    """ConfigError unless ``radius`` is a boundary erosion radius."""
    if radius < 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")


def erode_boundaries(gt: np.ndarray, radius: int) -> np.ndarray:
    """Mark every pixel within Euclidean distance <= radius, which the
    caller sets, of a pixel of a DIFFERENT class as the ignore sentinel.

    Sentinel pixels are absence-of-label: they neither erode neighbors
    nor get un-ignored, which makes the operation idempotent.
    """
    gt = np.asarray(gt)
    if gt.ndim != 2:
        raise ShapeError(f"label raster must be 2-D, got shape {gt.shape}")
    check_radius(radius)
    if radius == 0:
        return gt.copy()
    h, w = gt.shape
    pad = np.full((h + 2 * radius, w + 2 * radius), IGNORE_LABEL, dtype=gt.dtype)
    pad[radius:radius + h, radius:radius + w] = gt
    differs = np.zeros((h, w), dtype=bool)
    for dy, dx in _disk_offsets(radius):
        neigh = pad[radius + dy:radius + dy + h, radius + dx:radius + dx + w]
        differs |= (neigh != gt) & (neigh != IGNORE_LABEL)
    differs &= gt != IGNORE_LABEL
    out = gt.copy()
    out[differs] = IGNORE_LABEL
    return out


@dataclass
class ConfusionMatrix:
    """counts[true][pred] over evaluated (non-sentinel) pixels."""

    k: int
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"need at least 1 class, got {self.k}")
        if self.counts is None:
            self.counts = np.zeros((self.k, self.k), dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.k, self.k):
            raise ShapeError(f"counts shape {self.counts.shape} != "
                             f"({self.k}, {self.k})")

    def accumulate(self, pred: np.ndarray, gt: np.ndarray) -> "ConfusionMatrix":
        pred, gt = np.asarray(pred), np.asarray(gt)
        if pred.shape != gt.shape:
            raise ShapeError(f"pred shape {pred.shape} != gt shape {gt.shape}")
        valid = gt != IGNORE_LABEL
        for name, arr in (("pred", pred), ("gt", gt)):
            bad = (arr >= self.k) & (arr != IGNORE_LABEL) & valid
            if bad.any():
                coords = np.argwhere(bad)[0]
                raise ShapeError(
                    f"invalid {name} label {int(arr[tuple(coords)])} >= "
                    f"{self.k} at {tuple(int(c) for c in coords)}")
        if valid.any() and (pred[valid] == IGNORE_LABEL).any():
            raise ShapeError("prediction contains the ignore sentinel")
        flat = gt[valid].astype(np.int64) * self.k + pred[valid].astype(np.int64)
        self.counts += np.bincount(flat, minlength=self.k * self.k) \
            .reshape(self.k, self.k)
        return self


@dataclass
class Scores:
    precision: np.ndarray  # NaN where no prediction of the class exists
    recall: np.ndarray     # NaN where the class is absent from the GT
    f1: np.ndarray         # NaN where the class is absent from the GT
    accuracy: float
    support: np.ndarray    # C_i, ground-truth pixels per class

    @property
    def macro_f1(self) -> float:
        present = ~np.isnan(self.f1)
        return float(self.f1[present].mean()) if present.any() else float("nan")


def f1_scores(cm: ConfusionMatrix) -> Scores:
    """Per-class F1 = 2PR/(P+R) with tp=0 scoring 0 and absent classes
    (C_i = 0) reported NaN and excluded from the macro average."""
    c = cm.counts.astype(np.float64)
    tp = np.diag(c)
    support = c.sum(axis=1)
    predicted = c.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(support > 0, tp / support, np.nan)
        precision = np.where(predicted > 0, tp / predicted, np.nan)
    f1 = np.full(cm.k, np.nan)
    for i in range(cm.k):
        if support[i] == 0:
            continue
        if tp[i] == 0:
            f1[i] = 0.0
        else:
            p, r = precision[i], recall[i]
            f1[i] = 2 * p * r / (p + r)
    total = c.sum()
    accuracy = float(tp.sum() / total) if total else float("nan")
    return Scores(precision, recall, f1, accuracy, support.astype(np.int64))


def format_report(scores: Scores, class_names=None) -> str:
    """One header row of class names and Accuracy, one row of values
    (per-class F1, then overall accuracy), then key=value lines."""
    k = scores.f1.shape[0]
    if class_names is None:
        class_names = [f"class_{i}" for i in range(k)]
    if len(class_names) != k:
        raise ShapeError(f"{len(class_names)} names for {k} classes")

    def cell(v):
        return "  n/a" if np.isnan(v) else f"{100 * v:5.1f}"

    width = max(9, *(len(n) for n in class_names))
    header = "".join(f"{n:>{width + 2}}" for n in [*class_names, "Accuracy"])
    values = "".join(f"{cell(v):>{width + 2}}"
                     for v in [*scores.f1, scores.accuracy])
    lines = [header, values, ""]
    if scores.support.sum() == 0:
        lines.append("warning=no evaluated pixels")
    for i, name in enumerate(class_names):
        lines.append(f"f1_{name}={scores.f1[i]:.6f}")
    lines.append(f"accuracy={scores.accuracy:.6f}")
    lines.append(f"macro_f1={scores.macro_f1:.6f}")
    return "\n".join(lines) + "\n"
