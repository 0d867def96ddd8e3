"""Raster plumbing: composite-channel construction, sliding-window tile
plans, overlap-averaged stitching, the synthetic desk-scale dataset, and
binary netpbm IO (PPM and PGM out, PGM in) with the 5-class color legend.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, FormatError, ShapeError,
                     TilingError)
from .nnops import IGNORE_LABEL, seeded_rng

#: class id -> (name, display color). 0 roads (white), 1 buildings (blue),
#: 2 low vegetation (cyan), 3 trees (green), 4 cars (yellow).
CLASS_NAMES = ("roads", "buildings", "low_veg", "trees", "cars")
PALETTE = np.array([
    (255, 255, 255),
    (0, 0, 255),
    (0, 255, 255),
    (0, 255, 0),
    (255, 255, 0),
], dtype=np.uint8)
SENTINEL_COLOR = np.array((0, 0, 0), dtype=np.uint8)


@dataclass
class Raster:
    """Multi-band image, data laid out (bands, height, width)."""

    data: np.ndarray
    band_names: "tuple[str, ...]" = ()

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ShapeError(f"raster data must be (bands, h, w), got "
                             f"{self.data.shape}")
        if self.band_names and len(self.band_names) != self.data.shape[0]:
            raise ShapeError(f"{len(self.band_names)} band names for "
                             f"{self.data.shape[0]} bands")


def check_bands(bands: np.ndarray, what: str) -> np.ndarray:
    """``bands`` if finite and (bands, height, width); errors name ``what``."""
    if bands.ndim != 3:
        raise ShapeError(f"{what} must be (bands, height, width), got shape "
                         f"{bands.shape}")
    if not np.isfinite(bands).all():
        i, r, c = np.argwhere(~np.isfinite(bands))[0]
        raise DataError(f"{what} has a non-finite value {bands[i, r, c]} at "
                        f"band {i}, row {r}, column {c}")
    return bands


def ndvi(ir: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(IR - R)/(IR + R), defined as 0 where IR + R = 0."""
    ir = np.asarray(ir, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if ir.shape != r.shape:
        raise ShapeError(f"band shapes differ: {ir.shape} vs {r.shape}")
    den = ir + r
    out = np.zeros_like(den)
    np.divide(ir - r, den, out=out, where=den != 0)
    return out


def _minmax01(band: np.ndarray, valid: np.ndarray) -> np.ndarray:
    lo = band[valid].min()
    hi = band[valid].max()
    out = np.zeros(band.shape, dtype=np.float64)
    if hi > lo:
        np.subtract(band, lo, out=out, where=valid)
        out /= (hi - lo)
    return out


def build_composite(dsm: np.ndarray, ndsm: np.ndarray,
                    ndvi_band: np.ndarray) -> Raster:
    """3-band (dsm, ndsm, ndvi) raster, each band min-max scaled to [0,1]
    over its finite pixels; a constant band maps to all zeros. Mark
    nodata pixels NaN: they take no part in the range, and come out 0."""
    bands = []
    for name, band in (("dsm", dsm), ("ndsm", ndsm), ("ndvi", ndvi_band)):
        band = np.asarray(band, dtype=np.float64)
        if band.shape != np.asarray(dsm).shape:
            raise ShapeError(f"{name} band shape {band.shape} does not match "
                             f"dsm {np.asarray(dsm).shape}")
        valid = np.isfinite(band)
        if not valid.any():
            raise DataError(f"{name} band has no valid pixels to normalize")
        bands.append(_minmax01(band, valid))
    return Raster(np.stack(bands).astype(np.float32),
                  band_names=("dsm", "ndsm", "ndvi"))


# ---------------------------------------------------------------------------
# Tiling


@dataclass(frozen=True)
class Window:
    top: int
    left: int
    height: int
    width: int


@dataclass(frozen=True)
class TileGeometry:
    patch: int
    stride: int

    def __post_init__(self):
        if self.patch < 1:
            raise ConfigError(f"patch extent must be positive, got {self.patch}")
        if not 1 <= self.stride <= self.patch:
            raise ConfigError(f"stride must be in [1, patch={self.patch}], "
                              f"got {self.stride}")


def _starts(extent: int, patch: int, stride: int) -> "list[int]":
    out = list(range(0, extent - patch + 1, stride))
    if out[-1] != extent - patch:
        out.append(extent - patch)  # clamp the last window to the edge
    return out


def plan_tiles(h: int, w: int, geom: TileGeometry) -> "list[Window]":
    """Row-major sliding-window cover; the last row/column of windows is
    clamped to the image edge so every pixel is covered at least once."""
    if h < geom.patch or w < geom.patch:
        raise TilingError(f"raster {h}x{w} is smaller than the {geom.patch}px patch")
    return [Window(t, l, geom.patch, geom.patch)
            for t in _starts(h, geom.patch, geom.stride)
            for l in _starts(w, geom.patch, geom.stride)]


def stitch_average(windows, maps, h: int, w: int) -> np.ndarray:
    """Per-pixel arithmetic mean of all covering per-window maps.

    ``maps`` is any iterable of maps, one per window in plan order; each
    is added to the sum as it arrives and not read again, so a generator
    that computes (or overwrites) each map on demand holds one map at a
    time. Accumulates sum and count in float64, so stitching constant
    maps is exact and channel sums survive to within float noise.
    """
    maps = iter(maps)
    acc = None
    cnt = np.zeros((h, w), dtype=np.int64)
    for i, win in enumerate(windows):
        m = next(maps, None)
        if m is None:
            raise ShapeError(f"{len(windows)} windows but {i} maps")
        m = np.asarray(m)
        if acc is None:
            acc = np.zeros((m.shape[0], h, w), dtype=np.float64)
        if m.shape != (acc.shape[0], win.height, win.width):
            raise ShapeError(f"map shape {m.shape} does not fit window "
                             f"{(acc.shape[0], win.height, win.width)}")
        if win.top < 0 or win.left < 0 or win.top + win.height > h \
                or win.left + win.width > w:
            raise TilingError(f"window {win} falls outside the {h}x{w} raster")
        acc[:, win.top:win.top + win.height,
            win.left:win.left + win.width] += m
        cnt[win.top:win.top + win.height,
            win.left:win.left + win.width] += 1
    extra = sum(1 for _ in maps)
    if extra:
        raise ShapeError(f"{len(windows)} windows but "
                         f"{len(windows) + extra} maps")
    return np.divide(acc, cnt, out=acc)


# ---------------------------------------------------------------------------
# Synthetic dataset


def _paint_rect(rng, labels, cls, lo, hi):
    h, w = labels.shape
    rh = int(rng.integers(lo, hi))
    rw = int(rng.integers(lo, hi))
    top = int(rng.integers(0, h - rh))
    left = int(rng.integers(0, w - rw))
    labels[top:top + rh, left:left + rw] = cls


def _paint_blob(rng, labels, cls, rlo, rhi):
    h, w = labels.shape
    r = int(rng.integers(rlo, rhi))
    cy = int(rng.integers(r, h - r))
    cx = int(rng.integers(r, w - r))
    yy, xx = np.ogrid[:h, :w]
    labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls


def _synth_tile(rng, size: int):
    labels = np.full((size, size), 2, dtype=np.uint8)  # low vegetation base

    # roads: one horizontal and one vertical ribbon
    road_rows = []
    for horizontal in (True, False):
        width = int(rng.integers(4, 7))
        pos = int(rng.integers(4, size - width - 4))
        if horizontal:
            labels[pos:pos + width, :] = 0
            road_rows.append((pos, width))
        else:
            labels[:, pos:pos + width] = 0

    # buildings: 2 rectangles; trees: 3 blobs
    for _ in range(2):
        _paint_rect(rng, labels, 1, size // 6, size // 3)
    for _ in range(3):
        _paint_blob(rng, labels, 3, 3, max(4, size // 10))

    # cars: small rectangles on the horizontal road
    pos, width = road_rows[0]
    for _ in range(2):
        ch = min(3, width)
        cw = int(rng.integers(3, 6))
        top = pos + int(rng.integers(0, max(1, width - ch)))
        left = int(rng.integers(0, size - cw))
        labels[top:top + ch, left:left + cw] = 4

    # IRRG-like appearance per class: (IR, R, G) base levels
    levels = np.array([
        (0.45, 0.45, 0.45),   # roads: neutral gray
        (0.30, 0.65, 0.30),   # buildings: red-dominant roofs
        (0.75, 0.30, 0.55),   # low vegetation: high IR
        (0.90, 0.20, 0.45),   # trees: highest IR, dark red
        (0.60, 0.70, 0.80),   # cars: bright
    ])
    irrg = levels[labels].transpose(2, 0, 1).copy()
    irrg += rng.normal(0.0, 0.04, size=irrg.shape)

    # height correlates with buildings and trees, vegetation index with
    # the two vegetation classes
    dsm_levels = np.array([0.10, 0.80, 0.15, 0.65, 0.20])
    ndvi_levels = np.array([0.05, 0.10, 0.80, 0.90, 0.10])
    dsm = dsm_levels[labels] + rng.normal(0.0, 0.03, size=labels.shape)
    ndsm = dsm - 0.08 + rng.normal(0.0, 0.02, size=labels.shape)
    nd = ndvi_levels[labels] + rng.normal(0.0, 0.03, size=labels.shape)
    composite = np.stack([dsm, ndsm, nd])

    return (Raster(np.clip(irrg, 0, 1).astype(np.float32),
                   band_names=("ir", "r", "g")),
            Raster(np.clip(composite, 0, 1).astype(np.float32),
                   band_names=("dsm", "ndsm", "ndvi")),
            labels)


def synth_dataset(seed: int, n_tiles: int, size: int, k: int = 5):
    """Deterministic list of (irrg, composite, labels) triples.

    Every tile contains all five classes by construction: a low-vegetation
    background, two roads, two buildings, three tree blobs, and two cars
    sitting on the horizontal road (later paint wins where shapes overlap,
    so a building can occasionally cover a road or a tree a car; class
    presence is guaranteed across any handful of tiles, not per tile).
    """
    if k != 5:
        raise DataError(f"the synthetic generator draws exactly 5 classes, got k={k}")
    if size < 32:
        raise ConfigError(f"tile size must be >= 32, got {size}")
    if n_tiles < 1:
        raise ConfigError(f"tile count must be positive, got {n_tiles}")
    rng = seeded_rng(seed)
    return [_synth_tile(rng, size) for _ in range(n_tiles)]


# ---------------------------------------------------------------------------
# PPM / PGM IO and the class palette


def colorize_labels(labels: np.ndarray) -> np.ndarray:
    """(h,w) class ids -> (h,w,3) uint8 in ``PALETTE``; the ignore
    sentinel renders black."""
    labels = np.asarray(labels)
    bad = (labels >= len(PALETTE)) & (labels != IGNORE_LABEL)
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise ShapeError(f"label {int(labels[y, x])} has no palette entry "
                         f"at pixel (y={y}, x={x})")
    safe = np.where(labels == IGNORE_LABEL, 0, labels)
    out = PALETTE[safe]
    out[labels == IGNORE_LABEL] = SENTINEL_COLOR
    return out


def _write_netpbm(path, magic: bytes, payload: np.ndarray, w: int, h: int):
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        fh.write(payload.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise FormatError(f"PPM wants (h,w,3) uint8, got {rgb.shape} {rgb.dtype}")
    _write_netpbm(path, b"P6", rgb, rgb.shape[1], rgb.shape[0])


def write_pgm(path, gray: np.ndarray) -> None:
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise FormatError(f"PGM wants (h,w) uint8, got {gray.shape} {gray.dtype}")
    _write_netpbm(path, b"P5", gray, gray.shape[1], gray.shape[0])


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise FormatError(f"bad magic {buf[:2]!r}, expected b'P5'")
    # header tokens may be separated by any whitespace; '#' starts a comment
    pos, tokens = 2, []
    while len(tokens) < 3:
        if pos >= len(buf):
            raise FormatError("truncated header")
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(buf) and not buf[pos:pos + 1].isspace():
                pos += 1
            tokens.append(buf[start:pos])
    pos += 1  # exactly one whitespace byte after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"non-numeric header tokens {tokens}") from None
    if w < 1 or h < 1:
        raise FormatError(f"image extents must be positive, got {w}x{h}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    need = w * h
    if len(buf) - pos < need:
        raise FormatError(f"truncated pixel data: {len(buf) - pos} of {need} bytes")
    return np.frombuffer(buf, dtype=np.uint8, count=need,
                         offset=pos).reshape(h, w).copy()
