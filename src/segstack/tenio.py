"""Binary tensor files and checkpoint bundles.

A ``.ten`` file is: magic ``TEN1``, u32 little-endian rank, rank u32
extents, one u8 dtype code (0 = float32, 1 = float64), then the raw
little-endian row-major payload. A read checks the payload size against
the file, then allocates the array once and reads the payload into it.
Round trips are bit-exact.

A checkpoint bundle is a directory holding one ``.ten`` payload per
parameter plus an ``index.txt`` mapping stable parameter names (such as
``enc.b1.c0.weight``) to file, shape, and learning-rate group.
"""

import math
import os
import struct

import numpy as np

from .errors import CheckpointError, FormatError

MAGIC = b"TEN1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

INDEX_NAME = "index.txt"


def write_ten(path, array) -> None:
    arr = np.asarray(array)
    if arr.dtype not in _CODE_FOR_KIND:
        raise FormatError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    code = _CODE_FOR_KIND[arr.dtype]
    le = arr.astype(_DTYPE_CODES[code], copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<{arr.ndim + 1}IB", arr.ndim,
                                     *arr.shape, code))
        fh.write(np.ascontiguousarray(le).data)


def _read(fh, count: int, what: str) -> bytes:
    if len(raw := fh.read(count)) != count:
        raise FormatError(f"truncated tensor file: {what} missing")
    return raw


def read_ten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = _read(fh, 4, "magic")
        if head != MAGIC:
            raise FormatError(f"bad magic {head!r}, expected {MAGIC!r}")
        rank = struct.unpack("<I", _read(fh, 4, "rank"))[0]
        if rank > 32:
            raise FormatError(f"implausible rank {rank}")
        shape = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, "extents"))
        code = _read(fh, 1, "dtype code")[0]
        if code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {code}")
        dtype = _DTYPE_CODES[code]
        need = math.prod(shape) * dtype.itemsize  # exact, even past int64
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < need:
            raise FormatError("truncated tensor file: payload missing")
        if left > need:
            raise FormatError(f"{left - need} trailing bytes after payload")
        try:  # native order: a big-endian host swaps the bytes below
            out = np.empty(shape, dtype.newbyteorder("="))
        except ValueError:  # an empty shape such as (0, 2**32-1, 2**32-1)
            raise FormatError(f"extents {shape} are too large") from None
        if need and fh.readinto(out) != need:  # the file shrank meanwhile
            raise FormatError("truncated tensor file: payload missing")
    return out if out.dtype == dtype else out.byteswap(inplace=True)


def _shape_token(shape) -> str:
    return "x".join(str(int(e)) for e in shape) if shape else "scalar"


def _parse_shape(token: str):
    if token == "scalar":
        return ()
    try:
        return tuple(int(p) for p in token.split("x"))
    except ValueError:
        raise CheckpointError(f"bad shape token {token!r}") from None


def save_bundle(dirpath, entries) -> None:
    """entries: iterable of (name, array, group). Order is preserved in
    the index so replays see parameters in a stable sequence."""
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for name, array, group in entries:
        arr = np.asarray(array)
        fname = name + ".ten"
        write_ten(os.path.join(dirpath, fname), arr)
        lines.append(f"{name}\t{fname}\t{_shape_token(arr.shape)}\t{group}\n")
    with open(os.path.join(dirpath, INDEX_NAME), "w") as fh:
        fh.writelines(lines)


def load_bundle(dirpath) -> "dict[str, np.ndarray]":
    index_path = os.path.join(dirpath, INDEX_NAME)
    if not os.path.exists(index_path):
        raise CheckpointError(f"no {INDEX_NAME} in {dirpath}")
    try:
        with open(index_path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{index_path}: not UTF-8: {exc}") from None
    out: "dict[str, np.ndarray]" = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CheckpointError(
                f"{INDEX_NAME}:{lineno}: expected 4 tab-separated fields")
        name, fname, shape_tok, _ = parts
        if name in out:
            raise CheckpointError(f"duplicate parameter name {name!r}")
        if fname in ("", ".", "..") or os.path.basename(fname) != fname:
            raise CheckpointError(f"{INDEX_NAME}:{lineno}: payload "
                                  f"{fname!r} is not a file name in the "
                                  "bundle directory")
        try:
            arr = read_ten(os.path.join(dirpath, fname))
        except FileNotFoundError:
            raise CheckpointError(f"missing payload {fname} for {name}") from None
        expect = _parse_shape(shape_tok)
        if arr.shape != expect:
            raise CheckpointError(
                f"{name}: index says shape {expect}, payload has {arr.shape}")
        out[name] = arr
    return out
