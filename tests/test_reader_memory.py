"""The readers hold one file-sized buffer: ``read_ten`` reads the payload
straight into the array it returns, and ``read_pgm`` returns a view of
the one buffer it reads the file into. A header that claims more than
the file holds is refused before anything is allocated. Each peak is the
traced peak of the read, above what was traced before it started."""

import struct
import tracemalloc

import numpy as np
import pytest

from segstack import tenio
from segstack.datapipe import read_pgm, write_pgm
from segstack.errors import FormatError

SLACK = 64 * 1024


def traced_peak(read, path):
    """Returns what ``read(path)`` returned or raised, and its peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            result = read(path)
        except FormatError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_read_ten_holds_one_payload(tmp_path):
    arr = np.arange(2 * 1024 * 1024, dtype=np.float32).reshape(2, 1024, 1024)
    path = tmp_path / "a.ten"
    tenio.write_ten(path, arr)
    back, peak = traced_peak(tenio.read_ten, path)
    np.testing.assert_array_equal(back, arr)
    assert peak <= arr.nbytes + SLACK, f"peak {peak} for {arr.nbytes} bytes"


def test_read_pgm_holds_one_file(tmp_path):
    img = np.arange(2048 * 2048, dtype=np.uint8).reshape(2048, 2048)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    size = path.stat().st_size
    back, peak = traced_peak(read_pgm, path)
    np.testing.assert_array_equal(back, img)
    assert back.flags.writeable
    assert peak <= size + SLACK, f"peak {peak} for a {size}-byte file"


def test_oversized_claim_refused_before_allocation(tmp_path):
    # the header claims 1 GiB of float32; the file holds 30 bytes
    path = tmp_path / "big.ten"
    path.write_bytes(tenio.MAGIC + struct.pack("<4I", 3, 1024, 1024, 256)
                     + bytes([0]) + bytes(9))
    assert path.stat().st_size == 30
    err, peak = traced_peak(tenio.read_ten, path)
    assert isinstance(err, FormatError)
    assert str(err) == "truncated tensor file: payload missing"
    assert peak < 1024 * 1024
