import struct

import numpy as np
import pytest

from segstack.errors import CheckpointError, FormatError
from segstack.tenio import load_bundle, read_ten, save_bundle, write_ten


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4), (2, 1, 4, 4)])
def test_round_trip_bit_exact(tmp_path, dtype, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape).astype(dtype)
    path = tmp_path / "a.ten"
    write_ten(path, arr)
    back = read_ten(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_golden_bytes_layout(tmp_path):
    path = tmp_path / "g.ten"
    write_ten(path, np.array([[1.0, 2.0]], dtype=np.float32))
    raw = path.read_bytes()
    expect = (b"TEN1" + struct.pack("<I", 2) + struct.pack("<II", 1, 2)
              + b"\x00" + struct.pack("<ff", 1.0, 2.0))
    assert raw == expect


@pytest.mark.parametrize("dtype,code", [(np.float32, 0), (np.float64, 1)])
@pytest.mark.parametrize("case", ["contiguous", "transposed", "0-d"])
def test_payload_is_the_row_major_bytes(tmp_path, dtype, code, case):
    """The payload is written from the array's buffer, not a bytes copy:
    the file must still be the header plus ``tobytes()``, also for an
    input that is not C-contiguous and for a 0-d array."""
    rng = np.random.default_rng(5)
    arr = {"contiguous": rng.standard_normal((2, 3, 4)),
           "transposed": rng.standard_normal((3, 5)).T,
           "0-d": np.array(-2.5)}[case].astype(dtype, copy=False)
    path = tmp_path / "p.ten"
    write_ten(path, arr)
    header = (b"TEN1" + struct.pack("<I", arr.ndim)
              + struct.pack(f"<{arr.ndim}I", *arr.shape) + bytes([code]))
    assert path.read_bytes() == header + arr.tobytes()


def test_f64_dtype_code(tmp_path):
    path = tmp_path / "d.ten"
    write_ten(path, np.zeros(3, dtype=np.float64))
    raw = path.read_bytes()
    assert raw[4 + 4 + 4] == 1


def test_special_values_survive(tmp_path):
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, np.float32(1e-45)],
                   dtype=np.float32)
    path = tmp_path / "s.ten"
    write_ten(path, arr)
    assert read_ten(path).tobytes() == arr.tobytes()


def test_integer_input_rejected(tmp_path):
    with pytest.raises(FormatError, match="dtype"):
        write_ten(tmp_path / "i.ten", np.arange(4))


@pytest.mark.parametrize("cut", [2, 6, 10, 14])
def test_truncation_detected(tmp_path, cut):
    path = tmp_path / "t.ten"
    write_ten(path, np.ones((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(FormatError, match="truncated"):
        read_ten(path)


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "t.ten"
    write_ten(path, np.ones(2, dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        read_ten(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "b.ten"
    write_ten(path, np.ones(1, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_ten(path)


def test_unknown_dtype_code(tmp_path):
    path = tmp_path / "c.ten"
    write_ten(path, np.ones(1, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[4 + 4 + 4] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype code"):
        read_ten(path)


def test_extent_product_past_int64_is_truncation(tmp_path):
    # 65536**4 = 2**64 wraps to 0 in int64, which would accept an empty
    # payload and then fail to reshape it
    path = tmp_path / "o.ten"
    path.write_bytes(b"TEN1" + struct.pack("<5I", 4, *(65536,) * 4)
                     + bytes([0]))
    with pytest.raises(FormatError, match="truncated"):
        read_ten(path)


def test_empty_array_with_huge_extents(tmp_path):
    # no payload is needed, but numpy cannot index the other extents
    path = tmp_path / "z.ten"
    path.write_bytes(b"TEN1" + struct.pack("<4I", 3, 0, 2 ** 32 - 1,
                                           2 ** 32 - 1) + bytes([0]))
    with pytest.raises(FormatError, match="too large"):
        read_ten(path)


def test_result_is_writable(tmp_path):
    path = tmp_path / "w.ten"
    write_ten(path, np.ones(3, dtype=np.float32))
    back = read_ten(path)
    back[0] = 5.0  # must not raise


class TestBundle:
    def entries(self):
        rng = np.random.default_rng(3)
        return [
            ("enc.b1.c0.weight", rng.standard_normal((4, 3, 3, 3)).astype(np.float32), "encoder"),
            ("enc.b1.c0.bias", np.zeros(4, dtype=np.float32), "encoder"),
            ("enc.b1.c0.bn.gamma", np.ones(4, dtype=np.float32), "encoder"),
            ("head.s3.weight", rng.standard_normal((5, 4, 3, 3)).astype(np.float32), "decoder"),
        ]

    def test_round_trip(self, tmp_path):
        entries = self.entries()
        save_bundle(tmp_path / "ckpt", entries)
        back = load_bundle(tmp_path / "ckpt")
        assert list(back) == [name for name, _, _ in entries]
        for name, arr, _ in entries:
            assert back[name].tobytes() == arr.tobytes()
            assert back[name].shape == arr.shape

    def test_missing_index(self, tmp_path):
        with pytest.raises(CheckpointError, match="index"):
            load_bundle(tmp_path)

    def test_missing_payload(self, tmp_path):
        save_bundle(tmp_path / "c", self.entries())
        (tmp_path / "c" / "head.s3.weight.ten").unlink()
        with pytest.raises(CheckpointError, match="head.s3.weight"):
            load_bundle(tmp_path / "c")

    def test_duplicate_name_rejected(self, tmp_path):
        save_bundle(tmp_path / "c", self.entries())
        index = tmp_path / "c" / "index.txt"
        lines = index.read_text().splitlines(keepends=True)
        index.write_text("".join(lines + lines[:1]))
        with pytest.raises(CheckpointError, match="duplicate"):
            load_bundle(tmp_path / "c")

    @pytest.mark.parametrize("line", [
        "enc.b1.c0.bias\tenc.b1.c0.bias.ten\t4\n",
        "enc.b1.c0.bias\tenc.b1.c0.bias.ten\t4\tencoder\textra\n"],
        ids=["three_fields", "five_fields"])
    def test_wrong_field_count_rejected(self, tmp_path, line):
        save_bundle(tmp_path / "c", self.entries()[:1])
        index = tmp_path / "c" / "index.txt"
        index.write_text(index.read_text() + line)
        with pytest.raises(CheckpointError, match="index.txt:2: expected 4"):
            load_bundle(tmp_path / "c")

    def test_non_integer_shape_token(self, tmp_path):
        save_bundle(tmp_path / "c", self.entries())
        index = tmp_path / "c" / "index.txt"
        index.write_text(index.read_text().replace("4x3x3x3", "4xAx3x3"))
        with pytest.raises(CheckpointError, match="bad shape token"):
            load_bundle(tmp_path / "c")

    def test_non_utf8_index(self, tmp_path):
        save_bundle(tmp_path / "c", self.entries())
        index = tmp_path / "c" / "index.txt"
        index.write_bytes(index.read_bytes() + b"\xff\tx\t4\tg\n")
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_bundle(tmp_path / "c")

    def test_index_shape_mismatch(self, tmp_path):
        save_bundle(tmp_path / "c", self.entries())
        write_ten(tmp_path / "c" / "enc.b1.c0.bias.ten",
                  np.zeros(5, dtype=np.float32))
        with pytest.raises(CheckpointError, match="shape"):
            load_bundle(tmp_path / "c")

    @pytest.mark.parametrize("fname", [
        "../../data/tile-000.irrg.ten", "sub/enc.b1.c0.bias.ten",
        "ABSOLUTE", ".", ".."])
    def test_payload_outside_bundle_rejected(self, tmp_path, fname):
        # every name but "." and ".." points at a loadable payload of the
        # right shape, so only the confinement check rejects it
        bundle = tmp_path / "run" / "checkpoint"
        save_bundle(bundle, self.entries()[1:2])
        bias = np.zeros(4, dtype=np.float32)
        (tmp_path / "data").mkdir()
        write_ten(tmp_path / "data" / "tile-000.irrg.ten", bias)
        (bundle / "sub").mkdir()
        write_ten(bundle / "sub" / "enc.b1.c0.bias.ten", bias)
        if fname == "ABSOLUTE":
            fname = str(tmp_path / "data" / "tile-000.irrg.ten")
        (bundle / "index.txt").write_text(
            f"enc.b1.c0.bias\t{fname}\t4\tencoder\n")
        with pytest.raises(CheckpointError, match="not a file name in the "
                                                  "bundle directory"):
            load_bundle(bundle)
