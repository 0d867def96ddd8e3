"""Every file reader, given arbitrary bytes, either loads or raises a
SegstackError (which the CLI maps to its exit code); no other exception
escapes. Each strategy mixes raw bytes with inputs that get past the
first checks (magic, header layout, JSON syntax), so the deeper branches
see hostile values too."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstack import cli, tenio, training
from segstack.datapipe import read_pgm, read_ppm, write_pgm
from segstack.errors import SegstackError

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_refuses(read, path, data):
    path.write_bytes(data)
    try:
        read(path)
    except SegstackError:
        pass


ten_files = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: tenio.MAGIC + b),
    st.builds(lambda extents, code, payload: (
        tenio.MAGIC + struct.pack("<I", len(extents))
        + struct.pack(f"<{len(extents)}I", *extents) + bytes([code])
        + payload),
        st.lists(st.integers(0, 3) | st.sampled_from([2 ** 16, 2 ** 32 - 1])
                 | st.integers(0, 2 ** 32 - 1), max_size=4),
        st.integers(0, 3), st.binary(max_size=64)))


@FUZZ
@given(ten_files)
def test_read_ten(scratch, data):
    loads_or_refuses(tenio.read_ten, scratch / "x.ten", data)


def netpbm_files(magic):
    token = st.one_of(st.integers(-4, 8).map(str),
                      st.integers(-2 ** 40, 2 ** 40).map(str),
                      st.text(max_size=4)).map(
                          lambda t: t.encode("utf-8", "surrogatepass"))
    header = st.builds(
        lambda w, h, maxval, sep, payload: (
            magic + sep + w + sep + h + sep + maxval + sep + payload),
        token, token, st.sampled_from([b"255", b"0", b"65535", b"x"]),
        st.sampled_from([b" ", b"\n", b"\n# note\n", b""]),
        st.binary(max_size=48))
    return st.one_of(st.binary(max_size=48),
                     st.binary(max_size=48).map(lambda b: magic + b), header)


@FUZZ
@given(netpbm_files(b"P5"))
def test_read_pgm(scratch, data):
    loads_or_refuses(read_pgm, scratch / "x.pgm", data)


@FUZZ
@given(netpbm_files(b"P6"))
def test_read_ppm(scratch, data):
    loads_or_refuses(read_ppm, scratch / "x.ppm", data)


@pytest.fixture(scope="module")
def bundle(scratch):
    """A bundle directory with one valid payload, w.ten, of shape (2, 3)."""
    path = scratch / "bundle"
    tenio.save_bundle(path, [("w", np.zeros((2, 3), np.float32), "g")])
    return path


index_lines = st.lists(st.builds(
    lambda *fields: "\t".join(fields),
    st.text(max_size=6),
    st.sampled_from(["w.ten", "index.txt", "", ".", "..", "../w.ten",
                     "missing.ten"]),
    st.one_of(st.sampled_from(["2x3", "scalar", "3x2", "2x-3", "2xAx3", ""]),
              st.text(max_size=6)),
    st.text(max_size=6)), max_size=4).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@FUZZ
@given(st.one_of(st.binary(max_size=96), index_lines))
def test_load_bundle_index(bundle, data):
    loads_or_refuses(lambda _: tenio.load_bundle(bundle),
                     bundle / tenio.INDEX_NAME, data)


@FUZZ
@given(st.one_of(st.binary(max_size=96),
                 st.text(max_size=48).map(
                     lambda t: t.encode("utf-8", "surrogatepass"))))
def test_read_config_file(scratch, data):
    loads_or_refuses(cli._read_config_file, scratch / "x.cfg", data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
manifests = st.dictionaries(
    st.sampled_from(["k", "scale", "in_channels", "head_scales",
                     "checkpoint", "unfreeze_streams", "hidden"]),
    json_values | st.sampled_from(["checkpoint", "../x", "/abs", "a/../.."]),
    max_size=7).map(lambda d: json.dumps(d).encode())


@FUZZ
@given(st.one_of(st.binary(max_size=96), manifests,
                 st.integers(1, 5000).map(lambda n: b"[" * n)))
def test_read_manifest(scratch, data):
    run = scratch / "run"
    run.mkdir(exist_ok=True)
    loads_or_refuses(
        lambda _: training._read_manifest(
            run, ("k", "scale", "in_channels", "head_scales", "checkpoint")),
        run / training.MANIFEST_NAME, data)


@pytest.fixture(scope="module")
def data_dir(scratch):
    """A data directory with one sample, ``tile``, of zero bands, and a
    sibling directory ``outside`` holding a sample of bands 7."""
    for name, value in (("data", 0), ("outside", 7)):
        (scratch / name).mkdir()
        tenio.write_ten(scratch / name / "tile.irrg.ten",
                        np.full((3, 4, 4), value, np.float32))
        write_pgm(scratch / name / "tile.labels.pgm", np.zeros((4, 4), np.uint8))
    return scratch / "data"


def _stem_list(data_dir):
    outside = str(data_dir.parent / "outside" / "tile")
    stem = st.one_of(st.sampled_from(["tile", "", ".", "..", "../outside/tile",
                                      outside, "./tile", "tile/", "missing",
                                      "ti\0le"]),
                     st.text(max_size=8))
    return st.lists(stem, max_size=4).map(
        lambda stems: "\n".join(stems).encode("utf-8", "surrogatepass"))


def _load_inside(data_dir):
    """``cli._load_dataset``, which must read nothing from outside
    ``data_dir``; a listed sample that does not exist is an OSError, which
    ``cli.main`` also turns into exit 2."""
    def read(_):
        try:
            samples = cli._load_dataset(data_dir, "irrg")
        except FileNotFoundError:
            return
        assert not any(bands.any() for bands, _ in samples)
    return read


@FUZZ
@given(st.data())
def test_read_dataset_index(data_dir, data):
    index = data.draw(st.one_of(st.binary(max_size=64), _stem_list(data_dir)))
    loads_or_refuses(_load_inside(data_dir), data_dir / cli.DATASET_INDEX,
                     index)
