import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segstack import IGNORE_LABEL
from segstack.datapipe import (PALETTE, Raster, TileGeometry, Window,
                               build_composite, colorize_labels, ndvi,
                               plan_tiles, read_pgm, stitch_average,
                               synth_dataset, write_pgm, write_ppm)
from segstack.errors import (ConfigError, DataError, FormatError, ShapeError,
                             TilingError)


class TestNdvi:
    def test_equal_bands_give_zero(self):
        band = np.full((4, 4), 0.3)
        np.testing.assert_array_equal(ndvi(band, band), np.zeros((4, 4)))

    def test_pure_ir(self):
        assert ndvi(np.ones((1, 1)), np.zeros((1, 1)))[0, 0] == 1.0

    def test_direct_value(self):
        out = ndvi(np.full((1, 1), 0.6), np.full((1, 1), 0.2))
        assert out[0, 0] == pytest.approx(0.5)

    def test_zero_denominator_defined_as_zero(self):
        ir = np.array([[0.0, 0.5]])
        r = np.array([[0.0, 0.5]])
        out = ndvi(ir, r)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((5, 5))
        b = rng.random((5, 5))
        np.testing.assert_allclose(ndvi(a, b), -ndvi(b, a), atol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(2)
        out = ndvi(rng.random((32, 32)), rng.random((32, 32)))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ndvi(np.zeros((2, 2)), np.zeros((3, 3)))


class TestComposite:
    def test_bands_normalized_to_unit_range(self):
        rng = np.random.default_rng(3)
        out = build_composite(rng.random((8, 8)) * 100 - 50,
                              rng.random((8, 8)) * 7,
                              rng.random((8, 8)) * 2 - 1)
        assert out.band_names == ("dsm", "ndsm", "ndvi")
        for b in range(3):
            assert out.data[b].min() == 0.0
            assert out.data[b].max() == pytest.approx(1.0)

    def test_constant_band_maps_to_zero(self):
        rng = np.random.default_rng(4)
        out = build_composite(np.full((4, 4), 7.5), rng.random((4, 4)),
                              rng.random((4, 4)))
        np.testing.assert_array_equal(out.data[0], np.zeros((4, 4)))

    def test_nodata_excluded_from_range(self):
        dsm = np.array([[0.0, 10.0], [20.0, np.nan]])
        rest = np.zeros((2, 2)) + np.array([[0, 1], [0, 1]])
        out = build_composite(dsm, rest, rest)
        assert out.data[0, 1, 0] == 1.0  # 20 is the max among valid pixels
        assert out.data[0, 1, 1] == 0.0  # the nodata pixel itself

    def test_all_nodata_band_rejected(self):
        with pytest.raises(DataError, match="ndsm"):
            build_composite(np.ones((2, 2)), np.full((2, 2), np.nan),
                            np.ones((2, 2)))


class TestPlanTiles:
    def test_exact_grid_no_overlap(self):
        wins = plan_tiles(256, 256, TileGeometry(128, 128))
        assert len(wins) == 4
        assert wins[0] == Window(0, 0, 128, 128)
        assert wins[-1] == Window(128, 128, 128, 128)

    def test_half_overlap_grid(self):
        wins = plan_tiles(256, 256, TileGeometry(128, 64))
        assert len(wins) == 9  # 3x3

    def test_last_window_clamped(self):
        wins = plan_tiles(200, 128, TileGeometry(128, 128))
        tops = sorted({w.top for w in wins})
        assert tops == [0, 72]

    def test_full_scene_coverage_stride_32(self):
        # full-size scene extents with the densest stride
        h, w = 2493, 2063
        cnt = np.zeros((h, w), dtype=np.int32)
        for win in plan_tiles(h, w, TileGeometry(128, 32)):
            cnt[win.top:win.top + win.height, win.left:win.left + win.width] += 1
        assert (cnt >= 1).all()

    @given(st.integers(128, 500), st.integers(128, 500),
           st.sampled_from([128, 64, 32]))
    @settings(max_examples=30, deadline=None)
    def test_coverage_property(self, h, w, stride):
        cnt = np.zeros((h, w), dtype=np.int32)
        for win in plan_tiles(h, w, TileGeometry(128, stride)):
            cnt[win.top:win.top + win.height, win.left:win.left + win.width] += 1
        assert (cnt >= 1).all()

    def test_small_raster_rejected(self):
        with pytest.raises(TilingError, match="smaller"):
            plan_tiles(100, 300, TileGeometry(128, 64))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError, match="stride"):
            TileGeometry(128, 256)
        with pytest.raises(ConfigError, match="positive"):
            TileGeometry(0, 0)


class TestStitch:
    def test_pure_placement_when_stride_equals_patch(self):
        rng = np.random.default_rng(5)
        wins = plan_tiles(8, 8, TileGeometry(4, 4))
        maps = [rng.random((2, 4, 4)) for _ in wins]
        out = stitch_average(wins, maps, 8, 8)
        np.testing.assert_array_equal(out[:, :4, :4], maps[0])
        np.testing.assert_array_equal(out[:, 4:, 4:], maps[3])

    def test_identical_overlapping_maps_reproduce_input(self):
        rng = np.random.default_rng(6)
        m = rng.random((3, 4, 4))
        wins = [Window(0, 0, 4, 4), Window(0, 0, 4, 4)]
        out = stitch_average(wins, [m, m], 4, 4)
        np.testing.assert_array_equal(out, m)

    @pytest.mark.parametrize("stride", [128, 64, 32])
    def test_matches_oracle_on_table_strides(self, stride):
        rng = np.random.default_rng(stride)
        wins = plan_tiles(256, 256, TileGeometry(128, stride))
        maps = [rng.random((3, 128, 128)) for _ in wins]
        out = stitch_average(wins, maps, 256, 256)
        expect = oracles.stitch_direct(wins, maps, 256, 256)
        np.testing.assert_allclose(out, expect, rtol=1e-6)

    def test_constant_maps_exact(self):
        wins = plan_tiles(100, 130, TileGeometry(64, 40))
        maps = [np.full((2, 64, 64), 0.37) for _ in wins]
        out = stitch_average(wins, maps, 100, 130)
        np.testing.assert_array_equal(out, np.full((2, 100, 130), 0.37))

    def test_probability_sums_survive(self):
        rng = np.random.default_rng(7)
        wins = plan_tiles(64, 64, TileGeometry(32, 16))
        maps = []
        for _ in wins:
            z = rng.random((4, 32, 32))
            maps.append(z / z.sum(axis=0, keepdims=True))
        out = stitch_average(wins, maps, 64, 64)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)

    def test_out_of_bounds_window(self):
        with pytest.raises(TilingError, match="outside"):
            stitch_average([Window(60, 0, 8, 8)], [np.ones((1, 8, 8))], 64, 64)

    def test_map_window_shape_mismatch(self):
        with pytest.raises(ShapeError, match="fit"):
            stitch_average([Window(0, 0, 8, 8)], [np.ones((1, 4, 4))], 8, 8)

    def test_generator_of_maps_gives_list_bits(self):
        rng = np.random.default_rng(8)
        wins = plan_tiles(64, 96, TileGeometry(32, 16))
        maps = [rng.random((3, 32, 32), dtype=np.float32) for _ in wins]
        np.testing.assert_array_equal(
            stitch_average(wins, (m for m in maps), 64, 96),
            stitch_average(wins, maps, 64, 96))

    @pytest.mark.parametrize("n_maps", [0, 3, 5, 9])
    def test_map_count_mismatch_names_both_counts(self, n_maps):
        wins = plan_tiles(8, 8, TileGeometry(4, 4))
        maps = (np.ones((1, 4, 4)) for _ in range(n_maps))
        with pytest.raises(ShapeError, match=f"4 windows but {n_maps} maps"):
            stitch_average(wins, maps, 8, 8)


class TestSynth:
    def test_same_seed_bit_identical(self):
        a = synth_dataset(11, 3, 64)
        b = synth_dataset(11, 3, 64)
        for (ia, ca, la), (ib, cb, lb) in zip(a, b):
            np.testing.assert_array_equal(ia.data, ib.data)
            np.testing.assert_array_equal(ca.data, cb.data)
            np.testing.assert_array_equal(la, lb)

    def test_different_seed_differs(self):
        a = synth_dataset(1, 1, 64)[0][2]
        b = synth_dataset(2, 1, 64)[0][2]
        assert not np.array_equal(a, b)

    def test_all_classes_present(self):
        tiles = synth_dataset(3, 10, 64)
        seen = np.zeros(5, dtype=bool)
        for _, _, labels in tiles:
            seen |= np.isin(np.arange(5), labels)
        assert seen.all()

    def test_height_band_high_on_buildings(self):
        for _, comp, labels in synth_dataset(5, 6, 64):
            building = labels == 1
            if building.any():
                assert comp.data[0][building].mean() > comp.data[0].mean()

    def test_shapes_and_dtypes(self):
        irrg, comp, labels = synth_dataset(9, 1, 96)[0]
        assert irrg.data.shape == (3, 96, 96)
        assert comp.data.shape == (3, 96, 96)
        assert labels.shape == (96, 96)
        assert labels.dtype == np.uint8
        assert irrg.data.dtype == np.float32
        assert labels.max() < 5

    def test_unsupported_k(self):
        with pytest.raises(DataError, match="5 classes"):
            synth_dataset(0, 1, 64, k=3)

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            synth_dataset(-1, 1, 64)


class TestColor:
    def test_palette_assignment(self):
        labels = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        rgb = colorize_labels(labels)
        np.testing.assert_array_equal(rgb[0, 0], (255, 255, 255))  # roads
        np.testing.assert_array_equal(rgb[0, 1], (0, 0, 255))      # buildings
        np.testing.assert_array_equal(rgb[1, 0], (0, 255, 255))    # low veg
        np.testing.assert_array_equal(rgb[1, 1], (0, 255, 0))      # trees
        np.testing.assert_array_equal(colorize_labels(
            np.array([[4]], dtype=np.uint8))[0, 0], (255, 255, 0))  # cars

    def test_sentinel_renders_black(self):
        rgb = colorize_labels(np.array([[IGNORE_LABEL]], dtype=np.uint8))
        np.testing.assert_array_equal(rgb[0, 0], (0, 0, 0))

    def test_unknown_label_rejected(self):
        with pytest.raises(ShapeError, match="palette"):
            colorize_labels(np.array([[7]], dtype=np.uint8))


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(11, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(oracles.read_p6(tmp_path / "a.ppm"),
                                      img)

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "a.pgm"), img)

    def test_comment_in_header(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + img.tobytes())
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P2\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 3)
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("extents", [b"-2 -3", b"0 4", b"3 -1"])
    def test_non_positive_extents(self, tmp_path, extents):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n" + extents + b"\n255\n" + bytes(6))
        with pytest.raises(FormatError, match="must be positive"):
            read_pgm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)

    def test_wrong_dtype_rejected_on_write(self, tmp_path):
        with pytest.raises(FormatError, match="uint8"):
            write_ppm(tmp_path / "w.ppm", np.zeros((2, 2, 3)))
        with pytest.raises(FormatError, match=r"PGM wants \(h,w\) uint8"):
            write_pgm(tmp_path / "w.pgm", np.zeros((2, 2)))


def test_raster_validation():
    with pytest.raises(ShapeError, match="bands"):
        Raster(np.zeros((4, 4)))
    with pytest.raises(ShapeError, match="band names"):
        Raster(np.zeros((2, 4, 4)), band_names=("a",))
    with pytest.raises(ShapeError, match=r"ndvi band shape \(3, 3\) does not "
                                         r"match dsm \(2, 2\)"):
        build_composite(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3)))
    r = Raster(np.zeros((3, 5, 7)), band_names=("ir", "r", "g"))
    assert r.data.shape == (3, 5, 7)
