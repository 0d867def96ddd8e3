import numpy as np
import pytest

import oracles
from segstack import IGNORE_LABEL
from segstack.errors import ShapeError
from segstack.metrics import (ConfusionMatrix, erode_boundaries, f1_scores,
                              format_report)


class TestErode:
    def test_uniform_unchanged(self):
        gt = np.full((16, 16), 3, dtype=np.uint8)
        np.testing.assert_array_equal(erode_boundaries(gt, 3), gt)

    def test_radius_zero_identity(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, 5, size=(10, 10)).astype(np.uint8)
        np.testing.assert_array_equal(erode_boundaries(gt, 0), gt)

    def test_vertical_boundary_stripe_width(self):
        gt = np.zeros((10, 20), dtype=np.uint8)
        gt[:, 10:] = 1
        out = erode_boundaries(gt, 3)
        ignored_cols = np.where((out == IGNORE_LABEL).all(axis=0))[0]
        # pixels within distance 3 of the other class: columns 7..12
        np.testing.assert_array_equal(ignored_cols, np.arange(7, 13))
        assert (out[:, :7] == 0).all()
        assert (out[:, 13:] == 1).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # blocky rasters so boundaries are sparse
        base = rng.integers(0, 4, size=(6, 6)).astype(np.uint8)
        gt = np.repeat(np.repeat(base, 4, axis=0), 4, axis=1)
        out = erode_boundaries(gt, 3)
        np.testing.assert_array_equal(out, oracles.erode_direct(gt, 3))

    def test_radius_one_matches_oracle(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 3, size=(12, 12)).astype(np.uint8)
        np.testing.assert_array_equal(erode_boundaries(gt, 1),
                                      oracles.erode_direct(gt, 1))

    def test_sentinel_does_not_erode_neighbors(self):
        gt = np.full((10, 10), 2, dtype=np.uint8)
        gt[:, 5:] = IGNORE_LABEL
        out = erode_boundaries(gt, 3)
        np.testing.assert_array_equal(out, gt)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 3, size=(5, 5)).astype(np.uint8)
        gt = np.repeat(np.repeat(base, 5, axis=0), 5, axis=1)
        once = erode_boundaries(gt, 3)
        np.testing.assert_array_equal(erode_boundaries(once, 3), once)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError, match="2-D"):
            erode_boundaries(np.zeros((2, 3, 4), dtype=np.uint8), 3)


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        rng = np.random.default_rng(5)
        gt = rng.integers(0, 4, size=(20, 20)).astype(np.uint8)
        cm = ConfusionMatrix(4).accumulate(gt, gt)
        assert cm.counts.sum() == 400
        assert np.trace(cm.counts) == 400

    def test_all_ignored_is_zero(self):
        gt = np.full((8, 8), IGNORE_LABEL, dtype=np.uint8)
        pred = np.zeros((8, 8), dtype=np.uint8)
        cm = ConfusionMatrix(3).accumulate(pred, gt)
        assert cm.counts.sum() == 0

    def test_matches_per_pixel_count(self):
        rng = np.random.default_rng(6)
        gt = rng.integers(0, 5, size=(30, 30)).astype(np.uint8)
        gt[rng.random((30, 30)) < 0.1] = IGNORE_LABEL
        pred = rng.integers(0, 5, size=(30, 30)).astype(np.uint8)
        cm = ConfusionMatrix(5).accumulate(pred, gt)
        expect = np.zeros((5, 5), dtype=np.int64)
        for t, p in zip(gt.ravel(), pred.ravel()):
            if t != IGNORE_LABEL:
                expect[t, p] += 1
        np.testing.assert_array_equal(cm.counts, expect)
        assert cm.total == int((gt != IGNORE_LABEL).sum())

    def test_additivity(self):
        rng = np.random.default_rng(7)
        gt = rng.integers(0, 3, size=(16, 16)).astype(np.uint8)
        pred = rng.integers(0, 3, size=(16, 16)).astype(np.uint8)
        whole = ConfusionMatrix(3).accumulate(pred, gt)
        halves = ConfusionMatrix(3).accumulate(pred[:8], gt[:8])
        halves.accumulate(pred[8:], gt[8:])
        np.testing.assert_array_equal(halves.counts, whole.counts)

    def test_invalid_label_rejected(self):
        cm = ConfusionMatrix(3)
        gt = np.zeros((2, 2), dtype=np.uint8)
        bad = np.array([[0, 5], [0, 0]], dtype=np.uint8)
        with pytest.raises(ShapeError, match="pred label 5"):
            cm.accumulate(bad, gt)
        with pytest.raises(ShapeError, match="gt label 5"):
            cm.accumulate(gt, bad)

    def test_sentinel_prediction_rejected(self):
        cm = ConfusionMatrix(3)
        gt = np.zeros((2, 2), dtype=np.uint8)
        pred = np.full((2, 2), IGNORE_LABEL, dtype=np.uint8)
        with pytest.raises(ShapeError, match="sentinel"):
            cm.accumulate(pred, gt)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="shape"):
            ConfusionMatrix(2).accumulate(np.zeros((2, 2), dtype=np.uint8),
                                          np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ShapeError, match=r"counts shape \(3, 3\) != "):
            ConfusionMatrix(2, np.zeros((3, 3)))


class TestScores:
    def test_perfect(self):
        cm = ConfusionMatrix(3, np.diag([10, 20, 30]))
        s = f1_scores(cm)
        np.testing.assert_array_equal(s.f1, np.ones(3))
        assert s.accuracy == 1.0
        assert s.macro_f1 == 1.0

    def test_hand_case(self):
        cm = ConfusionMatrix(2, np.array([[8, 2], [3, 7]]))
        s = f1_scores(cm)
        p0, r0 = 8 / 11, 8 / 10
        assert s.precision[0] == pytest.approx(p0, abs=1e-15)
        assert s.recall[0] == pytest.approx(r0, abs=1e-15)
        assert s.f1[0] == pytest.approx(2 * p0 * r0 / (p0 + r0), abs=1e-15)
        assert s.accuracy == pytest.approx(15 / 20)

    def test_absent_class_is_nan_and_excluded(self):
        cm = ConfusionMatrix(3, np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]]))
        s = f1_scores(cm)
        assert np.isnan(s.f1[2])
        assert s.macro_f1 == 1.0

    def test_zero_tp_with_predictions_scores_zero(self):
        cm = ConfusionMatrix(2, np.array([[0, 5], [4, 0]]))
        s = f1_scores(cm)
        assert s.f1[0] == 0.0
        assert s.f1[1] == 0.0
        assert s.accuracy == 0.0

    def test_matches_direct_oracle_on_random_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            cm_data = rng.integers(0, 50, size=(k, k))
            # randomly blank out some classes entirely
            for i in range(k):
                if rng.random() < 0.2:
                    cm_data[i, :] = 0
            s = f1_scores(ConfusionMatrix(k, cm_data))
            expect = oracles.f1_direct(cm_data)
            np.testing.assert_allclose(s.f1, expect["f1"], rtol=1e-12,
                                       equal_nan=True)
            np.testing.assert_allclose(s.recall, expect["recall"], rtol=1e-12,
                                       equal_nan=True)
            predicted = cm_data.sum(axis=0)
            has_pred = predicted > 0
            np.testing.assert_allclose(
                s.precision[has_pred],
                np.asarray(expect["precision"])[has_pred], rtol=1e-12)
            if np.isfinite(expect["accuracy"]):
                assert s.accuracy == pytest.approx(expect["accuracy"],
                                                   rel=1e-12)

    def test_f1_bounds_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cm = ConfusionMatrix(4, rng.integers(1, 100, size=(4, 4)))
            s = f1_scores(cm)
            assert ((s.f1 >= 0) & (s.f1 <= 1)).all()

    def test_f1_equals_pr_when_balanced(self):
        cm = ConfusionMatrix(2, np.array([[6, 2], [2, 6]]))
        s = f1_scores(cm)
        assert s.precision[0] == s.recall[0] == s.f1[0]


class TestReport:
    def test_layout_and_keys(self):
        cm = ConfusionMatrix(2, np.array([[8, 2], [3, 7]]))
        text = format_report(f1_scores(cm), class_names=["roads", "buildings"])
        lines = text.splitlines()
        assert "roads" in lines[0] and "Accuracy" in lines[0]
        assert "f1_roads=" in text
        assert "accuracy=0.750000" in text
        assert "macro_f1=" in text
        with pytest.raises(ShapeError, match="1 names for 2 classes"):
            format_report(f1_scores(cm), class_names=["roads"])

    def test_flags_empty_evaluation(self):
        cm = ConfusionMatrix(2)
        text = format_report(f1_scores(cm))
        assert "no evaluated pixels" in text

    def test_nan_rendering(self):
        cm = ConfusionMatrix(2, np.array([[4, 0], [0, 0]]))
        text = format_report(f1_scores(cm))
        assert "n/a" in text.splitlines()[1]
