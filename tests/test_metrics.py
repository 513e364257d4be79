"""Segmentation scores and the majority ground-truth type of a superpixel."""

import itertools

import numpy as np
import pytest

from anomkit import metrics
from anomkit.errors import UsageError
from anomkit.preprocess import Superpixel


class TestSegScores:
    def test_identical_nonempty(self):
        m = np.array([[1, 0], [0, 1]], dtype=bool)
        roi = np.ones_like(m)
        s = metrics.seg_scores(m, m, roi)
        assert (s.dice, s.precision, s.recall) == (1.0, 1.0, 1.0)

    def test_disjoint_nonempty(self):
        a = np.array([[1, 0], [0, 0]], dtype=bool)
        b = np.array([[0, 0], [0, 1]], dtype=bool)
        s = metrics.seg_scores(a, b, np.ones_like(a))
        assert (s.dice, s.precision, s.recall) == (0.0, 0.0, 0.0)

    def test_half_overlap(self):
        pred = np.array([1, 1, 0], dtype=bool)  # {a, b}
        gt = np.array([0, 1, 1], dtype=bool)  # {b, c}
        s = metrics.seg_scores(pred, gt, np.ones_like(pred))
        assert (s.dice, s.precision, s.recall) == (0.5, 0.5, 0.5)

    def test_exhaustive_2x2_grid_identities(self):
        # every (pred, gt) pair of 2x2 masks: degenerate rules plus the
        # harmonic identity dice = 2PR/(P+R) where defined
        roi = np.ones((2, 2), dtype=bool)
        for p_bits, g_bits in itertools.product(range(16), repeat=2):
            pred = np.array([(p_bits >> i) & 1 for i in range(4)], bool).reshape(2, 2)
            gt = np.array([(g_bits >> i) & 1 for i in range(4)], bool).reshape(2, 2)
            s = metrics.seg_scores(pred, gt, roi)
            tp = int(np.sum(pred & gt))
            fp = int(np.sum(pred & ~gt))
            fn = int(np.sum(~pred & gt))
            assert (s.tp, s.fp, s.fn) == (tp, fp, fn)
            if not pred.any() and not gt.any():
                assert (s.dice, s.precision, s.recall) == (1.0, 1.0, 1.0)
            elif not pred.any():
                assert (s.dice, s.precision, s.recall) == (0.0, 1.0, 0.0)
            elif not gt.any():
                assert (s.dice, s.precision, s.recall) == (0.0, 0.0, 1.0)
            else:
                assert s.dice == pytest.approx(2 * tp / (2 * tp + fp + fn))
                if s.precision + s.recall > 0:
                    harmonic = 2 * s.precision * s.recall / (s.precision + s.recall)
                    assert s.dice == pytest.approx(harmonic)

    def test_roi_restriction(self):
        pred = np.array([1, 1], dtype=bool)
        gt = np.array([1, 0], dtype=bool)
        roi = np.array([1, 0], dtype=bool)  # second voxel outside evaluation
        s = metrics.seg_scores(pred, gt, roi)
        assert (s.dice, s.precision, s.recall) == (1.0, 1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            metrics.seg_scores(np.zeros(3, bool), np.zeros(4, bool), np.zeros(3, bool))


def test_superpixel_majority_type():
    labels = np.array([[0, 2, 2],
                       [1, 1, 3]])

    def sp(rows, cols):
        return Superpixel((np.array(rows), np.array(cols)), 0, 0, 0, len(rows), (0.0, 0.0), True)

    assert metrics.superpixel_majority_type(sp([0, 0, 1], [1, 2, 2]), labels) == 2
    # two pixels each of types 1 and 2: the tie goes to the lower type
    assert metrics.superpixel_majority_type(sp([0, 0, 1, 1], [1, 2, 0, 1]), labels) == 1
