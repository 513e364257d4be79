"""Segmentation scores, L2-SVM probe, grouped cross-validation."""

import itertools

import numpy as np
import pytest

from anomkit import metrics
from anomkit.errors import InputError, UsageError
from anomkit.rng import Rng


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


def blobs_3class(rng, n_per=40, spread=0.25):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(center + rng.normal(size=(n_per, 2)) * spread)
        y.extend([c] * n_per)
    return np.concatenate(X), np.array(y)


class TestL2Svm:
    def test_separable_blobs_perfect_training_accuracy(self):
        X, y = blobs_3class(Rng(40))
        model = metrics.train_l2svm(X, y, C=1.0)
        assert float(np.mean(model.predict(X) == y)) == 1.0

    def test_duplication_invariance(self):
        X, y = blobs_3class(Rng(41))
        m1 = metrics.train_l2svm(X, y, C=1.0)
        m2 = metrics.train_l2svm(np.concatenate([X, X]), np.concatenate([y, y]), C=1.0)
        assert np.abs(m1.weights - m2.weights).max() <= 1e-5
        assert np.abs(m1.biases - m2.biases).max() <= 1e-5

    def test_c_to_zero_collapses_to_tie_break_class(self):
        X, y = blobs_3class(Rng(42))
        model = metrics.train_l2svm(X, y, C=1e-12)
        assert np.abs(model.weights).max() <= 1e-6
        assert np.all(model.predict(X) == model.classes[0])

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            metrics.train_l2svm(np.ones((5, 2)), np.zeros(5))

    def test_objective_decreases_monotonically(self):
        X, y = blobs_3class(Rng(43), spread=1.5)
        _, _, _, history = metrics._fit_binary_squared_hinge(
            X, np.where(y == 0, 1.0, -1.0), C=1.0
        )
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


class TestGroupedCv:
    def _data(self, n_patients=10, per_patient=12, rng=None):
        rng = rng or Rng(44)
        X, y, pid = [], [], []
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        for p in range(n_patients):
            for c in range(3):
                pts = centers[c] + rng.normal(size=(per_patient // 3, 2)) * 0.4
                X.append(pts)
                y.extend([c] * pts.shape[0])
                pid.extend([f"patient-{p:02d}"] * pts.shape[0])
        return np.concatenate(X), np.array(y), np.array(pid)

    def test_patient_disjoint_folds(self):
        X, y, pid = self._data()
        report = metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(45))
        seen = {}
        for fi, fold in enumerate(report.folds):
            for p in fold["patients"]:
                assert p not in seen, f"{p} in folds {seen.get(p)} and {fi}"
                seen[p] = fi
        assert len(seen) == 10

    def test_five_patients_five_folds_is_leave_one_out(self):
        X, y, pid = self._data(n_patients=5)
        report = metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(46))
        assert all(len(f["patients"]) == 1 for f in report.folds)

    def test_seeded_rerun_identical(self):
        X, y, pid = self._data()
        r1 = metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(47))
        r2 = metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(47))
        assert r1.folds == r2.folds
        assert r1.overall_mean == r2.overall_mean

    def test_too_few_patients(self):
        X, y, pid = self._data(n_patients=3)
        with pytest.raises(InputError):
            metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(48))

    def test_summary_format(self):
        X, y, pid = self._data()
        report = metrics.grouped_cv(X, y, pid, n_folds=5, rng=Rng(49))
        text = report.summary()
        assert "(±" in text and text.endswith(")")


@pytest.fixture(scope="module")
def annotated():
    from anomkit import phantom, preprocess

    items = []
    for i, seed in enumerate((60, 61)):
        vol, gt = phantom.generate_volume(phantom.test_config(seed), f"vol-{i}")
        items.append((vol.volume_id, preprocess.preprocess_volume(vol.data),
                      preprocess.flat_labels(vol.data, gt.labels), gt.labels))
    return items


def _items(annotated):
    """build_classification_set's (volume id, volume, flattened GT) items."""
    return [(vid, prep, flat) for vid, prep, flat, _ in annotated]


def _truth(annotated, raw=False):
    """{embedded oracle pair: {(volume id, majority type)}} over every
    in-retina superpixel, with types read from the flattened or the raw GT."""
    from oracles import pair_oracle

    truth = {}
    for vid, prep, flat, labels in annotated:
        for sp in prep.superpixels:
            if not sp.in_retina:
                continue
            center = (round(sp.centroid[0]), round(sp.centroid[1]))
            o1, o2 = pair_oracle(prep.data[sp.slice_index], center, 16)
            key = _flat_pairs(o1[None], o2[None])[0].tobytes()
            kind = metrics.superpixel_majority_type(
                sp, (labels if raw else flat)[sp.slice_index])
            truth.setdefault(key, set()).add((vid, kind))
    return truth


def _flat_pairs(scale1, scale2):
    n = scale1.shape[0]
    return np.concatenate([scale1.reshape(n, -1), scale2.reshape(n, -1)], axis=1)


class TestBuildClassificationSet:
    def test_balanced_rows_per_class(self, annotated):
        feats, labels, pids = metrics.build_classification_set(
            _items(annotated), _flat_pairs, per_class_n=12, rng=Rng(62))
        assert feats.shape == (36, 2 * 16 * 16)
        for c in metrics.DEFAULT_CLASSES:
            assert int(np.sum(labels == c)) == 12
        assert set(pids.tolist()) <= {"vol-0", "vol-1"}

    def test_short_class_rejected(self, annotated):
        with pytest.raises(InputError):
            metrics.build_classification_set(_items(annotated), _flat_pairs,
                                             per_class_n=10**6)

    def test_rows_are_embedded_oracle_pairs(self, annotated):
        truth = _truth(annotated)
        feats, labels, pids = metrics.build_classification_set(
            _items(annotated), _flat_pairs, per_class_n=12, rng=Rng(63))
        for row, label, pid in zip(feats, labels, pids):
            assert (pid, label) in truth[row.tobytes()]

    def test_labels_come_from_flattened_ground_truth(self, annotated):
        # superpixels live in flattened coordinates: reading the raw GT at
        # their pixels gives some of them another majority type
        truth, raw = _truth(annotated), _truth(annotated, raw=True)
        feats, labels, pids = metrics.build_classification_set(
            _items(annotated), _flat_pairs, per_class_n=100, rng=Rng(64))
        rows = [(row.tobytes(), (pid, label)) for row, label, pid in zip(feats, labels, pids)]
        assert all(pair in truth[key] for key, pair in rows)
        assert any(pair not in raw[key] for key, pair in rows)
