"""Quantitative evaluation: overlap scores against ground truth, a linear
multi-class probe on learned features, and patient-grouped cross-validation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, UsageError
from .patches import cut_at_centroids
from .phantom import TYPE_CYST, TYPE_FLUID, TYPE_NAMES, TYPE_NONE
from .presets import get_preset
from .rng import Rng


@dataclass
class SegScores:
    dice: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


def seg_scores(pred_mask, gt_mask, roi_mask) -> SegScores:
    """Voxel-wise Dice/precision/recall inside the region of interest.

    Degenerate cases: both masks empty -> all ones; empty prediction against
    a nonempty truth -> dice=recall=0 with precision 1; nonempty prediction
    against an empty truth -> dice=precision=0 with recall 1.
    """
    pred = np.asarray(pred_mask, dtype=bool)
    gt = np.asarray(gt_mask, dtype=bool)
    roi = np.asarray(roi_mask, dtype=bool)
    if not (pred.shape == gt.shape == roi.shape):
        raise UsageError(
            f"mask shapes differ: {pred.shape}, {gt.shape}, {roi.shape}"
        )
    p = pred & roi
    g = gt & roi
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    if not p.any() and not g.any():
        return SegScores(1.0, 1.0, 1.0, tp, fp, fn)
    if not p.any():
        return SegScores(0.0, 1.0, 0.0, tp, fp, fn)
    if not g.any():
        return SegScores(0.0, 0.0, 1.0, tp, fp, fn)
    return SegScores(
        dice=2.0 * tp / (2.0 * tp + fp + fn),
        precision=tp / (tp + fp),
        recall=tp / (tp + fn),
        tp=tp, fp=fp, fn=fn,
    )


@dataclass
class L2Svm:
    """One-vs-rest linear SVMs with L2-regularized squared-hinge loss."""

    classes: np.ndarray  # sorted class values
    weights: np.ndarray  # [n_classes, d]
    biases: np.ndarray  # [n_classes]
    objectives: list  # per class: final objective value

    def decision_values(self, X):
        X = np.asarray(X, dtype=np.float64)
        return X @ self.weights.T + self.biases

    def predict(self, X):
        scores = self.decision_values(X)
        return self.classes[np.argmax(scores, axis=1)]  # ties -> lowest class


def _fit_binary_squared_hinge(X, y, C, tol=1e-6, max_iter=3000):
    """Deterministic batch gradient descent with Armijo backtracking.

    Objective J(w, b) = 0.5 ||w||^2 + C * mean(max(0, 1 - y f)^2); the mean
    makes duplicated datasets yield the identical solution.
    """
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0

    def objective(w, b):
        margin = np.maximum(0.0, 1.0 - y * (X @ w + b))
        return 0.5 * float(w @ w) + C * float(np.mean(margin**2))

    obj = objective(w, b)
    step = 1.0 / (1.0 + C)
    history = [obj]
    for _ in range(max_iter):
        f = X @ w + b
        margin = np.maximum(0.0, 1.0 - y * f)
        coin = -2.0 * margin * y
        gw = w + C * (X.T @ coin) / n
        gb = C * float(np.mean(coin))
        gnorm2 = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm2) <= tol:
            break
        t = step
        while t > 1e-16:
            cand = objective(w - t * gw, b - t * gb)
            if cand <= obj - 0.25 * t * gnorm2:
                break
            t *= 0.5
        if cand >= obj:  # no descent step exists numerically
            break
        w = w - t * gw
        b = b - t * gb
        obj = cand
        history.append(obj)
        step = min(t * 2.0, 1e3)  # let the step recover between iterations
    return w, b, obj, history


def train_l2svm(features, labels, C=1.0, tol=1e-6, max_iter=3000) -> L2Svm:
    """Fit one-vs-rest squared-hinge SVMs; prediction is argmax decision."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise UsageError(f"features {X.shape} do not match labels {y.shape}")
    classes = np.unique(y)
    if classes.size < 2:
        raise InputError(f"need at least 2 classes, got {classes.tolist()}")
    weights, biases, objectives = [], [], []
    for c in classes:
        yc = np.where(y == c, 1.0, -1.0)
        w, b, obj, _ = _fit_binary_squared_hinge(X, yc, C, tol=tol, max_iter=max_iter)
        weights.append(w)
        biases.append(b)
        objectives.append(obj)
    return L2Svm(classes=classes, weights=np.stack(weights),
                 biases=np.asarray(biases), objectives=objectives)


@dataclass
class CvReport:
    folds: list  # per fold: dict with patients, n, accuracy, per_class
    per_class_mean: dict  # class value -> mean accuracy over folds
    overall_mean: float
    overall_std: float

    def summary(self) -> str:
        return f"{100 * self.overall_mean:.1f} (± {100 * self.overall_std:.1f})"


def grouped_cv(features, labels, patient_ids, n_folds=5, rng: Rng | None = None,
               C=1.0) -> CvReport:
    """Cross-validation with whole patients dealt round-robin into folds."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    pids = np.asarray(patient_ids)
    patients = np.unique(pids)
    if patients.size < n_folds:
        raise InputError(f"{patients.size} patients cannot fill {n_folds} folds")
    if rng is None:
        rng = Rng(0)
    shuffled = patients[rng.permutation(patients.size)]
    fold_patients = [shuffled[i::n_folds] for i in range(n_folds)]

    classes = np.unique(y)
    folds = []
    per_class_acc = {c: [] for c in classes.tolist()}
    for fi, fold_p in enumerate(fold_patients):
        test_mask = np.isin(pids, fold_p)
        model = train_l2svm(X[~test_mask], y[~test_mask], C=C)
        pred = model.predict(X[test_mask])
        truth = y[test_mask]
        acc = float(np.mean(pred == truth))
        per_class = {}
        for c in classes.tolist():
            sel = truth == c
            if sel.any():
                val = float(np.mean(pred[sel] == c))
                per_class[c] = val
                per_class_acc[c].append(val)
        folds.append({
            "patients": sorted(fold_p.tolist()),
            "n": int(test_mask.sum()),
            "accuracy": acc,
            "per_class": per_class,
        })
    accs = np.array([f["accuracy"] for f in folds])
    return CvReport(
        folds=folds,
        per_class_mean={c: float(np.mean(v)) for c, v in per_class_acc.items()},
        overall_mean=float(accs.mean()),
        overall_std=float(accs.std()),
    )


DEFAULT_CLASSES = (TYPE_CYST, TYPE_FLUID, TYPE_NONE)


def superpixel_majority_type(sp, gt_labels_slice):
    """Majority ground-truth type over a superpixel's pixels (ties -> lowest)."""
    vals = gt_labels_slice[sp.rows, sp.cols]
    return int(np.bincount(vals).argmax())


def build_classification_set(items, embedder, per_class_n=500, rng: Rng | None = None,
                             classes=DEFAULT_CLASSES, preset="desk"):
    """Balanced (feature, label, patient) triples from annotated volumes.

    `items` is a list of (volume_id, PreprocessedVolume, GT labels in its
    flattened coordinates, as `preprocess.flat_labels` gives them);
    `embedder(scale1_batch, scale2_batch) -> [n, d]` maps patch batches to
    features. Each class contributes exactly `per_class_n` superpixels whose
    majority ground-truth type equals that class.
    """
    if rng is None:
        rng = Rng(0)
    p = get_preset(preset)
    by_class = {c: [] for c in classes}
    for vid, prep, flat in items:
        for sp in prep.superpixels:
            if not sp.in_retina:
                continue
            t = superpixel_majority_type(sp, flat[sp.slice_index])
            if t in by_class:
                by_class[t].append((vid, prep, sp))

    chosen = []
    for ci, c in enumerate(classes):
        pool = by_class[c]
        if len(pool) < per_class_n:
            name = TYPE_NAMES.get(c, f"type-{c}")
            raise InputError(
                f"class {name}: only {len(pool)} superpixels available, "
                f"need {per_class_n}"
            )
        keep = np.sort(rng.derive(ci).choice(len(pool), size=per_class_n, replace=False))
        chosen.extend((pool[i], c) for i in keep)

    s1, s2 = cut_at_centroids([(prep, sp) for (_, prep, sp), _ in chosen], p)
    feats = embedder(s1, s2)
    labels = [c for _, c in chosen]
    pids = [vid for (vid, _, _), _ in chosen]
    return np.asarray(feats), np.asarray(labels), np.asarray(pids)
