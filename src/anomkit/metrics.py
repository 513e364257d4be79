"""Quantitative evaluation: voxel overlap scores against ground truth and the
majority ground-truth type of a superpixel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


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


def superpixel_majority_type(sp, gt_labels_slice):
    """Majority ground-truth type over a superpixel's pixels (ties -> lowest)."""
    return int(np.bincount(gt_labels_slice[sp.mask]).argmax())
