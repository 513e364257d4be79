"""Ground truth in flattened coordinates, quality numbers and output checks."""

from __future__ import annotations

from collections import Counter

import numpy as np

from anomkit import metrics, ocsvm, preprocess
from anomkit.phantom import TYPE_NONE


def flat_labels(volume, gt):
    """GT labels moved into the flattened coordinates that predictions live in.

    The columns shift exactly as `preprocess_volume` shifts the image, so a
    labelled voxel survives unless the shift pushes it below the frame.
    """
    labels, _ = preprocess.flatten(gt.labels, preprocess.segment_surfaces(volume.data))
    return labels


def in_retina(prep):
    """In-retina superpixels in the row order `patches.build_dataset` uses."""
    return sorted((sp for sp in prep.superpixels if sp.in_retina),
                  key=lambda sp: (sp.slice_index, sp.id))


def dice(prep, amap, labels_flat):
    """Dice of the anomaly mask inside the flattened retina band."""
    band = prep.surfaces.band_mask(labels_flat.shape[1])
    return metrics.seg_scores(amap.pixel_mask, labels_flat != TYPE_NONE, band).dice


def nu_gap(svm, z_train):
    """|share of training features scored as outliers - nu|, floored at d/n.

    A correct nu-solution can miss nu by the free support vectors, which lie
    on the boundary hyperplane: at most d of them in general position. A gap
    inside that slack is not a violation and reads as d/n, so the value is
    never 0 and does not move with which side of the boundary they round to.
    """
    n, d = z_train.shape
    share = float(np.mean(ocsvm.decision_values(svm, z_train) < 0.0))
    return max(abs(share - svm.nu), d / n)


def cluster_purity(types, cluster_ids):
    """Share of vectors whose GT type is the majority type of their cluster."""
    types = np.asarray(types)
    cluster_ids = np.asarray(cluster_ids)
    if types.size == 0:
        return 0.0
    matched = 0
    for c in np.unique(cluster_ids):
        members = types[cluster_ids == c]
        matched += int(np.sum(members == np.bincount(members).argmax()))
    return matched / types.size


def volume_problems(volume, prep, dataset, z, amap):
    """Failed output checks of one scored volume, as messages."""
    problems = []
    if amap.pixel_mask.shape != volume.data.shape:
        problems.append(f"pixel_mask shape {amap.pixel_mask.shape} != {volume.data.shape}")
    expected = Counter((sp.slice_index, sp.id) for sp in prep.superpixels if sp.in_retina)
    if Counter(amap.superpixel_ids) != expected or max(expected.values(), default=1) != 1:
        problems.append("in-retina superpixels do not appear exactly once in the map")
    rows = [(volume.volume_id, sp.slice_index, sp.id) for sp in in_retina(prep)]
    if list(dataset.sources) != rows:
        problems.append("patch rows are not aligned with the in-retina superpixels")
    if not np.all(np.isfinite(z)):
        problems.append("non-finite embeddings")
    return problems
