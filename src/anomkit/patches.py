"""Two-scale patch pairs sampled at superpixel centroids.

Each in-retina superpixel yields one pair: a side x side crop around the
rounded centroid, and a 4x-wider crop at the same center whose width is
averaged down to the same size. Both scales therefore share the center
pixel exactly; borders are handled by edge replication. The side is the
preset's `patch_side` (`presets.PRESETS`); the 4x width is this module's own.

`cut_pairs` cuts every pair of one slice at once: the slice is edge-padded
once, the 1x4 means of the padded slice are taken once with a sliding
window, and all crops are gathered by indexing window views of the two at
their top-left corners, the wide scale's view stepping 4 columns through the
means. Each mean is `np.mean` over the same four values as a per-pair 1x4
average, so the pairs are bit-identical to cropping each one and averaging
it (`tests/oracles.pair_oracle`). `build_dataset` keeps the in-retina
records in the (slice, id) order `PreprocessedVolume.superpixels` holds them
in, applies `cap` to those rows, and cuts pairs only for those kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ParameterError, UsageError
from .presets import DcaePreset, get_preset
from .rng import Rng


def cut_pairs(slice_img, centers, preset):
    """Cut the (scale1, scale2) pairs centered on integer pixels of one slice.

    `centers` is [n, 2] (row, col); returns two [n, side, side] float32
    arrays whose rows follow `centers`.
    """
    p = get_preset(preset)
    img = np.asarray(slice_img)
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    r, c = centers[:, 0], centers[:, 1]
    outside = (r < 0) | (r >= img.shape[0]) | (c < 0) | (c >= img.shape[1])
    if outside.any():
        raise InputError(f"center {tuple(centers[outside][0].tolist())} outside slice {img.shape}")
    s, pad = p.patch_side, 2 * p.patch_side  # pad: the 4x-wide crop's reach on every side
    padded = np.pad(img, pad, mode="edge")
    # means[i, j] is the mean of padded[i, j : j + 4]: 1x4 average pooling of
    # every wide crop at once, each crop reading every 4th column
    means = sliding_window_view(padded, 4, axis=1).mean(axis=-1)
    top = r + pad - s // 2
    scale1 = sliding_window_view(padded, (s, s))[top, c + pad - s // 2]
    # the wide crop reads every 4th column of an (s, 4s - 3) window of means,
    # starting pad columns left of c
    scale2 = sliding_window_view(means, (s, 4 * s - 3))[..., ::4][top, c]
    return scale1.astype(np.float32), scale2.astype(np.float32)


def cut_at_centroids(rows, preset):
    """Pairs for (PreprocessedVolume, Superpixel) rows, cut at each rounded
    centroid once per run of rows on one slice; output rows follow `rows`."""
    p = get_preset(preset)
    scale1 = np.empty((len(rows), p.patch_side, p.patch_side), dtype=np.float32)
    scale2 = np.empty_like(scale1)
    centers = np.rint([sp.centroid for _, sp in rows])
    a = 0  # rows[a:b] is one run of rows on one slice of one volume
    for (_, s), run in groupby(rows, key=lambda row: (id(row[0]), row[1].slice_index)):
        b = a + len(list(run))
        scale1[a:b], scale2[a:b] = cut_pairs(rows[a][0].data[s], centers[a:b], p)
        a = b
    return scale1, scale2


@dataclass
class PatchDataset:
    scale1: np.ndarray  # [n, side, side] float32
    scale2: np.ndarray  # [n, side, side] float32
    sources: list  # (volume_id, slice index, superpixel id) per row
    split: str  # healthy-train | anomaly-train | eval
    preset: DcaePreset

    def __len__(self):
        return self.scale1.shape[0]


def build_dataset(preps, split, preset, rng: Rng | None = None, cap=None,
                  ground_truths=None) -> PatchDataset:
    """One patch pair per in-retina superpixel centroid.

    `preps` is an ordered list of (volume_id, PreprocessedVolume). Ordering
    of the output is (volume order, slice, superpixel id) and deterministic.
    For the healthy-train split, pass `ground_truths` aligned with `preps`
    (one per volume) to assert the volumes really are anomaly-free. `cap`
    subsamples the rows uniformly (seeded) while preserving that order,
    before any pair is cut.
    """
    p = get_preset(preset)
    if split not in ("healthy-train", "anomaly-train", "eval"):
        raise ParameterError(f"unknown split {split!r}")
    if cap is not None and cap < 1:
        raise ParameterError(f"cap must be >= 1, got {cap}")
    if ground_truths is not None and len(ground_truths) != len(preps):
        raise UsageError(f"{len(preps)} volumes but {len(ground_truths)} ground truths")
    if split == "healthy-train" and ground_truths is not None:
        for (vid, _), gt in zip(preps, ground_truths):
            if gt is not None and gt.mask.any():
                raise InputError(f"volume {vid} in healthy-train has anomaly voxels")

    rows = [(vid, prep, sp) for vid, prep in preps for sp in prep.superpixels if sp.in_retina]
    if not rows:
        raise InputError("no in-retina superpixels: empty dataset")

    if cap is not None and len(rows) > cap:
        if rng is None:
            raise ParameterError("cap subsampling requires an rng")
        keep = np.sort(rng.choice(len(rows), size=cap, replace=False))
        rows = [rows[i] for i in keep]

    scale1, scale2 = cut_at_centroids([(prep, sp) for _, prep, sp in rows], p)
    return PatchDataset(
        scale1=scale1,
        scale2=scale2,
        sources=[(vid, sp.slice_index, sp.id) for vid, _, sp in rows],
        split=split,
        preset=p,
    )
