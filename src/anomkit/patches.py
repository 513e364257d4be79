"""Two-scale patch pairs sampled at superpixel centroids.

Each in-retina superpixel yields one pair: a side x side crop around the
rounded centroid, and a 4x-wider crop at the same center whose width is
averaged down to the same size. Both scales therefore share the center
pixel exactly; borders are handled by edge replication. The side is the
preset's `patch_side` (`presets.PRESETS`); the 4x width is this module's own.

Every crop is a window of a map of its slice, and a dataset keeps the maps
(`PatchMaps`) beside the crops, so the encoder can run its convolution once
per map instead of once per overlapping crop (`dcae`). A slice has two maps:
- scale 1: the slice edge-padded by side // 2 rows and columns before and
  side - 1 - side // 2 after, [1, H + s - 1, W + s - 1]. The crop centred on
  (r, c) is its window at (r, c).
- scale 2: `means[i, j]`, the mean of the 4 padded pixels from column j on,
  read every 4th column, so the crop centred on (r, c) reads one column
  phase c mod 4 of it. Phase q holds columns q, q + 4, ... of `means`,
  [4, H + s - 1, W2] with W2 = (W - 1) // 4 + s: enough columns for the
  crop of every centre of every phase at any width, because the padding on
  the right gives `means` 4 * W2 columns. The crop is window (r, c // 4) of
  phase c mod 4.
Each row of a dataset records one corner (map, phase, row, col): its
scale-2 window. Its scale-1 window is at (row, 4 * col + phase) of the same
map's scale-1 map, whose only phase is 0.

`cut_pairs` cuts every pair of one slice at once: it builds the slice's two
maps and gathers every crop as a window of them. Each mean is `np.mean` over
the same four values as a per-pair 1x4 average, so the pairs are
bit-identical to cropping each one and averaging it
(`tests/oracles.pair_oracle`). `build_dataset` keeps the in-retina records in
the (slice, id) order `PreprocessedVolume.superpixels` holds them in, applies
`cap` to those rows, and builds maps and pairs only for those kept, once per
run of rows on one slice. A dataset made from loose crops makes each crop its
own one-phase map, at corner (i, 0, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ParameterError, UsageError
from .presets import DcaePreset, get_preset
from .rng import Rng


class PatchMaps(NamedTuple):
    """The maps a dataset's crops are windows of, and each row's corner.

    The maps come in blocks, [m, phases, h, w] float32 arrays: one map per
    slice run, or one block of all the loose crops. A corner's map counts
    across the blocks in order.
    """

    scale1: list  # [m, 1, h, w] blocks
    scale2: list  # [m, phases, h, w2] blocks, aligned with scale1's
    corners: np.ndarray  # [n, 4] int64 (map, phase, row, col) of the scale-2 window

    @classmethod
    def of_crops(cls, scale1, scale2):
        """Each of n loose crops as its own map, at corner (i, 0, 0, 0)."""
        corners = np.zeros((len(scale1), 4), np.int64)
        corners[:, 0] = np.arange(len(scale1))
        return cls([scale1[:, None]], [scale2[:, None]], corners)

    def scale(self, k):
        """(blocks, corners) of scale k: scale 2's corners are the stored ones,
        and scale 1's are (map, 0, row, 4 * col + phase)."""
        if k == 2:
            return self.scale2, self.corners
        m, phase, r, c = self.corners.T
        return self.scale1, np.stack([m, np.zeros_like(m), r, 4 * c + phase], axis=1)


def map_groups(blocks, corners, side, size):
    """Each run of up to `size` consecutive maps of one block that some corner
    reads, as (maps, corners, rows): the run's [m, phases, h, w] maps, its
    rows' corners with the map counted from the run's first, and those rows'
    indices.

    Before the first run, raises InputError if some corner's side x side
    window does not lie inside its map.
    """
    corners = np.asarray(corners, dtype=np.int64).reshape(-1, 4)
    sizes = [len(block) for block in blocks]
    # every map's (phases, h - side + 1, w - side + 1): a corner's last three fields' bounds
    limits = np.repeat(np.array([(b.shape[1], b.shape[2] - side + 1, b.shape[3] - side + 1)
                                 for b in blocks], np.int64).reshape(-1, 3), sizes, axis=0)
    m = corners[:, 0]
    bad = (m < 0) | (m >= len(limits))
    bad[~bad] = ((corners[~bad, 1:] < 0) | (corners[~bad, 1:] >= limits[m[~bad]])).any(axis=1)
    if bad.any():
        raise InputError(f"corner {tuple(corners[bad][0].tolist())} puts a {side}px window "
                         f"outside its map")
    order = np.argsort(m, kind="stable")
    sorted_maps = m[order]
    start = 0
    for block in blocks:
        for first in range(start, start + len(block), size):
            maps = block[first - start : first - start + size]
            lo, hi = np.searchsorted(sorted_maps, [first, first + len(maps)])
            if lo < hi:
                rows = order[lo:hi]
                yield maps, corners[rows] - (first, 0, 0, 0), rows
        start += len(block)


def cut_pairs(slice_img, centers, preset):
    """Cut the (scale1, scale2) pairs centered on integer pixels of one slice.

    `centers` is [n, 2] (row, col); returns two [n, side, side] float32
    arrays whose rows follow `centers`, and the PatchMaps they are windows
    of: the slice's [1, 1, H+s-1, W+s-1] and [1, 4, H+s-1, W2] maps and
    each centre's corner in them.
    """
    side = get_preset(preset).patch_side
    img = np.asarray(slice_img)
    centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
    r, c = centers[:, 0], centers[:, 1]
    outside = (r < 0) | (r >= img.shape[0]) | (c < 0) | (c >= img.shape[1])
    if outside.any():
        raise InputError(f"center {tuple(centers[outside][0].tolist())} outside slice {img.shape}")
    h, w = img.shape
    rows = (side // 2, side - 1 - side // 2)
    map1 = np.pad(img, (rows, rows), mode="edge").astype(np.float32)
    w2 = (w - 1) // 4 + side
    # 2 * side columns on the left, the wide crop's reach; on the right,
    # enough that means has 4 * w2 columns
    padded = np.pad(img, (rows, (2 * side, 4 * w2 + 3 - w - 2 * side)), mode="edge")
    # means[i, j] is the mean of padded[i, j : j + 4]: 1x4 average pooling of
    # every wide crop at once, each crop reading every 4th column
    means = sliding_window_view(padded, 4, axis=1).mean(axis=-1)
    map2 = np.ascontiguousarray(means.reshape(h + side - 1, w2, 4).transpose(2, 0, 1),
                                dtype=np.float32)
    phase, col = c % 4, c // 4
    return (sliding_window_view(map1, (side, side))[r, c],
            sliding_window_view(map2, (side, side), axis=(1, 2))[phase, r, col],
            PatchMaps([map1[None, None]], [map2[None]],
                      np.stack([np.zeros_like(r), phase, r, col], axis=1)))


def cut_at_centroids(rows, preset):
    """(scale1, scale2, maps) of (PreprocessedVolume, Superpixel) rows: one
    pair per row, cut at its rounded centroid once per run of rows on one
    slice, and each run's maps; output rows follow `rows`."""
    p = get_preset(preset)
    scale1 = np.empty((len(rows), p.patch_side, p.patch_side), dtype=np.float32)
    scale2 = np.empty_like(scale1)
    centers = np.rint([sp.centroid for _, sp in rows]).reshape(-1, 2)
    blocks1, blocks2, corners = [], [], [np.zeros((0, 4), np.int64)]
    a = 0  # rows[a:b] is one run of rows on one slice of one volume
    for i, ((_, s), run) in enumerate(groupby(rows, key=lambda row: (id(row[0]),
                                                                      row[1].slice_index))):
        b = a + len(list(run))
        scale1[a:b], scale2[a:b], maps = cut_pairs(rows[a][0].data[s], centers[a:b], p)
        blocks1 += maps.scale1
        blocks2 += maps.scale2
        corners.append(maps.corners + (i, 0, 0, 0))
        a = b
    return scale1, scale2, PatchMaps(blocks1, blocks2, np.concatenate(corners))


@dataclass
class PatchDataset:
    scale1: np.ndarray  # [n, side, side] float32
    scale2: np.ndarray  # [n, side, side] float32
    sources: list  # (volume_id, slice index, superpixel id) per row
    split: str  # healthy-train | anomaly-train | eval
    preset: DcaePreset
    maps: PatchMaps | None = None  # what the crops are windows of; None: each crop alone

    def __post_init__(self):
        if self.maps is None:
            self.maps = PatchMaps.of_crops(self.scale1, self.scale2)
        elif len(self.maps.corners) != len(self):
            raise UsageError(f"{len(self)} rows but {len(self.maps.corners)} corners")

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

    scale1, scale2, maps = cut_at_centroids([(prep, sp) for _, prep, sp in rows], p)
    return PatchDataset(
        scale1=scale1,
        scale2=scale2,
        sources=[(vid, sp.slice_index, sp.id) for vid, _, sp in rows],
        split=split,
        preset=p,
        maps=maps,
    )
