"""Two-scale patch pairs sampled at superpixel centroids.

Each in-retina superpixel yields one pair: a side x side crop around the
rounded centroid, and a 4x-wider crop at the same center whose width is
averaged down to the same size. Both scales therefore share the center
pixel exactly; borders are handled by edge replication. The side is the
preset's `patch_side` (`presets.PRESETS`); the 4x width is this module's own.

Every crop is a window of a map of its slice, and a dataset is its maps
(`PatchMaps`), one corner per row, and the rows' sources. The encoder runs
its convolution once per map instead of once per overlapping crop (`dcae`);
the crops themselves, `PatchDataset.scale1` and `.scale2`, are cut from the
maps on first access, so a dataset that is only encoded (eval and
anomaly-train) never cuts them. A slice has two maps:
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
slice's scale-1 map, whose only phase is 0.

`slice_maps` builds one slice's two maps and the corner of every centre on
it. Each mean sums the same four values in the order `np.mean` does, so the
crops are bit-identical to cropping each pair and averaging it
(`tests/oracles.pair_oracle`). `build_dataset` reads each volume's
in-retina flags, slices, ids and centroids into arrays, in the (slice, id)
order `PreprocessedVolume.superpixels` holds them in, applies `cap` to those
rows, and builds maps only for the rows kept, one pair of maps per run of
rows on one slice (`cut_at_centroids`).

On desk volumes (8 slices of 128x128, 4,500-4,900 in-retina superpixels,
2-core Xeon, numpy 2.4, medians of 30 interleaved calls in each of two
runs), `build_dataset` for the eval split takes 6-9 ms. It took 19-23 ms
when it walked the rows as Python tuples and cut the 9.3-10.0 MB of crops
per volume that encoding never reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ParameterError, UsageError
from .presets import DcaePreset, get_preset
from .rng import Rng


class PatchMaps(NamedTuple):
    """The maps a dataset's crops are windows of, and each row's corner: one
    [phases, h, w] float32 map per slice run and scale, the corner's map
    counting them in order."""

    scale1: list  # [1, h, w] maps
    scale2: list  # [4, h, w2] maps, aligned with scale1's
    corners: np.ndarray  # [n, 4] int64 (map, phase, row, col) of the scale-2 window

    def scale(self, k):
        """(maps, corners) of scale k: scale 2's corners are the stored ones,
        and scale 1's are (map, 0, row, 4 * col + phase)."""
        if k == 2:
            return self.scale2, self.corners
        m, phase, r, c = self.corners.T
        return self.scale1, np.stack([m, np.zeros_like(m), r, 4 * c + phase], axis=1)

    def crops(self, k, side):
        """The [n, side, side] scale-k crops: each corner's window of its map."""
        maps, corners = self.scale(k)
        out = np.empty((len(corners), side, side), maps[0].dtype if maps else np.float32)
        for one, (phase, r, c), rows in map_groups(maps, corners, side):
            out[rows] = sliding_window_view(one, (side, side), axis=(1, 2))[phase, r, c]
        return out


def map_groups(maps, corners, side):
    """Each of the [phases, h, w] `maps` that some corner reads, as (map,
    (phase, row, col), rows): the map, its rows' corners without the map
    field, as three arrays, and those rows' indices.

    Before the first map, raises InputError if some corner's side x side
    window does not lie inside its map.
    """
    corners = np.asarray(corners, dtype=np.int64).reshape(-1, 4)
    # every map's (phases, h - side + 1, w - side + 1): a corner's last three fields' bounds
    limits = np.array([(m.shape[0], m.shape[1] - side + 1, m.shape[2] - side + 1)
                       for m in maps], np.int64).reshape(-1, 3)
    m = corners[:, 0]
    bad = (m < 0) | (m >= len(limits))
    bad[~bad] = ((corners[~bad, 1:] < 0) | (corners[~bad, 1:] >= limits[m[~bad]])).any(axis=1)
    if bad.any():
        raise InputError(f"corner {tuple(corners[bad][0].tolist())} puts a {side}px window "
                         f"outside its map")
    order = np.argsort(m, kind="stable")
    bounds = np.searchsorted(m[order], np.arange(len(maps) + 1))
    for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        if lo < hi:
            rows = order[lo:hi]
            yield maps[i], corners[rows, 1:].T, rows


def slice_maps(slice_img, centers, preset) -> PatchMaps:
    """The maps of the pairs centred on integer pixels of one slice: its
    [1, H+s-1, W+s-1] and [4, H+s-1, W2] maps, and the corner of each
    of the [n, 2] (row, col) `centers`, in their order."""
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
    # every wide crop at once, each crop reading every 4th column. The sum
    # is taken in the order of numpy's reduce, ((a + b) + c) + d, so it
    # equals `.mean(axis=-1)` of the four.
    n = padded.shape[1] - 3
    means = padded[:, :n] + padded[:, 1 : n + 1]
    means += padded[:, 2 : n + 2]
    means += padded[:, 3 : n + 3]
    means /= 4
    map2 = np.ascontiguousarray(means.reshape(h + side - 1, w2, 4).transpose(2, 0, 1),
                                dtype=np.float32)
    return PatchMaps([map1[None]], [map2],
                     np.stack([np.zeros_like(r), c % 4, r, c // 4], axis=1))


def cut_at_centroids(volumes, volume, slices, centers, preset) -> PatchMaps:
    """The maps of one pair per row i, centred on the integer pixel
    centers[i] of slice slices[i] of volumes[volume[i]]: the maps of each run
    of rows on one slice of one volume, and each row's corner, in row order."""
    p = get_preset(preset)
    volume, slices = np.asarray(volume), np.asarray(slices)
    # a run starts where the volume or the slice changes; the first row starts one
    starts = np.flatnonzero(np.diff(volume, prepend=-1) | np.diff(slices, prepend=-1))
    maps1, maps2, corners = [], [], [np.zeros((0, 4), np.int64)]
    for i, (a, b) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [len(volume)])):
        maps = slice_maps(volumes[volume[a]][slices[a]], centers[a:b], p)
        maps1 += maps.scale1
        maps2 += maps.scale2
        corners.append(maps.corners + (i, 0, 0, 0))
    return PatchMaps(maps1, maps2, np.concatenate(corners))


@dataclass
class PatchDataset:
    """Patch pairs as windows of their maps: `maps` holds the maps and each
    row's corner. The crops `scale1` and `scale2`, [n, side, side] float32,
    are cut from the maps on first access."""

    maps: PatchMaps
    sources: list  # (volume_id, slice index, superpixel id) per row
    split: str  # healthy-train | anomaly-train | eval
    preset: DcaePreset

    def __post_init__(self):
        if len(self.maps.corners) != len(self.sources):
            raise UsageError(f"{len(self.sources)} rows but {len(self.maps.corners)} corners")

    def __len__(self):
        return len(self.sources)

    @cached_property
    def scale1(self):
        return self.maps.crops(1, self.preset.patch_side)

    @cached_property
    def scale2(self):
        return self.maps.crops(2, self.preset.patch_side)


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

    volume, slices, ids, centroids = _in_retina_rows(preps)
    if not len(volume):
        raise InputError("no in-retina superpixels: empty dataset")

    if cap is not None and len(volume) > cap:
        if rng is None:
            raise ParameterError("cap subsampling requires an rng")
        keep = np.sort(rng.choice(len(volume), size=cap, replace=False))
        volume, slices, ids, centroids = volume[keep], slices[keep], ids[keep], centroids[keep]

    maps = cut_at_centroids([prep.data for _, prep in preps], volume, slices,
                            np.rint(centroids).astype(np.int64), p)
    vids = [vid for vid, _ in preps]
    sources = [(vids[v], s, i) for v, s, i in zip(volume.tolist(), slices.tolist(), ids.tolist())]
    return PatchDataset(maps=maps, sources=sources, split=split, preset=p)


def _in_retina_rows(preps):
    """(volume index, slice, id, [n, 2] centroid) arrays of every in-retina
    superpixel of `preps`, in their order."""
    kept, counts = [], []
    for _, prep in preps:
        sps = prep.superpixels
        inside = np.fromiter(map(attrgetter("in_retina"), sps), bool, len(sps))
        kept += compress(sps, inside)
        counts.append(np.count_nonzero(inside))
    n = len(kept)
    slices, ids = (np.fromiter(map(attrgetter(name), kept), np.int64, n)
                   for name in ("slice_index", "id"))
    return (np.repeat(np.arange(len(preps)), counts), slices, ids,
            np.fromiter(map(attrgetter("centroid"), kept), np.dtype((np.float64, 2)), n))
