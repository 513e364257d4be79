"""Per-volume normalization pipeline.

Order of operations for one volume: find the top/bottom retina surfaces per
slice (dynamic programming on vertical-gradient cost images), flatten every
column onto the deepest bottom row, normalize each slice's intensity into
[0,1] by robust percentiles, then oversegment each slice into superpixels.

SLIC yields an int label map per slice, made connected by an orphan merge:
each label keeps its largest 4-connected component (ties to the lowest
component id), and the other components settle in rounds, each taking the
label of its largest already-settled neighbour by original area (ties to
the lowest component id), so the result does not depend on visiting order.
`superpixel_records` turns the stacked [S, H, W] label volume into complete
`Superpixel` records in one pass, keyed by slice * n_ids + id: pixel lists
from one stable argsort, centroids from sums over each key's run, and the
in-retina flag from one vectorized band comparison at the rounded centroid
column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, InputError, SegmentationError


@dataclass
class SurfacePair:
    """Per-column row indices of the retina's top and bottom boundary."""

    top: np.ndarray  # [slices, width] int
    bottom: np.ndarray  # [slices, width] int

    def band_mask(self, height):
        """Boolean [slices, height, width] mask of rows in [top, bottom]."""
        rows = np.arange(height)[None, :, None]
        return (rows >= self.top[:, None, :]) & (rows <= self.bottom[:, None, :])


@dataclass
class Superpixel:
    id: int
    slice_index: int
    rows: np.ndarray
    cols: np.ndarray
    centroid: tuple  # (row, col), fractional
    in_retina: bool


def _min_cost_path(cost, bound):
    """Min-cost left-to-right path with per-column row change <= bound.

    Ties break toward the smallest row offset, then the smallest row, so the
    result is deterministic. Raises SegmentationError when no finite path
    survives the cost mask.
    """
    h, w = cost.shape
    dist = np.empty((h, w))
    dist[:, 0] = cost[:, 0]
    back = np.zeros((h, w), dtype=np.int8)
    offsets = list(range(-bound, bound + 1))
    stack = np.empty((len(offsets), h))
    for c in range(1, w):
        prev = dist[:, c - 1]
        stack.fill(np.inf)
        for oi, dr in enumerate(offsets):
            if dr > 0:
                stack[oi, : h - dr] = prev[dr:]
            elif dr < 0:
                stack[oi, -dr:] = prev[:dr]
            else:
                stack[oi] = prev
        best = np.argmin(stack, axis=0)
        dist[:, c] = cost[:, c] + stack[best, np.arange(h)]
        back[:, c] = np.asarray(offsets, dtype=np.int8)[best]
        if not np.isfinite(dist[:, c]).any():
            raise SegmentationError(f"no path within smoothness bound at column {c}")
    if not np.isfinite(dist[:, -1]).any():
        raise SegmentationError("no finite-cost path")
    path = np.empty(w, dtype=np.int64)
    r = int(np.argmin(dist[:, -1]))
    path[-1] = r
    for c in range(w - 1, 0, -1):
        r = r + int(back[r, c])
        path[c - 1] = r
    return path


def segment_surfaces(volume_data, smoothness=2, min_gap=2, smooth_window=3) -> SurfacePair:
    """Locate top and bottom retina surfaces in every slice.

    The top surface follows the strongest dark-to-bright vertical transition,
    the bottom the strongest bright-to-dark transition below the top.
    """
    vol = np.asarray(volume_data, dtype=np.float64)
    if vol.ndim != 3:
        raise DimensionError(f"volume must be [slices, H, W], got {vol.shape}")
    n_slices, h, w = vol.shape
    if h < 8:
        raise DimensionError(f"need at least 8 rows per column, got {h}")

    top = np.empty((n_slices, w), dtype=np.int64)
    bottom = np.empty((n_slices, w), dtype=np.int64)
    for s in range(n_slices):
        img = ndimage.uniform_filter(vol[s], size=smooth_window, mode="nearest")
        grad = np.gradient(img, axis=0)
        if np.abs(grad).max() < 1e-9:
            raise SegmentationError(f"slice {s}: no gradient evidence (constant image)")
        top_path = _min_cost_path(-grad, smoothness)

        cost_bottom = grad.copy()
        rows = np.arange(h)[:, None]
        cost_bottom[rows < (top_path[None, :] + min_gap)] = np.inf
        bottom_path = _min_cost_path(cost_bottom, smoothness)

        top[s] = top_path
        bottom[s] = bottom_path
    return SurfacePair(top=top, bottom=bottom)


def flatten(volume_data, surfaces: SurfacePair):
    """Shift each column down so every bottom surface sits on a common row.

    The common row is the volume's deepest bottom row; vacated voxels are
    zero-filled and the shift is integer, so intensities are preserved
    exactly. Returns (flattened volume, surfaces in flattened coordinates).
    """
    vol = np.asarray(volume_data)
    target = int(surfaces.bottom.max())
    shift = target - surfaces.bottom  # [slices, w], >= 0
    src = np.arange(vol.shape[1])[None, :, None] - shift[:, None, :]  # source row per voxel
    out = np.where(src >= 0, np.take_along_axis(vol, src.clip(min=0), axis=1), 0)
    new_top = surfaces.top + shift
    new_bottom = np.full_like(surfaces.bottom, target)
    return out, SurfacePair(top=new_top, bottom=new_bottom)


def normalize_slice(slice_img, retina_mask):
    """Brightness/contrast normalization of one slice into [0,1].

    Linear map sending the median and 99th percentile of the in-retina
    intensities to 0.5 and 1.0, then clamped to [0,1]. Both anchors sit in
    the upper half of the distribution, so dark pathology occupying a
    sizable fraction of the band does not move them; a low anchor would
    latch onto the pathology itself and shift the whole slice. A
    (near-)constant slice maps to all 0.5 by definition.
    """
    img = np.asarray(slice_img, dtype=np.float64)
    mask = np.asarray(retina_mask, dtype=bool)
    if img.shape != mask.shape:
        raise DimensionError(f"slice {img.shape} vs mask {mask.shape}")
    if not mask.any():
        raise InputError("retina mask is empty")
    mid, hi = np.percentile(img[mask], [50.0, 99.0])
    if hi - mid < 1e-12:
        return np.full_like(img, 0.5)
    return np.clip(0.5 + 0.5 * (img - mid) / (hi - mid), 0.0, 1.0)


def _connected_regions(labels):
    """Component map of same-label regions under 4-connectivity."""
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    edges_r = labels[:, :-1] == labels[:, 1:]
    edges_d = labels[:-1, :] == labels[1:, :]
    src = np.concatenate([idx[:, :-1][edges_r].ravel(), idx[:-1, :][edges_d].ravel()])
    dst = np.concatenate([idx[:, 1:][edges_r].ravel(), idx[1:, :][edges_d].ravel()])
    graph = sparse.coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(h * w, h * w)
    )
    n_comp, comp = connected_components(graph, directed=False)
    return n_comp, comp.reshape(h, w)


def _enforce_connectivity(labels):
    """Make every label one 4-connected region.

    Each label keeps its largest component (ties to the lowest component
    id); the other components, the orphans, settle in rounds: every orphan
    that touches a settled component takes the label of its largest such
    neighbour by original area, ties to the lowest component id.
    """
    n_comp, comp = _connected_regions(labels)
    flat_comp = comp.ravel()
    areas = np.bincount(flat_comp, minlength=n_comp)
    comp_label = np.empty(n_comp, dtype=labels.dtype)
    comp_label[flat_comp] = labels.ravel()
    # stable sort: within a label, the largest component first, then the lowest id
    by_label = np.lexsort((-areas, comp_label))
    sorted_label = comp_label[by_label]
    settled = np.zeros(n_comp, dtype=bool)
    settled[by_label[np.r_[True, sorted_label[1:] != sorted_label[:-1]]]] = True

    # touching component pairs from the right and down neighbours, both directions
    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1].ravel()])
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:].ravel()])
    touch = a != b
    orphan = np.concatenate([a[touch], b[touch]])
    nb = np.concatenate([b[touch], a[touch]])
    # the component graph of a slice is connected, so each round settles one or more
    while not settled.all():
        edge = ~settled[orphan] & settled[nb]
        o, n = orphan[edge], nb[edge]
        pick = np.lexsort((n, -areas[n], o))
        o, n = o[pick], n[pick]
        first = np.r_[True, o[1:] != o[:-1]]
        comp_label[o[first]] = comp_label[n[first]]
        settled[o[first]] = True
    return comp_label[comp]


def slic_superpixels(slice_img, target_area=16, compactness=0.1, n_iter=10):
    """SLIC oversegmentation of one slice into ~target_area superpixels.

    k-means in (intensity, row, col) with distance
    sqrt(d_int^2 + (m/S)^2 * d_spatial^2), S = sqrt(target_area), initialized
    on a regular S-grid and restricted to the 3x3 neighborhood of each
    pixel's grid cell. Connectivity is enforced afterwards. Returns the
    [H, W] int label map; superpixel ids follow grid order and need not be
    contiguous. The procedure is deterministic.
    """
    img = np.asarray(slice_img, dtype=np.float64)
    if target_area < 4:
        raise InputError(f"target_area must be >= 4, got {target_area}")
    h, w = img.shape
    step = max(int(round(np.sqrt(target_area))), 1)
    if h <= step or w <= step:
        return np.zeros((h, w), dtype=np.int64)

    grid_rows = np.arange(step // 2, h, step)
    grid_cols = np.arange(step // 2, w, step)
    gr, gc = len(grid_rows), len(grid_cols)
    c_row = np.repeat(grid_rows, gc).astype(np.float64)
    c_col = np.tile(grid_cols, gr).astype(np.float64)
    c_int = img[c_row.astype(int), c_col.astype(int)].copy()

    rr, cc = np.mgrid[0:h, 0:w]
    cell_r = np.clip(rr // step, 0, gr - 1)
    cell_c = np.clip(cc // step, 0, gc - 1)
    spatial_w = (compactness / step) ** 2

    labels = (cell_r * gc + cell_c).astype(np.int64)
    # own cell first so ties stay on the initialization grid
    offsets = [(0, 0)] + [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    for _ in range(n_iter):
        best_d = np.full((h, w), np.inf)
        best_l = labels.copy()
        for dr, dc in offsets:
            nr = cell_r + dr
            nc = cell_c + dc
            ok = (nr >= 0) & (nr < gr) & (nc >= 0) & (nc < gc)
            cand = np.where(ok, nr * gc + nc, 0)
            d = (img - c_int[cand]) ** 2 + spatial_w * (
                (rr - c_row[cand]) ** 2 + (cc - c_col[cand]) ** 2
            )
            d = np.where(ok, d, np.inf)
            better = d < best_d
            best_d = np.where(better, d, best_d)
            best_l = np.where(better, cand, best_l)
        labels = best_l
        counts = np.bincount(labels.ravel(), minlength=gr * gc)
        sums_i = np.bincount(labels.ravel(), weights=img.ravel(), minlength=gr * gc)
        sums_r = np.bincount(labels.ravel(), weights=rr.ravel(), minlength=gr * gc)
        sums_c = np.bincount(labels.ravel(), weights=cc.ravel(), minlength=gr * gc)
        nz = counts > 0
        c_int[nz] = sums_i[nz] / counts[nz]
        c_row[nz] = sums_r[nz] / counts[nz]
        c_col[nz] = sums_c[nz] / counts[nz]

    return _enforce_connectivity(labels)


def superpixel_records(labels, surfaces: SurfacePair) -> list:
    """Complete `Superpixel` records of an [S, H, W] label volume, in (slice, id) order.

    Each record's pixels are in raster order. A superpixel is in the retina
    when its centroid row lies in [top, bottom] at the centroid column,
    rounded half to even as Python's `round` does.
    """
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise DimensionError(f"labels must be [slices, H, W], got {labels.shape}")
    n_slices, h, w = labels.shape
    n_ids = int(labels.max(initial=0)) + 1
    key = (np.arange(n_slices)[:, None, None] * n_ids + labels).ravel()
    order = np.argsort(key, kind="stable")
    keys, starts, counts = np.unique(key[order], return_index=True, return_counts=True)
    slices, ids = np.divmod(keys, n_ids)
    order %= h * w  # pixel index within its slice
    rows, cols = np.divmod(order, w)
    centroid_r = np.add.reduceat(rows, starts) / counts
    centroid_c = np.add.reduceat(cols, starts) / counts
    col = np.clip(np.rint(centroid_c), 0, w - 1).astype(np.int64)
    in_retina = ((surfaces.top[slices, col] <= centroid_r)
                 & (centroid_r <= surfaces.bottom[slices, col]))
    return [
        Superpixel(id=lab, slice_index=s, rows=rows[a:b], cols=cols[a:b],
                   centroid=(r, c), in_retina=inside)
        for lab, s, a, b, r, c, inside in zip(
            ids.tolist(), slices.tolist(), starts.tolist(), (starts + counts).tolist(),
            centroid_r.tolist(), centroid_c.tolist(), in_retina.tolist())
    ]


@dataclass
class PreprocessedVolume:
    """Flattened, normalized volume with surfaces and per-slice superpixels."""

    data: np.ndarray  # [slices, H, W] float32 in [0,1]
    surfaces: SurfacePair  # flattened coordinates
    superpixels: list  # Superpixel, all slices, ids unique per (slice, id)


def preprocess_volume(volume_data, target_area=16, compactness=0.1,
                      smoothness=2, min_gap=2) -> PreprocessedVolume:
    """Full pipeline for one volume: surfaces, flatten, normalize, superpixels."""
    surfaces = segment_surfaces(volume_data, smoothness=smoothness, min_gap=min_gap)
    flat, fsurf = flatten(volume_data, surfaces)
    band = fsurf.band_mask(flat.shape[1])
    norm = np.stack([normalize_slice(img, mask) for img, mask in zip(flat, band)])
    labels = np.stack([slic_superpixels(img, target_area=target_area, compactness=compactness)
                       for img in norm])
    return PreprocessedVolume(data=norm.astype(np.float32), surfaces=fsurf,
                              superpixels=superpixel_records(labels, fsurf))
