"""Per-volume normalization pipeline.

Order of operations for one volume: find the top/bottom retina surfaces
(dynamic programming on vertical-gradient cost images), flatten every column
onto the deepest bottom row, normalize each slice's intensity into [0,1] by
robust percentiles, then oversegment each slice into superpixels. The
functions take only their data; their settings are module constants. The
surface search covers the whole [S, H, W] volume at once: one in-slice box
filter of side SMOOTH_WINDOW and one vertical gradient, then one column sweep
of the dynamic program for the top surfaces of all slices and one for the
bottom surfaces, which keep MIN_GAP rows below the top; both change by at
most SMOOTHNESS rows from one column to the next. A non-finite voxel is
rejected with InputError before any of this.

The module, and with it the package, runs on numpy alone. Its two scipy
calls were the box filter, `ndimage.uniform_filter`, and the component
labelling of the orphan merge, `ndimage.label`, and importing
`scipy.ndimage` for them cost every process 19 MB of RSS and about 0.3 s:
importing every module of the package read 55.1 MB and 0.51-0.56 s with it
and 36.1 MB and 0.18-0.23 s without (five fresh processes each, 2-core Xeon,
numpy 2.4, scipy 1.17). `_box_smooth` gives scipy's bits: it filters the
rows, then the columns, each with scipy's running sums (`_running_means`),
one vector add per step over all lines of the pass at once.
`_connected_regions` joins the same-label runs of touching rows by hooking
roots with `np.minimum.at`, where scipy labelled a grid of pixel and edge
nodes. Both are faster than the
scipy calls were: 0.99 against 1.17 ms per desk volume for the filter, and
0.36 against 0.44 ms per 128x128 SLIC slice for the components (medians of
30 interleaved runs).

SLIC runs N_ITER k-means iterations from a grid of STEP-pixel cells, with
spatial weight COMPACTNESS, each pixel restricted to the centres of its 3x3
neighbouring cells (Achanta et al., TPAMI 2012). It takes no data-dependent
branch per pixel: on a 128x128 float64 slice, an `np.where` select took
78 us against 6 us for `np.minimum` (2-core Xeon, numpy 2.4), and two
selects per candidate were most of the earlier loop's time. A stack of
slices is laid out once as [slice, row phase, col phase, grid row, grid
col], pixel (STEP*i + a, STEP*j + b) of slice s at [s, a, b, i, j]; rows and
columns clipped into the last cell are extra phases, and positions no pixel
fills are virtual and dropped on the way back to raster order. Each
candidate's centres are then one slice of a [S, 1, 1, gr+2, gc+2] centre
grid with a one-cell border whose row is inf, so an off-grid candidate lies
at infinite distance, and the row and column terms are computed per phase
of their own axis, into buffers allocated once. Each pixel takes the first
of its nine candidates whose distance equals their minimum, the tie rule of
a sequential strict `<` sweep, and the centres are updated from one
`bincount` per sum over the keys slice * gr * gc + label, whose bins each
receive their own slice's pixels in raster order, as the sequential loop
added them; so every slice's labels are those of SLIC on that slice alone.
The label map of each slice is made connected by an orphan merge over its
4-connected components, numbered in raster order. Each label keeps its
largest component (ties to the lowest component id), and the other
components settle in rounds, each taking the label of its largest
already-settled neighbour by original area (ties to the lowest component
id), so the result does not depend on visiting order. `superpixel_records`
turns the stacked [S, H, W] label volume into complete `Superpixel` records
in one pass, keyed by slice * n_ids + id in the smallest unsigned dtype that
holds every key (numpy radix-sorts keys of 16 bits or fewer; a desk volume
has 8 x 1,024 keys): the pixel order from one stable argsort, counts and
centroid sums from `np.bincount` (the sums are integer-valued, so exact),
and the in-retina flag from one vectorized band comparison at the rounded
centroid column. The records share the volume's (rows, cols) arrays in that
order, and each keeps its (start, stop) in them and cuts its `rows` and
`cols` on access. On a desk volume this took 12-17 ms against 24-31 ms when
every record held two array views of its own (medians of 30 interleaved
calls in each of two runs, 2-core Xeon); about 3.7 ms of 12 is Python's
cyclic garbage collector, which the 8,192 new records set off.

`preprocess_volume` runs SLIC on the first half of a volume's slices on a
thread started for the call (`_fork.both`) and on the second half on the
caller's thread; numpy's ufuncs release the GIL, so the halves overlap on
two cores. An error is raised only once both halves have ended, the first
half's first, and the empty first half of a 1-slice volume does no work. A
half runs as stacks, not one slice at a time, and a stack goes through SLIC
at most SLIC_PIXELS pixels (four 128x128 slices; a larger slice goes alone)
per pass, which keeps the [9, S, ...] float64 distance array at or below
4.7 MB per thread. SLIC of one 8x128x128 volume (2-core Xeon, one BLAS
thread, medians of 5 passes over 10 volumes, two runs):

- one slice per call, one thread: 125-143 ms;
- one slice per task on two threads: 96-113 ms, at 149-179 ms of CPU (each
  op covers one slice's 16k pixels between GIL hand-offs);
- one 8-slice stack on one thread: 135-140 ms, against 120-133 ms for its
  two 4-slice halves one after the other;
- the two halves on two threads: 77-78 ms at 136-141 ms of CPU.

On one core (`taskset -c 0`) the halves took 139-163 ms against 134-151 ms
one slice per call, and the whole of `preprocess_volume`, interleaved with
the one-slice version in one process, took 182-220 ms against 182-220 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fork import both
from .errors import DimensionError, InputError, SegmentationError
from .numcore.ops import first_equal

SMOOTHNESS = 2
MIN_GAP = 2
SMOOTH_WINDOW = 3
STEP = 4
COMPACTNESS = 0.1
N_ITER = 10
SLIC_PIXELS = 65_536  # pixels per SLIC pass: four 128x128 slices; see the module docstring


@dataclass
class SurfacePair:
    """Per-column row indices of the retina's top and bottom boundary."""

    top: np.ndarray  # [slices, width] int
    bottom: np.ndarray  # [slices, width] int

    def band_mask(self, height):
        """Boolean [slices, height, width] mask of rows in [top, bottom]."""
        rows = np.arange(height)[None, :, None]
        return (rows >= self.top[:, None, :]) & (rows <= self.bottom[:, None, :])


class Superpixel:
    """One superpixel of one slice: its id, its fractional (row, col) centroid,
    whether it lies in the retina, and its pixels' `rows` and `cols` in raster
    order. The pixels are the (start, stop) span of the (rows, cols) arrays
    `pixels`, which `superpixel_records` shares across a volume's records, and
    are cut from them on access."""

    __slots__ = ("id", "slice_index", "centroid", "in_retina", "_pixels", "_start", "_stop")

    def __init__(self, pixels, id, slice_index, start, stop, centroid, in_retina):
        self.id, self.slice_index = id, slice_index
        self.centroid, self.in_retina = centroid, in_retina
        self._pixels, self._start, self._stop = pixels, start, stop

    @property
    def rows(self):
        return self._pixels[0][self._start : self._stop]

    @property
    def cols(self):
        return self._pixels[1][self._start : self._stop]

    def __repr__(self):
        return (f"Superpixel(id={self.id}, slice_index={self.slice_index}, "
                f"centroid={self.centroid}, in_retina={self.in_retina}, "
                f"pixels={self._stop - self._start})")


def _min_cost_paths(cost):
    """Min-cost left-to-right path through each slice of cost [S, H, W].

    The row changes by at most SMOOTHNESS per column. Ties break toward the
    smallest row offset, then the smallest row, so the result is
    deterministic. Returns [S, W] rows; raises SegmentationError when a
    slice has no finite path under the cost mask.

    The forward sweep keeps only each column's least path costs, the
    `np.minimum` of the 2 * SMOOTHNESS + 1 shifted rows of the column before;
    the backtrack takes the first minimum of that window at the path's row
    alone, so it picks the offset an argmin over every row would. Those
    costs, [W, S, H + 2 * SMOOTHNESS] float64, are about one float64 copy of
    the volume, against an int8 offset per voxel for a sweep that takes each
    column's argmin, which ran twice as long (2.5 against 4.7 ms on an
    [8, 128, 128] cost, 2-core Xeon). `segment_surfaces` drops its smoothed
    image instead, so its peak stays below that of the argmin sweep: 48 MiB
    against 50 MiB traced on a [4, 1024, 512] float64 volume of 16 MiB.
    """
    n_slices, h, w = cost.shape
    b = SMOOTHNESS
    cols = np.moveaxis(cost, 2, 0)  # [W, S, H]
    # dist[c, s, b + r]: least cost of a path to row r of column c, b rows of inf on each side
    height = h + 2 * b
    dist = np.full((w, n_slices, height), np.inf)
    dist[0, :, b : b + h] = cols[0]
    for c in range(1, w):
        prev, best = dist[c - 1], dist[c, :, b : b + h]
        np.minimum(prev[:, :h], prev[:, 1 : h + 1], out=best)
        for k in range(2, 2 * b + 1):
            np.minimum(best, prev[:, k : k + h], out=best)
        best += cols[c]
    last = dist[-1, :, b : b + h]
    lost = ~np.isfinite(last).any(axis=1)
    if lost.any():
        raise SegmentationError(f"slice {np.argmax(lost)}: no finite-cost path")
    paths = np.empty((n_slices, w), dtype=np.int64)
    paths[:, -1] = last.argmin(axis=1)
    # rows r - b .. r + b of slice s in a padded column: flat r + window[s]
    window = height * np.arange(n_slices)[:, None] + np.arange(2 * b + 1)
    flat = dist.reshape(w, -1)
    for c in range(w - 1, 0, -1):
        offset = flat[c - 1].take(window + paths[:, c, None]).argmin(axis=1) - b
        paths[:, c - 1] = paths[:, c] + offset
    return paths


def _check_finite(data):
    """Raise InputError naming the first non-finite value of `data`, if any."""
    finite = np.isfinite(data)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), data.shape)
        raise InputError(f"non-finite value {data[at]} at index {tuple(map(int, at))}")


def _running_means(a):
    """Means of the SMOOTH_WINDOW lines around each line along axis 0 of `a`,
    edges extended, as a new contiguous array.

    The arithmetic is `ndimage.uniform_filter1d`'s with mode "nearest": each
    line is extended by size // 2 entries before and size - size // 2 - 1
    after, its first sum is ((0.0 + e0) + e1) + ..., each later sum adds
    e[j + size - 1] - e[j - 1] to the one before, and every sum is divided by
    the size. With the lines along axis 0, each step of the running sum is one
    vector add over all of them.
    """
    size, n = SMOOTH_WINDOW, len(a)
    extended = a.take(np.arange(-(size // 2), n + size - 1 - size // 2).clip(0, n - 1), axis=0)
    sums = np.empty(a.shape)
    first = np.add(extended[0], 0.0, out=sums[0])
    for line in extended[1:size]:
        first += line
    np.subtract(extended[size:], extended[: n - 1], out=sums[1:])
    steps = list(sums)
    for prev, step in zip(steps, steps[1:]):
        np.add(prev, step, out=step)
    sums /= size
    return sums


def _box_smooth(vol):
    """Mean over the SMOOTH_WINDOW x SMOOTH_WINDOW in-slice box around each
    voxel of a float64 [S, H, W] volume, edges extended: bit for bit
    `ndimage.uniform_filter(vol, size=(1, SMOOTH_WINDOW, SMOOTH_WINDOW),
    mode="nearest")`, which filters the rows first, then the columns.

    Each pass runs on a copy whose filtered axis leads, so every step of a
    running sum is one add over all S x W (or S x H) lines; the result is
    a [S, H, W] view of a [W, S, H] array. The second pass holds three
    volume-sized arrays besides `vol`, as the path search after it does:
    `segment_surfaces` peaked at 48 MiB traced on a [4, 1024, 512] float64
    volume with this filter and with scipy's.
    """
    rows = _running_means(vol.transpose(1, 0, 2))  # [H, S, W]
    return _running_means(rows.transpose(2, 1, 0)).transpose(1, 2, 0)


def segment_surfaces(volume_data) -> SurfacePair:
    """Locate top and bottom retina surfaces in every slice.

    The top surface follows the strongest dark-to-bright vertical transition,
    the bottom the strongest bright-to-dark transition at least MIN_GAP rows
    below the top.
    """
    vol = np.asarray(volume_data, dtype=np.float64)
    if vol.ndim != 3:
        raise DimensionError(f"volume must be [slices, H, W], got {vol.shape}")
    h = vol.shape[1]
    if h < 8:
        raise DimensionError(f"need at least 8 rows per column, got {h}")
    _check_finite(vol)

    # the smoothed image gets no name, so it is freed before the path costs are built
    grad = np.gradient(_box_smooth(vol), axis=1)
    flat = np.abs(grad).max(axis=(1, 2)) < 1e-9
    if flat.any():
        raise SegmentationError(f"slice {np.argmax(flat)}: no gradient evidence (constant image)")
    top = _min_cost_paths(-grad)
    rows = np.arange(h)[None, :, None]
    bottom = _min_cost_paths(np.where(rows < top[:, None, :] + MIN_GAP, np.inf, grad))
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
    """(count, map) of the 4-connected same-label components of a 2-D label
    map, numbered from 0 in raster order of their first pixel.

    A run is a maximal same-label stretch of one row; runs are numbered in
    raster order of their first pixel, and each starts as its own root. Two
    runs of touching rows are joined where a column holds the same label in
    both; only the first such column of each pair of runs is kept, since the
    label changes in neither row until one of them starts a run. Each round
    hooks the larger root of every joined pair that still has two roots onto
    the smaller (`np.minimum.at`), then jumps pointers until every run points
    at its root. A root is only ever hooked onto a smaller one, so each
    component's root is its lowest-numbered run, the run of its first pixel,
    and a cumulative count over the roots numbers the components in raster
    order.
    """
    h, w = labels.shape
    starts = np.ones((h, w), dtype=bool)
    np.not_equal(labels[:, 1:], labels[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    run = np.repeat(np.arange(len(first)), np.diff(first, append=h * w)).reshape(h, w)
    joined = (labels[:-1] == labels[1:]) & (starts[:-1] | starts[1:])
    a, b = run[:-1][joined], run[1:][joined]
    root = np.arange(len(first))
    while True:
        a, b = root[a], root[b]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    number = np.cumsum(root == np.arange(len(first))) - 1
    return int(number[-1]) + 1, number[root][run]


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


# each candidate centre's cell offset (dr, dc); own cell first so ties stay
# on the initialization grid
_OFFSETS = [(0, 0)] + [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]


def _axis_phases(n):
    """Phase layout of one axis of n > STEP pixels.

    Grid cells are STEP pixels wide; pixels past the last grid point's cell
    are clipped into it, so the last cell holds STEP // 2 + 1 to
    STEP // 2 + STEP pixels. Returns (cells, pos): pos[a, i] is pixel STEP * i + a, phase a of
    cell i, for phases up to the widest cell; a position no pixel fills is
    virtual and holds n.
    """
    cells = len(range(STEP // 2, n, STEP))
    last = n - STEP * (cells - 1)
    phase = np.arange(max(STEP, last))[:, None]
    cell = np.arange(cells)
    pos = STEP * cell + phase
    real = np.where(cell == cells - 1, phase < last, phase < STEP)
    return cells, np.where(real, pos, n)


def _slic_stack(stack):
    """SLIC labels [S, H, W] of a finite float64 stack of slices wider and
    taller than STEP, all slices in one phase layout."""
    n, h, w = stack.shape
    gr, pos_r = _axis_phases(h)
    gc, pos_c = _axis_phases(w)
    # pixel (STEP*i + a, STEP*j + b) of slice s sits at [s, a, b, i, j];
    # virtual positions read the zero pad at row h or column w
    at = (pos_r[:, None, :, None], pos_c[None, :, None, :])
    phased = np.pad(stack, ((0, 0), (0, 1), (0, 1)))[(slice(None),) + at]
    rows, cols = (p.astype(np.float64) for p in at)
    where = np.empty((h + 1, w + 1), dtype=np.int64)
    where[at] = np.arange(phased[0].size).reshape(phased.shape[1:])
    to_raster = where[:h, :w].ravel()  # phase-layout index of each raster pixel

    # centre grids with a one-cell border, one per slice; a candidate's key
    # is its pixel's own cell key plus its shift, and slice s's cells are
    # keyed s * gr * gc + label
    grids = (n, 1, 1, gr + 2, gc + 2)
    c_int, c_row, c_col = np.zeros(grids), np.full(grids, np.inf), np.zeros(grids)
    inner = (Ellipsis, slice(1, gr + 1), slice(1, gc + 1))
    grid_rows = np.arange(STEP // 2, h, STEP)
    grid_cols = np.arange(STEP // 2, w, STEP)
    c_row[inner] = grid_rows[:, None]
    c_col[inner] = grid_cols
    c_int[inner] = stack[:, grid_rows[:, None], grid_cols][:, None, None]
    first_key = gr * gc * np.arange(n)
    own = (first_key[:, None] + np.arange(gr * gc)).reshape(n, 1, 1, gr, gc)
    shift = np.array([dr * gc + dc for dr, dc in _OFFSETS])

    weights = [stack.ravel()] + [a.ravel() for a in np.indices(stack.shape, dtype=np.float64)[1:]]
    spatial_w = (COMPACTNESS / STEP) ** 2
    dist = np.empty((len(_OFFSETS),) + phased.shape)
    nearest = np.empty(phased.shape)
    spatial = np.empty(phased.shape)
    d_row = np.empty(np.broadcast_shapes(rows.shape, own.shape))
    d_col = np.empty(np.broadcast_shapes(cols.shape, own.shape))
    for _ in range(N_ITER):
        for d, (dr, dc) in zip(dist, _OFFSETS):
            near = (Ellipsis, slice(1 + dr, 1 + dr + gr), slice(1 + dc, 1 + dc + gc))
            # each broadcast op as a copy and an in-place op, which is faster
            np.copyto(d, phased)
            d -= c_int[near]
            np.square(d, out=d)
            np.copyto(d_row, rows)
            d_row -= c_row[near]
            np.square(d_row, out=d_row)
            np.copyto(d_col, cols)
            d_col -= c_col[near]
            np.square(d_col, out=d_col)
            np.copyto(spatial, d_row)
            spatial += d_col
            spatial *= spatial_w
            d += spatial
        np.min(dist, axis=0, out=nearest)
        keys = own + np.take(shift, first_equal(dist, nearest))
        keys = np.take(keys.reshape(n, -1), to_raster, axis=1).ravel()
        counts = np.bincount(keys, minlength=n * gr * gc)
        nz = counts > 0
        for grid, weight in zip((c_int, c_row, c_col), weights):
            sums = np.bincount(keys, weights=weight, minlength=n * gr * gc)
            flat = grid[inner].ravel()
            flat[nz] = sums[nz] / counts[nz]
            grid[inner] = flat.reshape(own.shape)

    labels = keys.reshape(n, h, w) - first_key[:, None, None]
    return np.stack([_enforce_connectivity(slice_labels) for slice_labels in labels])


def slic_superpixels(stack):
    """SLIC oversegmentation of each slice of an [S, H, W] stack into
    superpixels of about STEP**2 pixels.

    k-means in (intensity, row, col) with distance
    sqrt(d_int^2 + (COMPACTNESS/STEP)^2 * d_spatial^2), initialized on a
    regular STEP-grid and restricted to the 3x3 neighbourhood of each pixel's
    grid cell, for N_ITER iterations; each pixel takes its nearest candidate,
    the first in `_OFFSETS` order on ties. Connectivity is enforced
    afterwards. Returns the [S, H, W] int label maps; superpixel ids follow
    grid order within each slice and need not be contiguous. Each slice's
    labels depend on that slice alone, and the procedure is deterministic.

    Runs in the phase layout of the module docstring, on at most SLIC_PIXELS
    pixels (and at least one slice) per pass. Raises InputError on a
    non-finite pixel. The labels equal those of the sequential candidate
    sweep (`tests/oracles.slic_oracle`) on every slice whose squared
    intensity differences stay finite.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise DimensionError(f"stack must be [slices, H, W], got {stack.shape}")
    _check_finite(stack)
    n, h, w = stack.shape
    labels = np.zeros(stack.shape, dtype=np.int64)
    if h <= STEP or w <= STEP:
        return labels
    per_pass = max(1, SLIC_PIXELS // (h * w))
    for start in range(0, n, per_pass):
        labels[start : start + per_pass] = _slic_stack(stack[start : start + per_pass])
    return labels


def superpixel_records(labels, surfaces: SurfacePair) -> list:
    """Complete `Superpixel` records of an [S, H, W] label volume, in (slice, id) order.

    Each record's pixels are in raster order. A superpixel is in the retina
    when its centroid row lies in [top, bottom] at the centroid column,
    rounded half to even as Python's `round` does. Labels are non-negative
    ids, as SLIC numbers them: the keys slice * (max id + 1) + id each get a
    bin of `np.bincount`.
    """
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise DimensionError(f"labels must be [slices, H, W], got {labels.shape}")
    n_slices, h, w = labels.shape
    n_ids = int(labels.max(initial=0)) + 1
    n_keys = n_slices * n_ids
    # the smallest unsigned dtype that holds every key: numpy radix-sorts keys
    # of 16 bits or fewer
    key = labels.reshape(n_slices, h * w).astype(np.min_scalar_type(n_keys - 1))
    key += (np.arange(n_slices) * n_ids).astype(key.dtype)[:, None]
    key = key.ravel()
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n_keys)
    keys = np.flatnonzero(counts)
    counts = counts[keys]
    stops = np.cumsum(counts)
    slices, ids = np.divmod(keys, n_ids)
    # each pixel's row and column; their sums are integer-valued, so exact
    centroid_r, centroid_c = (
        np.bincount(key, weights=np.tile(at.ravel(), n_slices), minlength=n_keys)[keys] / counts
        for at in np.indices((h, w), dtype=np.float64))
    col = np.clip(np.rint(centroid_c), 0, w - 1).astype(np.int64)
    in_retina = ((surfaces.top[slices, col] <= centroid_r)
                 & (centroid_r <= surfaces.bottom[slices, col]))
    pixels = np.divmod(order % (h * w), w)  # (rows, cols) in record order
    return list(map(Superpixel, repeat(pixels), ids.tolist(), slices.tolist(),
                    (stops - counts).tolist(), stops.tolist(),
                    zip(centroid_r.tolist(), centroid_c.tolist()), in_retina.tolist()))


@dataclass
class PreprocessedVolume:
    """Flattened, normalized volume with surfaces and per-slice superpixels."""

    data: np.ndarray  # [slices, H, W] float32 in [0,1]
    surfaces: SurfacePair  # flattened coordinates
    superpixels: list  # Superpixel, all slices, in (slice, id) order: build_dataset relies on it


def preprocess_volume(volume_data) -> PreprocessedVolume:
    """Full pipeline for one volume: surfaces, flatten, normalize, superpixels."""
    surfaces = segment_surfaces(volume_data)
    flat, fsurf = flatten(volume_data, surfaces)
    band = fsurf.band_mask(flat.shape[1])
    norm = np.stack([normalize_slice(img, mask) for img, mask in zip(flat, band)])
    half = len(norm) // 2
    labels = np.concatenate(both(lambda: slic_superpixels(norm[:half]),
                                 lambda: slic_superpixels(norm[half:]), "preprocess-slic"))
    return PreprocessedVolume(data=norm.astype(np.float32), surfaces=fsurf,
                              superpixels=superpixel_records(labels, fsurf))
