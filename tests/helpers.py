"""Shared test utilities: finite-difference oracle, error measures, float64
copies of float32 networks, superpixel records built by hand or from a
label volume's table, and preprocessed volumes with chosen superpixel
centres."""

import copy

import numpy as np

from anomkit.preprocess import PreprocessedVolume, Superpixel, SuperpixelTable, superpixel_table
from anomkit.rng import Rng


def numerical_grad(f, x, eps=1e-3):
    """Central finite differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def float64_twin(net):
    """A deep copy of `net` whose parameters are float64 copies of its own."""
    twin = copy.deepcopy(net)
    for layer in twin.layers:
        for name in ("kernels", "weight", "bias"):
            if hasattr(layer, name):
                setattr(layer, name, getattr(layer, name).astype(np.float64))
    return twin


def rel_err(a, b):
    """Max absolute difference relative to the larger magnitude scale."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def border_centres(height, width):
    """Centres on every border and corner of a [height, width] slice, in every
    column phase (c mod 4) at both ends and the middle, and on inner rows."""
    rows = sorted({0, 1, height // 2, height - 2, height - 1})
    cols = sorted({*range(4), *range(width // 2, width // 2 + 4), *range(width - 4, width)})
    return [(r, c) for r in rows for c in cols]


def centroid(sp):
    """A `Superpixel`'s (row, col) centroid as a tuple of floats, read from
    its table's row."""
    return tuple(sp.table.centroids[sp.index].tolist())


def one_record(rows, cols, id, slice_index, centroid, shape, in_retina=True):
    """A `Superpixel` that reads a one-record table of its own: one label map
    of slice shape `shape`, broadcast to slices 0 to `slice_index`, whose
    pixels (rows, cols) hold `id` and whose other pixels hold id + 1, in the
    smallest unsigned dtype that holds both, and `centroid` as given."""
    labels = np.full(shape, id + 1, dtype=np.min_scalar_type(id + 1))
    labels[rows, cols] = id
    table = SuperpixelTable(labels=np.broadcast_to(labels, (slice_index + 1, *shape)),
                            centroids=np.array([centroid], dtype=np.float64),
                            slices=np.array([slice_index]), ids=np.array([id]),
                            in_retina=np.array([in_retina]))
    return Superpixel(table, 0, id, slice_index, in_retina)


def table_records(labels, surfaces):
    """The `Superpixel` records of an [S, H, W] label volume's table, as a
    preprocessed volume builds them."""
    return PreprocessedVolume(None, surfaces, superpixel_table(labels, surfaces)).superpixels


def centre_volume(centres, width, height=20, seed=0):
    """A PreprocessedVolume of random [height, width] slices, one per list in
    `centres`, whose table holds an in-retina one-pixel superpixel at each
    (row, col) of its slice's list, with ids counting from 0 per slice; the
    other pixels hold the length of the longest list, no superpixel's id."""
    data = Rng(seed).uniform(size=(len(centres), height, width)).astype(np.float32)
    at = np.array([rc for slice_centres in centres for rc in slice_centres],
                  dtype=np.int64).reshape(-1, 2)
    slices = np.repeat(np.arange(len(centres)), [len(c) for c in centres])
    ids = np.concatenate([np.arange(len(c)) for c in centres])
    none = max(map(len, centres))
    labels = np.full(data.shape, none, dtype=np.min_scalar_type(none))
    labels[slices, at[:, 0], at[:, 1]] = ids
    table = SuperpixelTable(labels=labels, centroids=at.astype(np.float64), slices=slices,
                            ids=ids, in_retina=np.ones(len(at), bool))
    return PreprocessedVolume(data=data, surfaces=None, table=table)
