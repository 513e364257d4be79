"""Shared test utilities: finite-difference oracle, error measures, float64
copies of float32 networks, and preprocessed volumes with chosen superpixel
centres."""

import copy

import numpy as np

from anomkit.preprocess import PreprocessedVolume, Superpixel
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


def centre_volume(centres, width, height=20, seed=0):
    """A PreprocessedVolume of random [height, width] slices, one per list in
    `centres`, with an in-retina one-pixel superpixel at each (row, col) of
    its slice's list."""
    data = Rng(seed).uniform(size=(len(centres), height, width)).astype(np.float32)
    superpixels = [Superpixel(pixels=(np.array([r]), np.array([c])), id=i, slice_index=s,
                              start=0, stop=1, centroid=(float(r), float(c)), in_retina=True)
                   for s, slice_centres in enumerate(centres)
                   for i, (r, c) in enumerate(slice_centres)]
    return PreprocessedVolume(data=data, surfaces=None, superpixels=superpixels)
