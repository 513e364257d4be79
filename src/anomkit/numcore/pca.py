"""Principal component analysis on dense data matrices: the top k components
of the sample covariance, with a deterministic sign per component."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FittingError


@dataclass
class PcaModel:
    mean: np.ndarray  # [d]
    components: np.ndarray  # [k, d] rows are orthonormal, descending eigenvalue

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def _fix_signs(components):
    """Make the first non-negligible coordinate of each component positive."""
    out = components.copy()
    for i, v in enumerate(out):
        scale = np.abs(v).max()
        if scale == 0:
            continue
        nz = np.nonzero(np.abs(v) > 1e-12 * scale)[0]
        if nz.size and v[nz[0]] < 0:
            out[i] = -v
    return out


def pca_fit(data, k) -> PcaModel:
    """Fit PCA on rows of `data`, keeping the top `k` components (k <= d)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise FittingError(f"data must be a 2-d matrix, got shape {data.shape}")
    n, d = data.shape
    if n < 2:
        raise FittingError(f"need at least 2 samples, got {n}")
    k = int(k)
    if not 1 <= k <= d:
        raise FittingError(f"k must be in [1, {d}], got {k}")
    if k > n:
        raise FittingError(f"k={k} exceeds sample count {n}")

    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    components = _fix_signs(eigvecs[:, order].T)
    return PcaModel(mean=mean, components=components[:k])


def pca_project(model: PcaModel, x):
    """Project vector(s) onto the kept components (after mean-centering)."""
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T
