"""PCA comparison embeddings: per scale, the preset's `fusion_dim // 2`
components, so the concatenated projections are as wide as the DCAE's z.

PCA keeps the top k eigenvectors of the sample covariance, in descending
eigenvalue order, each signed so that its first coordinate above 1e-12 of
its largest is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FittingError, ParameterError
from .patches import PatchDataset


@dataclass
class PcaModel:
    mean: np.ndarray  # [d]
    components: np.ndarray  # [k, d] rows are orthonormal, descending eigenvalue


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
    top = eigvecs[:, np.argsort(eigvals)[::-1][:k]].T
    mag = np.abs(top)
    first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
    negative = np.take_along_axis(top, first[:, None], axis=1) < 0
    return PcaModel(mean=mean, components=np.where(negative, -top, top))


def pca_project(model: PcaModel, x):
    """Project vector(s) onto the kept components (after mean-centering)."""
    x = np.asarray(x, dtype=np.float64)
    return (x - model.mean) @ model.components.T


@dataclass
class PcaBaseline:
    scale1: PcaModel
    scale2: PcaModel


def fit_pca_baseline(dataset: PatchDataset, mode) -> PcaBaseline:
    """Fit one PCA per scale on flattened healthy-train patches.

    `mode` must be "fixed". The benchmark passes it, so the argument stays
    until a change to the benchmark drops it.
    """
    if dataset.split != "healthy-train":
        raise FittingError(f"PCA baselines fit on healthy-train, got {dataset.split!r}")
    if mode != "fixed":
        raise ParameterError(f"mode must be 'fixed', got {mode!r}")
    n = len(dataset)
    k = dataset.preset.fusion_dim // 2
    if n < k:  # pca_fit checks this too, but an empty dataset would fail the reshape first
        raise FittingError(f"{n} samples cannot support {k} components")
    return PcaBaseline(scale1=pca_fit(dataset.scale1.reshape(n, -1), k),
                       scale2=pca_fit(dataset.scale2.reshape(n, -1), k))


def embed_batches(baseline: PcaBaseline, scale1_batch, scale2_batch):
    """Concatenated per-scale projections for stacked patch batches."""
    n = scale1_batch.shape[0]
    z1 = pca_project(baseline.scale1, scale1_batch.reshape(n, -1))
    z2 = pca_project(baseline.scale2, scale2_batch.reshape(n, -1))
    return np.concatenate([z1, z2], axis=1)
