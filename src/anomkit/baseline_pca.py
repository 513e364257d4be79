"""PCA comparison embeddings: per scale, the preset's `fusion_dim // 2`
components, so the concatenated projections are as wide as the DCAE's z."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FittingError, ParameterError
from .numcore import PcaModel, pca_fit, pca_project
from .patches import PatchDataset


@dataclass
class PcaBaseline:
    scale1: PcaModel
    scale2: PcaModel

    @property
    def dim(self) -> int:
        return self.scale1.n_components + self.scale2.n_components


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
    if n < k:
        raise FittingError(f"{n} samples cannot support {k} components")
    flat1 = dataset.scale1.reshape(n, -1).astype(np.float64)
    flat2 = dataset.scale2.reshape(n, -1).astype(np.float64)
    return PcaBaseline(scale1=pca_fit(flat1, k), scale2=pca_fit(flat2, k))


def embed_batches(baseline: PcaBaseline, scale1_batch, scale2_batch):
    """Concatenated per-scale projections for stacked patch batches."""
    n = scale1_batch.shape[0]
    z1 = pca_project(baseline.scale1, scale1_batch.reshape(n, -1))
    z2 = pca_project(baseline.scale2, scale2_batch.reshape(n, -1))
    return np.concatenate([z1, z2], axis=1)
