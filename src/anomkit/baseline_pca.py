"""PCA comparison embeddings: fixed component count per scale, or the prefix
explaining 95% of the variance per scale; projections are concatenated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FittingError, ParameterError
from .numcore import PcaModel, pca_fit, pca_project
from .patches import PatchDataset

FIXED_COMPONENTS = {"paper": 128, "desk": 16}


@dataclass
class PcaBaseline:
    mode: str  # "fixed" | "variance"
    scale1: PcaModel
    scale2: PcaModel

    @property
    def dim(self) -> int:
        return self.scale1.n_components + self.scale2.n_components


def fit_pca_baseline(dataset: PatchDataset, mode, preset=None,
                     variance_frac=0.95) -> PcaBaseline:
    """Fit one PCA per scale on flattened healthy-train patches."""
    if dataset.split != "healthy-train":
        raise FittingError(f"PCA baselines fit on healthy-train, got {dataset.split!r}")
    if mode not in ("fixed", "variance"):
        raise ParameterError(f"mode must be 'fixed' or 'variance', got {mode!r}")
    name = dataset.preset.name if preset is None else preset
    n = len(dataset)
    flat1 = dataset.scale1.reshape(n, -1).astype(np.float64)
    flat2 = dataset.scale2.reshape(n, -1).astype(np.float64)
    if mode == "fixed":
        k = FIXED_COMPONENTS.get(name)
        if k is None:
            raise ParameterError(f"no fixed component count for preset {name!r}")
        if n < k:
            raise FittingError(f"{n} samples cannot support {k} components")
        m1 = pca_fit(flat1, "fixed_k", k)
        m2 = pca_fit(flat2, "fixed_k", k)
    else:
        m1 = pca_fit(flat1, "variance_frac", variance_frac)
        m2 = pca_fit(flat2, "variance_frac", variance_frac)
    return PcaBaseline(mode=mode, scale1=m1, scale2=m2)


def embed_batches(baseline: PcaBaseline, scale1_batch, scale2_batch):
    """Concatenated per-scale projections for stacked patch batches."""
    n = scale1_batch.shape[0]
    z1 = pca_project(baseline.scale1, scale1_batch.reshape(n, -1))
    z2 = pca_project(baseline.scale2, scale2_batch.reshape(n, -1))
    return np.concatenate([z1, z2], axis=1)
