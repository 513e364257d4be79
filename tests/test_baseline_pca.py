"""PCA comparison embeddings."""

import numpy as np
import pytest

from anomkit import baseline_pca, patches
from anomkit.baseline_pca import pca_project
from anomkit.errors import FittingError, ParameterError
from anomkit.presets import PRESETS
from anomkit.rng import Rng


def _dataset(n, split="healthy-train", seed=70, preset="desk"):
    """Random patch pairs of the preset's side, each crop its own one-phase
    map, read at corner (i, 0, 0, 0)."""
    rng = Rng(seed)
    p = PRESETS[preset]
    side = p.patch_side
    scales = []
    for s in range(2):
        x = rng.uniform(size=(n, side * side))
        scales.append(list(x.reshape(n, 1, side, side).astype(np.float32)))
    corners = np.zeros((n, 4), np.int64)
    corners[:, 0] = np.arange(n)
    return patches.PatchDataset(
        maps=patches.PatchMaps(*scales, corners), sources=[("v", 0, i) for i in range(n)],
        split=split, preset=p,
    )


class TestFit:
    def test_fixed_mode_dims(self):
        # the PCA comparison is exactly as wide as the DCAE's feature vector z
        for name, n in (("desk", 60), ("paper", 140)):
            base = baseline_pca.fit_pca_baseline(_dataset(n, preset=name), "fixed")
            fusion_dim = PRESETS[name].fusion_dim
            assert base.scale1.components.shape[0] == fusion_dim // 2
            assert base.scale2.components.shape[0] == fusion_dim // 2

    def test_non_healthy_split_rejected(self):
        with pytest.raises(FittingError):
            baseline_pca.fit_pca_baseline(_dataset(60, split="eval"), "fixed")

    def test_fewer_samples_than_components_rejected(self):
        # pca_fit's own checks: a short dataset, and an empty one
        k = PRESETS["desk"].fusion_dim // 2
        for n, message in ((k - 1, rf"k={k} exceeds sample count {k - 1}"),
                           (0, r"need at least 2 samples, got 0")):
            with pytest.raises(FittingError, match=message):
                baseline_pca.fit_pca_baseline(_dataset(n), "fixed")

    def test_unknown_mode_rejected(self):
        for mode in ("whitened", "variance"):
            with pytest.raises(ParameterError):
                baseline_pca.fit_pca_baseline(_dataset(60), mode)


def test_embed_batches_concatenates_per_scale_projections():
    ds = _dataset(60)
    base = baseline_pca.fit_pca_baseline(ds, "fixed")
    other = _dataset(9, seed=71)
    z = baseline_pca.embed_batches(base, other.scale1, other.scale2)
    expected = np.concatenate([
        pca_project(base.scale1, other.scale1.reshape(9, -1)),
        pca_project(base.scale2, other.scale2.reshape(9, -1)),
    ], axis=1)
    assert z.shape == (9, PRESETS["desk"].fusion_dim)
    assert np.array_equal(z, expected)
