"""Phantom volume generation: determinism, ground truth, benchmark splits."""

import numpy as np
import pytest

from anomkit import phantom
from anomkit.errors import GenerationError, InputError
from anomkit.rng import Rng


class TestGenerateVolume:
    def test_no_anomalies_empty_mask(self):
        vol, gt = phantom.generate_volume(phantom.healthy_config(5))
        assert not gt.mask.any()
        assert vol.data.shape == (8, 128, 128)
        assert vol.data.dtype == np.float32

    def test_same_seed_bitwise_identical(self):
        cfg = phantom.test_config(11)
        v1, g1 = phantom.generate_volume(cfg)
        v2, g2 = phantom.generate_volume(cfg)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(g1.labels, g2.labels)

    def test_single_cyst_mask_area(self):
        spec = phantom.AnomalySpec("cyst_blob", count=(1, 1), size=(20, 20))
        cfg = phantom.PhantomConfig(seed=7, anomalies=(spec,), n_slices=4)
        _, gt = phantom.generate_volume(cfg)
        # ellipse semi-axes a=10, b=5 per slice; extent 2..3 slices
        per_slice = np.pi * 10 * 5
        n_slices_hit = len(np.unique(np.nonzero(gt.mask)[0]))
        expected = per_slice * n_slices_hit
        area = int(gt.mask.sum())
        assert 0.5 * expected <= area <= 1.5 * expected

    def test_surfaces_single_valued_and_ordered(self):
        _, gt = phantom.generate_volume(phantom.test_config(13))
        assert np.all(gt.top < gt.bottom)
        assert np.all(gt.top >= 0)
        assert np.all(gt.bottom < 128)

    def test_mask_iff_typed(self):
        _, gt = phantom.generate_volume(phantom.test_config(17))
        assert np.array_equal(gt.mask, gt.labels != phantom.TYPE_NONE)

    def test_unplaceable_anomalies_rejected(self):
        # on two slices every window spans both; a 32-column volume has room
        # for one 20-column deformation, so the second cannot be placed
        spec = phantom.AnomalySpec("surface_deformation", count=(2, 2), size=(20, 20))
        cfg = phantom.PhantomConfig(seed=3, anomalies=(spec,), n_slices=2, width=32)
        with pytest.raises(GenerationError, match="surface_deformation"):
            phantom.generate_volume(cfg)

    def test_layer_intensity_validation(self):
        cfg = phantom.PhantomConfig(layer_intensities=(0.5, 0.55, 0.9, 0.3),
                                    layer_fractions=(0.25, 0.25, 0.25, 0.25))
        with pytest.raises(InputError):
            cfg.validate()

    def test_anomaly_fraction_in_band(self):
        for seed in (42, 43, 44):
            _, gt = phantom.generate_volume(phantom.test_config(seed))
            retina = int((gt.bottom - gt.top + 1).sum())
            frac = gt.mask.sum() / retina
            assert 0.01 <= frac <= 0.20


@pytest.fixture(scope="module")
def bench():
    return phantom.generate_benchmark(seed=42, n_healthy=3, n_anomalous=3, n_test=3)


class TestBenchmark:
    def test_split_sizes(self, bench):
        assert (len(bench.healthy), len(bench.anomalous), len(bench.test)) == (3, 3, 3)

    def test_healthy_volumes_clean(self, bench):
        for _, gt in bench.healthy:
            assert not gt.mask.any()

    def test_test_split_has_all_types(self, bench):
        types = set()
        for _, gt in bench.test:
            types |= set(np.unique(gt.labels).tolist())
        assert {phantom.TYPE_CYST, phantom.TYPE_FLUID, phantom.TYPE_DEFORMATION} <= types

    def test_volume_ids_unique(self, bench):
        ids = [v.volume_id for v, _ in bench.healthy + bench.anomalous + bench.test]
        assert len(set(ids)) == len(ids)
