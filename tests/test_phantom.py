"""Phantom volume generation: determinism, ground truth, benchmark splits,
and the whole-volume render against the column loops it replaced."""

import itertools

import numpy as np
import pytest

from anomkit import phantom
from anomkit.errors import GenerationError, InputError

from oracles import phantom_oracle


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

    def test_unplaceable_cyst_rejected(self):
        # a 1-slice, 11-column volume has one centre column for a size-4 cyst,
        # and its band is too thin to stack four of them there
        spec = phantom.AnomalySpec("cyst_blob", count=(4, 4), size=(4, 4))
        cfg = phantom.PhantomConfig(seed=0, anomalies=(spec,), n_slices=1, width=11, height=24)
        with pytest.raises(GenerationError, match=r"could not place cyst_blob \(size range \(4, 4\)\)"):
            phantom.generate_volume(cfg)

    @pytest.mark.parametrize("height, seed, row", [(8, 0, 10), (16, 0, 18), (24, 3, 24)])
    def test_band_below_the_volume_rejected(self, height, seed, row):
        # the band's minimum thickness pushes the bottom surface below a low
        # volume's last row
        cfg = phantom.healthy_config(seed, n_slices=4, width=64, height=height)
        with pytest.raises(GenerationError, match=f"reaches row {row}, below a volume of "
                                                  f"height {height}"):
            phantom.generate_volume(cfg)

    @pytest.mark.parametrize("spec, message", [
        (phantom.AnomalySpec("drusen", count=(1, 1), size=(8, 8)), "unknown anomaly kind 'drusen'"),
        (phantom.AnomalySpec("cyst_blob", count=(0, 1), size=(8, 8)),
         r"bad count range \(0, 1\) for cyst_blob"),
        (phantom.AnomalySpec("cyst_blob", count=(2, 1), size=(8, 8)),
         r"bad count range \(2, 1\) for cyst_blob"),
        (phantom.AnomalySpec("subsurface_fluid", count=(1, 1), size=(3, 8)),
         r"bad size range \(3, 8\) for subsurface_fluid"),
        (phantom.AnomalySpec("subsurface_fluid", count=(1, 1), size=(9, 8)),
         r"bad size range \(9, 8\) for subsurface_fluid"),
    ], ids=["kind", "count_below_one", "count_reversed", "size_below_four", "size_reversed"])
    def test_invalid_spec_rejected(self, spec, message):
        with pytest.raises(InputError, match=message):
            phantom.generate_volume(phantom.PhantomConfig(anomalies=(spec,)))

    def test_layer_intensity_validation(self):
        ints = phantom.LAYER_INTENSITIES
        assert len(ints) == len(phantom.LAYER_FRACTIONS)
        assert all(abs(x - y) >= 0.1 - 1e-9 for x, y in itertools.combinations(ints, 2))

    @pytest.mark.parametrize("kind, cfg", [
        ("surface_deformation", phantom.test_config(1, width=24)),
        ("subsurface_fluid", phantom.test_config(2, width=24)),
        ("cyst_blob", phantom.test_config(3, width=40)),
    ], ids=["surface_deformation", "subsurface_fluid", "cyst_blob"])
    def test_window_wider_than_volume_rejected(self, kind, cfg):
        with pytest.raises(GenerationError, match=f"{kind} of size \\d+ does not fit"):
            phantom.generate_volume(cfg)

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


ORACLE_SHAPES = {
    "desk": {},
    "tiny": dict(n_slices=6, height=96, width=128),  # the benchmark's TINY_SHAPE
    "4x96x128": dict(n_slices=4, height=96, width=128),
    "2x96x128": dict(n_slices=2, height=96, width=128),
    "1x96x96": dict(n_slices=1, height=96, width=96),
}
CONFIGS = {"healthy": phantom.healthy_config, "anomalous": phantom.anomalous_config,
           "test": phantom.test_config}


def _spec(kind, count, size):
    return phantom.AnomalySpec(kind, count=(count, count), size=(size, size))


CUSTOM = {
    "single_cyst": phantom.PhantomConfig(seed=7, anomalies=(_spec("cyst_blob", 1, 20),),
                                         n_slices=4),
    "unplaceable": phantom.PhantomConfig(
        seed=3, anomalies=(_spec("surface_deformation", 2, 20),), n_slices=2, width=32),
    "band_too_narrow": phantom.test_config(5, height=64),
    "band_below_volume": phantom.healthy_config(3, n_slices=4, width=64, height=24),
    "one_column": phantom.healthy_config(0, width=1),
    # the widest windows that fit: columns 2 to width - 1, and a centre range of one
    "widest_deformation": phantom.PhantomConfig(
        seed=4, anomalies=(_spec("surface_deformation", 1, 22),), n_slices=2, width=24),
    "widest_fluid": phantom.PhantomConfig(
        seed=5, anomalies=(_spec("subsurface_fluid", 1, 22),), n_slices=3, width=24),
    "widest_cyst": phantom.PhantomConfig(seed=6, anomalies=(_spec("cyst_blob", 1, 20),),
                                         n_slices=3, width=25),
}


def _outcome(generate, cfg):
    """(data, labels, top, bottom) of a render, or the type and message it raised."""
    try:
        vol, gt = generate(cfg)
    except Exception as exc:  # noqa: BLE001  the outcomes are compared, not handled
        return type(exc), str(exc)
    return vol.data, gt.labels, gt.top, gt.bottom


def _assert_same_outcome(cfg):
    got, want = _outcome(phantom.generate_volume, cfg), _outcome(phantom_oracle, cfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w


class TestAgainstOracle:
    """The whole-volume render against the slice and column loops, on the
    configs the benchmark draws and on the custom specs above."""

    @pytest.mark.parametrize("shape", list(ORACLE_SHAPES.values()), ids=list(ORACLE_SHAPES))
    @pytest.mark.parametrize("config", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_configs(self, config, shape):
        # bench seeds 1-3 draw sub-seeds seed ^ index up to 15
        for seed in range(16):
            _assert_same_outcome(config(seed, **shape))

    @pytest.mark.parametrize("cfg", list(CUSTOM.values()), ids=list(CUSTOM))
    def test_custom_specs(self, cfg):
        _assert_same_outcome(cfg)
