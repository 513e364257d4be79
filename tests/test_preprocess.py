"""Surface segmentation, flattening, normalization, SLIC superpixels."""

import numpy as np
import pytest

from anomkit import phantom, preprocess
from anomkit.errors import InputError, SegmentationError
from anomkit.rng import Rng


class TestSegmentSurfaces:
    def test_flat_phantom_within_one_pixel(self):
        cfg = phantom.PhantomConfig(seed=3, boundary_amplitude=0.0, slice_drift=0.0)
        vol, gt = phantom.generate_volume(cfg)
        surf = preprocess.segment_surfaces(vol.data)
        assert np.abs(surf.top - gt.top).mean() <= 1.0
        assert np.abs(surf.bottom - gt.bottom).mean() <= 1.0

    def test_undulating_phantom_within_one_pixel(self):
        vol, gt = phantom.generate_volume(phantom.healthy_config(9))
        surf = preprocess.segment_surfaces(vol.data)
        assert np.abs(surf.top - gt.top).mean() <= 1.0
        assert np.abs(surf.bottom - gt.bottom).mean() <= 1.0

    def test_constant_volume_rejected(self):
        with pytest.raises(SegmentationError):
            preprocess.segment_surfaces(np.full((2, 32, 32), 0.5))

    def test_translation_equivariance(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(10))
        surf = preprocess.segment_surfaces(vol.data)
        shifted = np.concatenate(
            [np.repeat(vol.data[:, :1, :], 5, axis=1), vol.data[:, :-5, :]], axis=1
        )
        surf2 = preprocess.segment_surfaces(shifted)
        assert np.array_equal(surf2.top, surf.top + 5)
        assert np.array_equal(surf2.bottom, surf.bottom + 5)

    def test_ordering_and_smoothness_by_construction(self):
        vol, _ = phantom.generate_volume(phantom.test_config(12))
        surf = preprocess.segment_surfaces(vol.data, smoothness=2)
        assert np.all(surf.top < surf.bottom)
        assert np.abs(np.diff(surf.top, axis=1)).max() <= 2
        assert np.abs(np.diff(surf.bottom, axis=1)).max() <= 2

    def test_too_few_rows(self):
        from anomkit.errors import DimensionError

        with pytest.raises(DimensionError):
            preprocess.segment_surfaces(np.zeros((1, 4, 16)))


class TestFlatten:
    def test_already_flat_is_identity(self):
        rng = Rng(20)
        vol = rng.uniform(size=(2, 16, 8)).astype(np.float32)
        surf = preprocess.SurfacePair(
            top=np.full((2, 8), 3), bottom=np.full((2, 8), 12)
        )
        flat, fsurf = preprocess.flatten(vol, surf)
        assert np.array_equal(flat, vol)
        assert np.array_equal(fsurf.bottom, surf.bottom)

    def test_idempotent(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(21))
        surf = preprocess.segment_surfaces(vol.data)
        f1, s1 = preprocess.flatten(vol.data, surf)
        f2, s2 = preprocess.flatten(f1, s1)
        assert np.array_equal(f1, f2)
        assert np.array_equal(s1.bottom, s2.bottom)

    def test_sinusoidal_bottom_flattens_to_zero_variance(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(22))
        surf = preprocess.segment_surfaces(vol.data)
        flat, _ = preprocess.flatten(vol.data, surf)
        resurf = preprocess.segment_surfaces(flat)
        assert float(resurf.bottom.astype(float).var()) == 0.0

    def test_band_intensities_preserved_per_column(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(23))
        surf = preprocess.segment_surfaces(vol.data)
        flat, fsurf = preprocess.flatten(vol.data, surf)
        s, c = 1, 40
        before = vol.data[s, surf.top[s, c] : surf.bottom[s, c] + 1, c]
        after = flat[s, fsurf.top[s, c] : fsurf.bottom[s, c] + 1, c]
        assert sorted(before.tolist()) == sorted(after.tolist())


class TestNormalizeSlice:
    def test_affine_invariance(self):
        rng = Rng(24)
        img = rng.uniform(0.2, 0.9, size=(32, 32))
        mask = np.zeros((32, 32), bool)
        mask[8:28, :] = True
        base = preprocess.normalize_slice(img, mask)
        scaled = preprocess.normalize_slice(3.7 * img + 11.0, mask)
        assert np.abs(base - scaled).max() <= 1e-10

    def test_constant_slice_maps_to_half(self):
        img = np.full((16, 16), 0.7)
        mask = np.ones((16, 16), bool)
        out = preprocess.normalize_slice(img, mask)
        assert np.all(out == 0.5)

    def test_range_and_clamp(self):
        rng = Rng(25)
        img = rng.normal(size=(64, 64))
        mask = np.ones((64, 64), bool)
        out = preprocess.normalize_slice(img, mask)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_slice_at_anchor_points_nearly_unchanged(self):
        # uniform ramp whose median is 0.5 and p99 is ~1: the map is ~identity
        img = np.linspace(0.0, 1.0, 1000).reshape(20, 50)
        mask = np.ones((20, 50), bool)
        out = preprocess.normalize_slice(img, mask)
        assert np.abs(out - img).max() <= 0.03

    def test_dark_contamination_does_not_shift_map(self):
        # layered intensities, as in the domain: 10% dark pathology must not
        # move the anchors, unlike a low-percentile anchor would
        rng = Rng(26)
        img = np.empty((40, 40))
        img[:14] = 0.45
        img[14:27] = 0.62
        img[27:] = 0.78
        img += rng.normal(size=img.shape) * 0.005
        mask = np.ones((40, 40), bool)
        clean = preprocess.normalize_slice(img, mask)
        dirty = img.copy()
        dirty[18:22, :] = 0.05  # 10% dark anomaly
        out = preprocess.normalize_slice(dirty, mask)
        untouched = np.ones((40, 40), bool)
        untouched[18:22] = False
        # anchors may wander only within the intra-layer noise scale
        assert np.abs(out[untouched] - clean[untouched]).max() <= 0.03

    def test_empty_mask_rejected(self):
        with pytest.raises(InputError):
            preprocess.normalize_slice(np.ones((4, 4)), np.zeros((4, 4), bool))


class TestSlic:
    def test_constant_image_gives_grid(self):
        img = np.full((32, 32), 0.5)
        labels = preprocess.slic_superpixels(img, target_area=16)
        assert labels.shape == (32, 32)
        ids, areas = np.unique(labels, return_counts=True)
        assert ids.size == 64
        assert set(areas.tolist()) == {16}
        # grid-order ids: the lowest id occupies the top-left 4x4 cell
        assert set(map(tuple, np.argwhere(labels == ids[0]).tolist())) == {
            (r, c) for r in range(4) for c in range(4)
        }

    def test_partition_property(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(26))
        prep_img = vol.data[0]
        labels = preprocess.slic_superpixels(prep_img, target_area=16)
        surf = preprocess.segment_surfaces(vol.data[:1])
        sps = preprocess.superpixel_records(labels, 0, surf)
        assert [sp.id for sp in sps] == np.unique(labels).tolist()
        seen = np.zeros(prep_img.shape, dtype=int)
        for sp in sps:
            seen[sp.rows, sp.cols] += 1
            assert np.all(labels[sp.rows, sp.cols] == sp.id)
        assert np.all(seen == 1)

    def test_mean_area_within_quarter_of_target(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(27))
        for s in range(0, 8, 3):
            labels = preprocess.slic_superpixels(vol.data[s], target_area=16)
            mean_area = labels.size / np.unique(labels).size
            assert 12.0 <= mean_area <= 20.0

    def test_connectivity(self):
        from scipy import ndimage

        vol, _ = phantom.generate_volume(phantom.test_config(28))
        labels = preprocess.slic_superpixels(vol.data[2], target_area=16)
        for lab in np.unique(labels)[::17]:  # spot-check a spread of superpixels
            _, n = ndimage.label(labels == lab)
            assert n == 1

    def test_tiny_image_single_superpixel(self):
        labels = preprocess.slic_superpixels(np.ones((3, 3)), target_area=16)
        assert labels.shape == (3, 3)
        assert np.unique(labels).size == 1


class TestMarkRetina:
    """The in-retina rule `superpixel_records` applies at each centroid."""

    def _surfaces(self):
        top = np.full((1, 32), 10)
        bottom = np.full((1, 32), 20)
        return preprocess.SurfacePair(top=top, bottom=bottom)

    def _in_retina(self, pixels, surf=None):
        """in_retina of a superpixel (id 1) made of `pixels` in a 32x32 map."""
        labels = np.zeros((32, 32), dtype=np.int64)
        labels[tuple(np.transpose(pixels))] = 1
        sps = preprocess.superpixel_records(labels, 0, surf or self._surfaces())
        return next(sp for sp in sps if sp.id == 1).in_retina

    def test_above_top_false(self):
        assert self._in_retina([(5, 16)]) is False

    def test_exactly_on_top_true(self):
        assert self._in_retina([(10, 16)]) is True

    def test_exactly_on_bottom_true_below_false(self):
        assert self._in_retina([(20, 16)]) is True
        assert self._in_retina([(20, 16), (21, 16)]) is False  # centroid row 20.5

    def test_centroid_column_rounds_half_to_even(self):
        # centroid (15.0, 16.5): Python's round picks column 16, not 17
        top = np.full((1, 32), 10)
        top[0, 17] = 18
        surf = preprocess.SurfacePair(top=top, bottom=np.full((1, 32), 20))
        assert self._in_retina([(15, 16), (15, 17)], surf) is True
        top[0, 16], top[0, 17] = 18, 10
        assert self._in_retina([(15, 16), (15, 17)], surf) is False

    def test_in_retina_fraction_tracks_band_fraction(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(29))
        prep = preprocess.preprocess_volume(vol.data)
        band = prep.surfaces.band_mask(vol.data.shape[1])
        pixel_frac = band.mean()
        sp_frac = np.mean([sp.in_retina for sp in prep.superpixels])
        assert abs(sp_frac - pixel_frac) <= 0.05


class TestPreprocessVolume:
    def test_records_partition_every_slice(self):
        vol, _ = phantom.generate_volume(phantom.test_config(30))
        prep = preprocess.preprocess_volume(vol.data)
        seen = np.zeros(prep.data.shape, dtype=int)
        for sp in prep.superpixels:
            seen[sp.slice_index, sp.rows, sp.cols] += 1
        assert np.all(seen == 1)
        keys = [(sp.slice_index, sp.id) for sp in prep.superpixels]
        assert keys == sorted(set(keys))

    def test_centroid_is_pixel_mean(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(31))
        prep = preprocess.preprocess_volume(vol.data)
        for sp in prep.superpixels[::37]:
            assert sp.centroid == (float(sp.rows.mean()), float(sp.cols.mean()))
