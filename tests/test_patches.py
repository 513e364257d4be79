"""Two-scale patch extraction and dataset assembly."""

import numpy as np
import pytest

from anomkit import patches, phantom, preprocess
from anomkit.presets import PRESETS
from anomkit.errors import InputError, ParameterError, UsageError
from anomkit.rng import Rng

from helpers import border_centres, centre_volume
from oracles import pair_oracle


def cut_pairs(slice_img, centers, preset):
    """(scale1, scale2, maps) of the pairs at `centers`: one slice's maps and
    the crops cut from them."""
    maps = patches.slice_maps(slice_img, centers, preset)
    side = PRESETS[preset].patch_side
    return maps.crops(1, side), maps.crops(2, side), maps


class TestExtractPair:
    """`slice_maps` and the crops cut from them, on single centres."""

    def test_constant_slice(self):
        img = np.full((64, 64), 0.3, np.float32)
        s1, s2, _ = cut_pairs(img, [(32, 32)], "desk")
        assert s1.shape == (1, 16, 16)
        assert s2.shape == (1, 16, 16)
        assert np.all(s1 == np.float32(0.3))
        assert np.all(s2 == np.float32(0.3))

    def test_column_constant_scale2_equals_scale1(self):
        rng = Rng(50)
        col = rng.uniform(size=(64, 1))
        img = np.repeat(col, 64, axis=1)  # constant along columns
        s1, s2, _ = cut_pairs(img, [(32, 32)], "desk")
        assert np.abs(s2 - s1).max() <= 1e-6

    def test_scale2_matches_mean_pool_oracle(self):
        rng = Rng(51)
        img = rng.uniform(size=(80, 120))
        r, c = 40, 60
        _, s2, _ = cut_pairs(img, [(r, c)], "desk")
        s = 16
        wide = img[r - 8 : r + 8, c - 32 : c + 32]
        oracle = np.zeros((s, s))
        for i in range(s):
            for j in range(s):
                oracle[i, j] = wide[i, 4 * j : 4 * j + 4].mean()
        assert np.abs(s2[0] - oracle).max() <= 1e-6

    def test_border_replication(self):
        img = np.zeros((20, 20), np.float32)
        img[0, :] = 1.0
        s1, _, _ = cut_pairs(img, [(0, 10)], "desk")
        # rows above the image replicate row 0
        assert np.all(s1[0, :9, :] == 1.0)

    def test_center_must_be_inside(self):
        with pytest.raises(InputError):
            cut_pairs(np.zeros((10, 10)), [(10, 0)], "desk")
        # one bad centre rejects the whole batch
        with pytest.raises(InputError):
            cut_pairs(np.zeros((10, 10)), [(5, 5), (0, -1)], "desk")

    def test_paper_preset_shapes(self):
        img = np.zeros((200, 200), np.float32)
        s1, s2, _ = cut_pairs(img, [(100, 100)], "paper")
        assert s1.shape == (1, 32, 32)
        assert s2.shape == (1, 32, 32)


class TestCutPairsOracle:
    """Every centre within the wide crop's reach (2 * side) of an edge or a
    corner, where edge replication feeds the crops, plus inner ones."""

    def check(self, preset, shape, dtype):
        rng = Rng(54)
        img = rng.uniform(size=shape).astype(dtype)
        h, w = shape
        side = PRESETS[preset].patch_side
        r, c = np.mgrid[0:h, 0:w]
        near_edge = ((np.minimum(r, h - 1 - r) < 2 * side)
                     | (np.minimum(c, w - 1 - c) < 2 * side))
        centers = np.concatenate([np.argwhere(near_edge), rng.integers(0, [h, w], size=(20, 2))])
        cut = cut_pairs(img, centers, preset)[:2]
        want = [np.stack(o) for o in zip(*(pair_oracle(img, ctr, side) for ctr in centers))]
        for got, oracle in zip(cut, want):
            assert got.dtype == oracle.dtype
            wrong = ~(got == oracle).all(axis=(1, 2))
            assert not wrong.any(), centers[wrong][:5]

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    @pytest.mark.parametrize("shape", [(40, 70), (5, 7)])  # no centre out of reach
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_per_pair_oracle(self, preset, shape, dtype):
        self.check(preset, shape, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_band_around_an_interior(self, dtype):
        self.check("desk", (97, 150), dtype)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_a_corner_outside_its_map_raises(self, scale):
        *_, maps = cut_pairs(np.zeros((20, 30)), [(0, 0), (19, 29)], "desk")
        maps.corners[1, 3] += 1  # one column past the scale-2 map's last window
        with pytest.raises(InputError, match="puts a 16px window outside its map"):
            next(patches.map_groups(*maps.scale(scale), 16))

    def test_no_centres_gives_empty_batches(self):
        s1, s2, _ = cut_pairs(np.zeros((10, 10)), np.zeros((0, 2)), "desk")
        assert s1.shape == s2.shape == (0, 16, 16)


@pytest.fixture(scope="module")
def prepped():
    vol, gt = phantom.generate_volume(phantom.healthy_config(52), "vol-a")
    prep = preprocess.preprocess_volume(vol.data)
    return vol, gt, prep


class TestBuildDataset:
    def test_one_pair_per_in_retina_superpixel(self, prepped):
        vol, gt, prep = prepped
        ds = patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk")
        n_in = sum(1 for sp in prep.superpixels if sp.in_retina)
        assert len(ds) == n_in
        assert all(vid == "vol-a" for vid, _, _ in ds.sources)

    def test_cap_subsampling_deterministic(self, prepped):
        vol, gt, prep = prepped
        d1 = patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk",
                                   rng=Rng(5), cap=100)
        d2 = patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk",
                                   rng=Rng(5), cap=100)
        assert len(d1) == 100
        assert np.array_equal(d1.scale1, d2.scale1)
        assert d1.sources == d2.sources

    def test_ordering_deterministic(self, prepped):
        vol, gt, prep = prepped
        ds = patches.build_dataset([(vol.volume_id, prep)], "eval", "desk")
        assert ds.sources == sorted(ds.sources)

    def test_healthy_guard(self, prepped):
        vol, gt, prep = prepped
        anom_vol, anom_gt = phantom.generate_volume(phantom.test_config(53), "vol-b")
        anom_prep = preprocess.preprocess_volume(anom_vol.data)
        with pytest.raises(InputError):
            patches.build_dataset(
                [(anom_vol.volume_id, anom_prep)], "healthy-train", "desk",
                ground_truths=[anom_gt],
            )
        # clean volume passes the same guard
        ds = patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk",
                                   ground_truths=[gt])
        assert len(ds) > 0

    def test_ground_truths_must_align(self, prepped):
        # a short list must not leave the anomalous volume unchecked
        vol, gt, prep = prepped
        anom_vol, _ = phantom.generate_volume(phantom.test_config(53), "vol-b")
        anom_prep = preprocess.preprocess_volume(anom_vol.data)
        with pytest.raises(UsageError, match="2 volumes but 1 ground truths"):
            patches.build_dataset(
                [(vol.volume_id, prep), (anom_vol.volume_id, anom_prep)],
                "healthy-train", "desk", ground_truths=[gt],
            )

    def test_values_in_unit_interval(self, prepped):
        vol, gt, prep = prepped
        ds = patches.build_dataset([(vol.volume_id, prep)], "eval", "desk")
        for arr in (ds.scale1, ds.scale2):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_pairs_equal_oracle_cut_then_capped(self, prepped):
        vol, gt, prep = prepped
        sps = sorted((sp for sp in prep.superpixels if sp.in_retina),
                     key=lambda sp: (sp.slice_index, sp.id))
        pairs = [pair_oracle(prep.data[sp.slice_index],
                             (round(sp.centroid[0]), round(sp.centroid[1])), 16)
                 for sp in sps]
        sources = [(vol.volume_id, sp.slice_index, sp.id) for sp in sps]
        # every split's crops are cut from its maps on first access
        for split, cap in (("eval", None), ("healthy-train", 100), ("anomaly-train", 100)):
            ds = patches.build_dataset([(vol.volume_id, prep)], split, "desk",
                                       rng=Rng(5), cap=cap)
            keep = (range(len(sps)) if cap is None
                    else np.sort(Rng(5).choice(len(sps), size=cap, replace=False)))
            assert ds.sources == [sources[i] for i in keep]
            assert np.array_equal(ds.scale1, np.stack([pairs[i][0] for i in keep]))
            assert np.array_equal(ds.scale2, np.stack([pairs[i][1] for i in keep]))

    @pytest.mark.parametrize("width", [96, 97, 98, 99])  # W mod 4 = 0, 1, 2, 3
    def test_crops_equal_the_oracle_in_every_column_phase(self, width):
        prep = centre_volume([border_centres(20, width)] * 2, width)
        ds = patches.build_dataset([("v", prep)], "eval", "desk")
        pairs = [pair_oracle(prep.data[sp.slice_index], sp.centroid, 16)
                 for sp in prep.superpixels]
        assert np.array_equal(ds.scale1, np.stack([s1 for s1, _ in pairs]))
        assert np.array_equal(ds.scale2, np.stack([s2 for _, s2 in pairs]))
        assert len(ds.maps.scale1) == len(ds.maps.scale2) == 2

    def test_maps_must_cover_every_row(self, prepped):
        vol, _, prep = prepped
        ds = patches.build_dataset([(vol.volume_id, prep)], "eval", "desk")
        with pytest.raises(UsageError, match="corners"):
            patches.PatchDataset(ds.maps, ds.sources[1:], "eval", ds.preset)

    @pytest.mark.parametrize("split", ["eval", "anomaly-train"])
    def test_building_cuts_no_crops(self, prepped, monkeypatch, split):
        vol, _, prep = prepped

        def crops(*args):
            raise AssertionError("a crop was cut")

        monkeypatch.setattr(patches.PatchMaps, "crops", crops)
        ds = patches.build_dataset([(vol.volume_id, prep)], split, "desk")
        assert len(ds) == sum(sp.in_retina for sp in prep.superpixels)
        with pytest.raises(AssertionError, match="a crop was cut"):
            ds.scale1

    def test_unknown_split_rejected(self, prepped):
        vol, gt, prep = prepped
        with pytest.raises(ParameterError):
            patches.build_dataset([(vol.volume_id, prep)], "bogus", "desk")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, prepped, cap):
        # cap=0 used to return a zero-row dataset, cap=-1 an untyped ValueError
        vol, gt, prep = prepped
        with pytest.raises(ParameterError, match="cap must be >= 1"):
            patches.build_dataset([(vol.volume_id, prep)], "eval", "desk", rng=Rng(5), cap=cap)


class TestCutAtCentroids:
    def test_no_rows_gives_empty_batches(self):
        maps = patches.cut_at_centroids([], np.zeros(0, int), np.zeros(0, int),
                                        np.zeros((0, 2), int), "desk")
        assert maps.scale1 == maps.scale2 == [] and maps.corners.shape == (0, 4)
        for k in (1, 2):
            crops = maps.crops(k, 16)
            assert crops.shape == (0, 16, 16) and crops.dtype == np.float32

    def test_rows_in_any_order(self, prepped):
        # slices revisited out of order, and a second volume in between
        _, _, prep = prepped
        volumes = [prep.data, prep.data[::-1].copy()]
        picks = Rng(55).permutation(len(prep.superpixels))[:60]
        rows = [(i % 2, prep.superpixels[j]) for i, j in enumerate(picks)]
        volume = np.array([v for v, _ in rows])
        slices = np.array([sp.slice_index for _, sp in rows])
        centers = np.array([(round(sp.centroid[0]), round(sp.centroid[1])) for _, sp in rows])
        maps = patches.cut_at_centroids(volumes, volume, slices, centers, "desk")
        assert len(maps.scale1) == len(maps.scale2) == len(set(maps.corners[:, 0].tolist()))
        s1, s2 = maps.crops(1, 16), maps.crops(2, 16)
        for i, (v, sp) in enumerate(rows):
            want = pair_oracle(volumes[v][sp.slice_index], centers[i], 16)
            assert np.array_equal(s1[i], want[0]) and np.array_equal(s2[i], want[1])
