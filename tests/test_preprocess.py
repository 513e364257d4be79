"""Surface segmentation, flattening, normalization, SLIC superpixels."""

import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from anomkit import phantom, preprocess
from anomkit.errors import AnomkitError, DimensionError, InputError, SegmentationError
from anomkit.rng import Rng

from helpers import centroid, table_records
from oracles import (_min_cost_path_oracle, connected_regions_oracle, segment_surfaces_oracle,
                     slic_oracle, superpixel_records_oracle)


class TestSegmentSurfaces:
    def test_flat_phantom_within_one_pixel(self, monkeypatch):
        monkeypatch.setattr(phantom, "BOUNDARY_AMPLITUDE", 0.0)
        monkeypatch.setattr(phantom, "SLICE_DRIFT", 0.0)
        vol, gt = phantom.generate_volume(phantom.PhantomConfig(seed=3))
        assert np.all(gt.top == gt.top[0, 0]) and np.all(gt.bottom == gt.bottom[0, 0])
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
        surf = preprocess.segment_surfaces(vol.data)
        assert np.all(surf.top < surf.bottom)
        assert np.abs(np.diff(surf.top, axis=1)).max() <= preprocess.SMOOTHNESS
        assert np.abs(np.diff(surf.bottom, axis=1)).max() <= preprocess.SMOOTHNESS

    @pytest.mark.parametrize("shape", [(32, 32), (1, 1, 32, 32)])
    def test_volume_not_3d_rejected(self, shape):
        with pytest.raises(DimensionError, match=r"volume must be \[slices, H, W\], got "
                                                 + re.escape(str(shape))):
            preprocess.segment_surfaces(np.zeros(shape))

    def test_too_few_rows(self):
        from anomkit.errors import DimensionError

        with pytest.raises(DimensionError):
            preprocess.segment_surfaces(np.zeros((1, 4, 16)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_named(self, value):
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(33, n_slices=3, height=32, width=40))
        data = vol.data.copy()
        data[2, 0, 0] = data[1, 9, 3] = data[1, 5, 7] = value
        for fn in (preprocess.segment_surfaces, preprocess.preprocess_volume,
                   preprocess.slic_superpixels):
            with pytest.raises(InputError, match=rf"non-finite value {value} at index \(1, 5, 7\)"):
                fn(data)


def outcome(fn, data):
    """fn(data), or the type of the package error it raised."""
    try:
        return fn(data)
    except AnomkitError as err:
        return type(err)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    elif isinstance(want, preprocess.SurfacePair):
        assert np.array_equal(got.top, want.top) and got.top.dtype == want.top.dtype
        assert np.array_equal(got.bottom, want.bottom)
    else:
        assert np.array_equal(got, want) and got.dtype == want.dtype


def assert_slic_matches_oracle(stack):
    """SLIC of a whole [S, H, W] stack equals the oracle on each slice."""
    labels = preprocess.slic_superpixels(stack)
    assert labels.shape == stack.shape
    for got, img in zip(labels, stack, strict=True):
        assert_same_outcome(got, slic_oracle(img))


DEPTHS = st.integers(1, 4)  # slices per SLIC stack
# coarse levels make constant slices and ties common
LEVELS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestAgainstOracles:
    """The whole-volume surface search and the prebuilt SLIC candidates
    against the per-slice loop and the per-iteration candidates they replaced."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(6, 61, 77), (3, 96, 128), (2, 128, 128), (4, 50, 90)]), DEPTHS)
    def test_phantoms(self, seed, shape, depth):
        n_slices, height, width = shape
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(seed, n_slices=n_slices, height=height, width=width))
        assert_same_outcome(preprocess.segment_surfaces(vol.data),
                            segment_surfaces_oracle(vol.data))
        for start in range(0, n_slices, depth):
            assert_slic_matches_oracle(vol.data[start : start + depth])

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(8, 14),
                                        st.integers(1, 10)), elements=LEVELS))
    def test_random_volumes_surfaces(self, vol):
        assert_same_outcome(outcome(preprocess.segment_surfaces, vol),
                            outcome(segment_surfaces_oracle, vol))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 12)),
                  elements=st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf])),
           st.integers(1, 9))
    def test_min_cost_paths_on_constant_rows(self, rows, width):
        """Costs constant along each row tie at every step, so the tie rule
        picks every offset; inf rows can leave no finite path."""
        cost = np.repeat(rows[:, :, None], width, axis=2)

        def per_slice(c):
            return np.stack([_min_cost_path_oracle(s, preprocess.SMOOTHNESS) for s in c])

        assert_same_outcome(outcome(preprocess._min_cost_paths, cost), outcome(per_slice, cost))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(DEPTHS, st.integers(1, 3 * preprocess.STEP + 1),
                                        st.integers(1, 3 * preprocess.STEP + 1)),
                  elements=LEVELS))
    def test_random_slices_slic(self, stack):
        assert_slic_matches_oracle(stack)

    # every residue of the height and the width modulo STEP, so every size of
    # the last grid cell, and with it every count of phases in the layout
    RESIDUE_SHAPES = [(preprocess.STEP + 1, preprocess.STEP + 2),
                      (preprocess.STEP + 2, preprocess.STEP + 1),
                      (128, 128), (129, 131), (131, 127), (130, 129)]

    @pytest.mark.parametrize("shape", RESIDUE_SHAPES)
    @settings(max_examples=4, deadline=None)
    @given(st.data())
    def test_slic_on_every_last_cell_size(self, shape, data):
        """Sparse draws of the tie-heavy LEVELS, and dense seeded images of
        coarse levels or uniform values; a stack of four 128x128 slices fills
        one SLIC pass, and four larger slices take one pass each."""
        shape = (data.draw(DEPTHS),) + shape
        sparse = data.draw(arrays(np.float64, shape, elements=LEVELS))
        assert_slic_matches_oracle(sparse)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dense = (rng.choice([0.0, 0.25, 0.5, 1.0], size=shape) if data.draw(st.booleans())
                 else rng.random(shape))
        assert_slic_matches_oracle(dense)

    @pytest.mark.parametrize("per_pass", [1, 2, 3])
    def test_passes_of_several_slices(self, monkeypatch, per_pass):
        """Seven slices in passes of per_pass slices each, the last one short."""
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(36, n_slices=7, height=29, width=34))
        monkeypatch.setattr(preprocess, "SLIC_PIXELS", per_pass * 29 * 34 + 5)
        assert_slic_matches_oracle(vol.data)


class TestBoxSmooth:
    """The in-slice box filter against `ndimage.uniform_filter`, bit for bit:
    the surface tests compare argmin paths only, which can hide an ulp."""

    @settings(max_examples=120, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(8, 14), st.integers(1, 12)),
                  elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                     st.floats(-1e6, 1e6))),
           st.sampled_from([None, 1e3, 1e6, 1e9]))
    @example(np.full((2, 8, 3), -0.0), None)  # each sum starts from +0.0, as scipy's does
    def test_equals_uniform_filter(self, vol, offset):
        if offset is not None:
            # a large offset and a spread of about 1e-6 of it: the running
            # sums cancel most of their digits at every step
            vol = offset + vol * (offset * 1e-12)
        size = preprocess.SMOOTH_WINDOW
        want = ndimage.uniform_filter(vol, size=(1, size, size), mode="nearest")
        got = preprocess._box_smooth(vol)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


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

    def test_flat_labels_keep_every_voxel_the_shift_keeps_in_frame(self):
        vol, gt = phantom.generate_volume(phantom.test_config(5, n_slices=4, height=96,
                                                              width=128))
        flat = preprocess.flatten(gt.labels, preprocess.segment_surfaces(vol.data))[0]
        bottom = preprocess.segment_surfaces(vol.data).bottom
        shift = bottom.max() - bottom
        s, r, c = np.nonzero(gt.labels)
        moved = r + shift[s, c]
        in_frame = moved < gt.labels.shape[1]
        assert in_frame.any() and shift.any()
        assert flat.dtype == gt.labels.dtype
        assert np.array_equal(flat[s[in_frame], moved[in_frame], c[in_frame]],
                              gt.labels[s[in_frame], r[in_frame], c[in_frame]])
        assert np.count_nonzero(flat) == in_frame.sum()


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

    def test_mask_shape_must_match(self):
        with pytest.raises(DimensionError, match=r"slice \(4, 4\) vs mask \(4, 5\)"):
            preprocess.normalize_slice(np.ones((4, 4)), np.ones((4, 5), bool))


class TestSlic:
    def test_constant_image_gives_grid(self):
        img = np.full((32, 32), 0.5)
        labels = preprocess.slic_superpixels(img[None])[0]
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
        labels = preprocess.slic_superpixels(prep_img[None])[0]
        surf = preprocess.segment_surfaces(vol.data[:1])
        sps = table_records(labels[None], surf)
        assert [sp.id for sp in sps] == np.unique(labels).tolist()
        seen = np.zeros(prep_img.shape, dtype=int)
        for sp in sps:
            rows, cols = np.nonzero(sp.mask)
            seen[rows, cols] += 1
            assert np.all(labels[rows, cols] == sp.id)
        assert np.all(seen == 1)

    def test_mean_area_within_quarter_of_target(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(27))
        for s in range(0, 8, 3):
            labels = preprocess.slic_superpixels(vol.data[s : s + 1])
            mean_area = labels.size / np.unique(labels).size
            assert 12.0 <= mean_area <= 20.0

    def test_connectivity(self):
        from scipy import ndimage

        vol, _ = phantom.generate_volume(phantom.test_config(28))
        labels = preprocess.slic_superpixels(vol.data[2:3])[0]
        for lab in np.unique(labels)[::17]:  # spot-check a spread of superpixels
            _, n = ndimage.label(labels == lab)
            assert n == 1

    def test_tiny_image_single_superpixel(self):
        labels = preprocess.slic_superpixels(np.ones((2, 3, 3)))
        assert labels.shape == (2, 3, 3)
        assert np.unique(labels).size == 1

    def test_empty_stack(self):
        labels = preprocess.slic_superpixels(np.ones((0, 32, 32)))
        assert labels.shape == (0, 32, 32) and labels.dtype == np.int64

    @pytest.mark.parametrize("shape", [(32, 32), (1, 2, 32, 32)])
    def test_a_stack_must_be_three_dimensional(self, shape):
        with pytest.raises(DimensionError, match=r"stack must be \[slices, H, W\]"):
            preprocess.slic_superpixels(np.ones(shape))


def _grown_box(box, shape):
    """A find_objects box grown by one pixel on every side, inside `shape`."""
    return tuple(slice(max(b.start - 1, 0), min(b.stop + 1, n)) for b, n in zip(box, shape))


def check_merge(before, after):
    """The orphan-merge contract, from independent 4-connected component maps."""
    assert set(np.unique(after).tolist()) == set(np.unique(before).tolist())
    for lab, box in enumerate(ndimage.find_objects(after + 1)):
        if box is not None:
            assert ndimage.label(after[box] == lab)[1] == 1, f"label {lab} is split"
    for lab, box in enumerate(ndimage.find_objects(before + 1)):
        if box is None:
            continue
        box = _grown_box(box, before.shape)
        comps, n = ndimage.label(before[box] == lab)
        # components are numbered in raster order, so argmax ties to the lowest id
        main = int(np.argmax(np.bincount(comps.ravel())[1:])) + 1
        assert np.all(after[box][comps == main] == lab)
        for k in range(1, n + 1):
            if k == main:
                continue
            orphan = comps == k
            ring = ndimage.binary_dilation(orphan) & ~orphan
            taken = np.unique(after[box][orphan])
            assert taken.size == 1 and taken[0] in after[box][ring]


def slic_before_and_after_merge(img):
    """(pre-merge SLIC labels, connected labels) of one slice."""
    seen = []

    def capture(labels):
        seen.append(labels)
        return merge(labels)

    merge = preprocess._enforce_connectivity
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_enforce_connectivity", capture)
        after = preprocess.slic_superpixels(img[None])[0]
    return seen[0], after


def _spiral(n):
    """An n x n map of 0s and one 1-wide square spiral of 1s, its turns one row
    or column apart, so each label is one long winding component."""
    grid = np.zeros((n, n), dtype=np.int64)
    r = c = turns = 0
    dr, dc = 0, 1
    grid[0, 0] = 1

    def free(i, j):
        return 0 <= i < n and 0 <= j < n and not grid[i, j]

    def clear(i, j):
        return not (0 <= i < n and 0 <= j < n) or not grid[i, j]

    while turns < 2:
        if free(r + dr, c + dc) and clear(r + 2 * dr, c + 2 * dc):
            r, c, turns = r + dr, c + dc, 0
            grid[r, c] = 1
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return grid


def assert_same_components(labels):
    n, comp = preprocess._connected_regions(labels)
    n_want, comp_want = connected_regions_oracle(labels)
    assert n == n_want
    assert np.array_equal(comp, comp_want)


class TestConnectedRegions:
    """The component count and map, numbering included, against the sparse
    graph and `connected_components`."""

    @pytest.mark.parametrize("labels", [
        np.zeros((1, 1), dtype=np.int64),
        np.array([[0, 1, 1, 0, 2, 2, 0]]),
        np.array([[0], [1], [1], [0], [2]]),
        np.full((5, 7), 3),
        np.indices((6, 9)).sum(axis=0) % 2,  # checkerboard: every pixel its own component
        np.array([[0, 0, 1], [1, 0, 1], [0, 0, 0]]),
        # one winding component: its runs hook into long chains, so pointer
        # jumping takes the most steps (8, against at most 6 on random maps)
        _spiral(23),
        _spiral(23).T,
    ])
    def test_edge_cases(self, labels):
        assert_same_components(labels)

    def test_random_maps(self):
        rng = Rng(305)
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
            levels = int(rng.integers(1, 6))
            assert_same_components(rng.integers(0, levels, size=shape))

    def test_slic_slices_of_one_desk_volume(self):
        vol, _ = phantom.generate_volume(phantom.test_config(28))
        for img in vol.data:
            before, _ = slic_before_and_after_merge(img)
            assert_same_components(before)


class TestOrphanMerge:
    """Rule of `_enforce_connectivity` on hand-made label maps: component ids
    follow raster order of each component's first pixel."""

    def merge(self, row):
        return preprocess._enforce_connectivity(np.array([row])).ravel().tolist()

    def test_orphan_joins_the_larger_neighbour(self):
        # the label-2 orphan touches comp 0 (label 1, area 2) and comp 2 (label 0, area 3)
        assert self.merge([1, 1, 2, 0, 0, 0, 2, 2, 2, 2]) == [1, 1, 0, 0, 0, 0, 2, 2, 2, 2]

    def test_equal_areas_go_to_the_lower_component_id(self):
        # comp 0 (label 1) and comp 2 (label 0) both have area 2
        assert self.merge([1, 1, 2, 0, 0, 2, 2, 2]) == [1, 1, 1, 0, 0, 2, 2, 2]

    def test_orphan_touching_only_an_orphan_settles_in_round_two(self):
        # the label-2 orphan at 0 touches only the label-3 orphan at 1, which
        # settles into label 0 in round 1; the first one follows in round 2
        assert self.merge([2, 3, 0, 0, 0, 3, 3, 3, 2, 2]) == [0, 0, 0, 0, 0, 3, 3, 3, 2, 2]

    def test_tied_main_components_keep_the_lower_id(self):
        # label 2 has two components of area 2: the first stays, the second
        # is an orphan and joins label 1 (area 4) over label 0 (area 3)
        assert (self.merge([2, 2, 0, 0, 0, 2, 2, 1, 1, 1, 1])
                == [2, 2, 0, 0, 0, 1, 1, 1, 1, 1, 1])

    def test_areas_are_the_original_areas(self):
        # the first orphan joins comp 1 (label 0, area 3); the second still
        # sees areas 3 and 4 and joins comp 3 (label 1)
        assert (self.merge([2, 0, 0, 0, 3, 1, 1, 1, 1, 2, 2, 3, 3])
                == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 3, 3])

    def test_orphans_settled_in_the_same_round_are_not_candidates(self):
        # in round 1 the label-2 orphan (area 2) joins label 0, and the
        # label-3 orphan next to it sees only comp 3 (label 1, area 1)
        assert (self.merge([0, 0, 0, 2, 2, 3, 1, 2, 2, 2, 3, 3])
                == [0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3])

    def test_two_dimensional_map(self):
        before = np.array([[0, 0, 1, 1],
                           [2, 0, 1, 1],
                           [0, 2, 2, 2]])
        after = preprocess._enforce_connectivity(before)
        check_merge(before, after)
        assert after.tolist() == [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 2, 2]]

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.integers(0, 4)))
    def test_properties_on_random_maps(self, before):
        check_merge(before, preprocess._enforce_connectivity(before))

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([28, 29]), st.integers(0, 7))
    def test_properties_on_phantom_slic_slices(self, seed, s):
        vol, _ = phantom.generate_volume(phantom.test_config(seed))
        before, after = slic_before_and_after_merge(vol.data[s])
        assert not np.array_equal(before, after)  # the slice has orphans to merge
        check_merge(before, after)


class TestMarkRetina:
    """The in-retina rule `superpixel_table` applies at each centroid."""

    def _surfaces(self):
        top = np.full((1, 32), 10)
        bottom = np.full((1, 32), 20)
        return preprocess.SurfacePair(top=top, bottom=bottom)

    def _in_retina(self, pixels, surf=None):
        """in_retina of a superpixel (id 1) made of `pixels` in a 32x32 map."""
        labels = np.zeros((32, 32), dtype=np.int64)
        labels[tuple(np.transpose(pixels))] = 1
        sps = table_records(labels[None], surf or self._surfaces())
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
            rows, cols = np.nonzero(sp.mask)
            seen[sp.slice_index, rows, cols] += 1
        assert np.all(seen == 1)
        keys = [(sp.slice_index, sp.id) for sp in prep.superpixels]
        assert keys == sorted(set(keys))

    def test_volume_records_equal_per_slice_records(self):
        vol, _ = phantom.generate_volume(phantom.test_config(32))
        surfaces = preprocess.segment_surfaces(vol.data)
        slic = preprocess.slic_superpixels(vol.data)
        one = slic[:1]
        # SLIC's ids, and the same ids spread out, take 16-bit labels; one
        # slice whose largest id is 2**8 - 1 or 2**16 - 1, 256 or 65,536 ids,
        # takes 8- or 16-bit labels
        for labels, dtype in ((slic, np.uint16), (40 * slic + 7, np.uint16),
                              (np.minimum(one, 255), np.uint8),
                              (np.where(one == one.max(), 65535, one), np.uint16)):
            # the surfaces of the labels' slices
            surf = preprocess.SurfacePair(top=surfaces.top[: len(labels)],
                                          bottom=surfaces.bottom[: len(labels)])
            records = table_records(labels, surf)
            expected = [sp for s in range(labels.shape[0])
                        for sp in superpixel_records_oracle(labels[s], s, surf)]
            assert len(records) == len(expected)
            for got, want in zip(records, expected):
                assert (got.id, got.slice_index, centroid(got), got.in_retina) == (
                    want.id, want.slice_index, centroid(want), want.in_retina)
                assert np.array_equal(np.nonzero(got.mask), np.nonzero(want.mask))
            # every record reads its own row of one table, whose label volume
            # is the labels in the smallest unsigned dtype that holds every id
            table = records[0].table
            assert all(sp.table is table for sp in records)
            assert [sp.index for sp in records] == list(range(len(table.ids)))
            assert np.array_equal(table.labels, labels)
            assert table.labels.dtype == np.min_scalar_type(labels.max()) == dtype
            # and holds each superpixel's slice, id and in-retina flag
            assert table.slices.dtype == table.ids.dtype == np.int64
            assert table.in_retina.dtype == bool
            assert table.slices.tolist() == [sp.slice_index for sp in expected]
            assert table.ids.tolist() == [sp.id for sp in expected]
            assert table.in_retina.tolist() == [sp.in_retina for sp in expected]

    @pytest.mark.parametrize("shape", [(20, 300), (300, 20)])
    def test_a_side_over_256_keeps_every_record(self, shape):
        h, w = shape
        rows, cols = np.indices(shape)
        labels = np.stack([(rows // 5) * 64 + cols // 5, (rows // 7) * 64 + (cols + 3) // 4])
        surf = preprocess.SurfacePair(top=np.full((2, w), h // 4), bottom=np.full((2, w), h // 2))
        records = table_records(labels, surf)
        expected = [sp for s in range(2) for sp in superpixel_records_oracle(labels[s], s, surf)]
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            assert (got.id, got.slice_index, centroid(got), got.in_retina) == (
                want.id, want.slice_index, centroid(want), want.in_retina)
            assert np.array_equal(np.nonzero(got.mask), np.nonzero(want.mask))
        table = records[0].table
        assert np.array_equal(table.labels, labels)
        assert table.labels.dtype == np.min_scalar_type(labels.max())
        assert {sp.in_retina for sp in records} == {False, True}

    def test_record_reads_its_mask_and_its_table_row(self):
        labels = np.zeros((1, 6, 7), dtype=np.int64)
        labels[0, 2:4, 1:6] = 3
        surf = preprocess.SurfacePair(top=np.zeros((1, 7), int), bottom=np.full((1, 7), 5))
        sp = table_records(labels, surf)[1]
        assert sp.mask.dtype == bool and np.array_equal(sp.mask, labels[0] == 3)
        rows, cols = np.nonzero(sp.mask)
        assert rows.tolist() == [2] * 5 + [3] * 5 and cols.tolist() == [1, 2, 3, 4, 5] * 2
        assert (sp.id, sp.slice_index, centroid(sp), sp.in_retina) == (3, 0, (2.5, 3.0), True)

    def test_result_retains_data_a_label_per_voxel_small_records(self):
        """What a preprocessed volume keeps once its records are built: its
        float32 data and surfaces, one label per voxel in the smallest
        unsigned dtype that holds every id, and per superpixel one five-slot
        record, its own id and index ints, a list slot with room to
        over-allocate, and its table row of two float64 centroid coordinates,
        an int64 slice, an int64 id and a bool in-retina flag. Python objects
        are counted in 16-byte allocator blocks."""
        vol, _ = phantom.generate_volume(phantom.healthy_config(33))
        preprocess.preprocess_volume(vol.data)  # what a first call leaves is not the result's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prep = preprocess.preprocess_volume(vol.data)
            prep.superpixels  # built on first access
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

        def blocks(obj):
            return -(-sys.getsizeof(obj) // 16) * 16

        label = np.min_scalar_type(prep.table.ids.max()).itemsize
        assert prep.table.labels.nbytes == label * prep.data.size
        per_record = blocks(prep.superpixels[0]) + 2 * blocks(2**20) + 2 * 8 + 2 * 8 + 8 + 8 + 1
        bound = (prep.data.nbytes + prep.surfaces.top.nbytes + prep.surfaces.bottom.nbytes
                 + label * prep.data.size + per_record * len(prep.superpixels))
        assert retained <= bound

    def test_slice_label_map_rejected(self):
        from anomkit.errors import DimensionError

        surf = preprocess.SurfacePair(top=np.zeros((1, 4), int), bottom=np.full((1, 4), 3))
        with pytest.raises(DimensionError):
            preprocess.superpixel_table(np.zeros((4, 4), dtype=np.int64), surf)

    def test_negative_label_rejected(self):
        # a -1 used to wrap to the key dtype's largest value and index out of range
        surf = preprocess.SurfacePair(top=np.zeros((1, 8), int), bottom=np.full((1, 8), 7))
        with pytest.raises(InputError, match="non-negative, got -1"):
            preprocess.superpixel_table(np.full((1, 8, 8), -1), surf)

    @pytest.mark.parametrize("shape, top, bottom", [
        ((2, 8, 8), (1, 8), (1, 8)),
        ((1, 8, 16), (1, 8), (1, 8)),
        ((1, 8, 8), (1, 8), (1, 9)),
        ((1, 8, 8), (8,), (1, 8)),
    ], ids=["more_slices", "wider_slices", "wider_bottom", "one_dim_top"])
    def test_surfaces_of_another_shape_rejected(self, shape, top, bottom):
        surf = preprocess.SurfacePair(top=np.zeros(top, int), bottom=np.full(bottom, 7))
        with pytest.raises(DimensionError, match="surfaces must be"):
            preprocess.superpixel_table(np.zeros(shape, dtype=np.int64), surf)

    def test_centroid_is_pixel_mean(self):
        vol, _ = phantom.generate_volume(phantom.healthy_config(31))
        prep = preprocess.preprocess_volume(vol.data)
        for sp in prep.superpixels[::37]:
            rows, cols = np.nonzero(sp.mask)
            assert centroid(sp) == (float(rows.mean()), float(cols.mean()))

    @pytest.mark.parametrize("n_slices", [1, 2, 3])
    def test_halves_equal_per_slice_slic(self, n_slices):
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(34, n_slices=n_slices, height=48, width=64))
        prep = preprocess.preprocess_volume(vol.data)
        flat, surf = preprocess.flatten(vol.data, preprocess.segment_surfaces(vol.data))
        norm = [preprocess.normalize_slice(img, mask)
                for img, mask in zip(flat, surf.band_mask(flat.shape[1]))]
        expected = table_records(np.stack([slic_oracle(img) for img in norm]), surf)
        assert len(prep.superpixels) == len(expected)
        for got, want in zip(prep.superpixels, expected):
            assert (got.id, got.slice_index, centroid(got), got.in_retina) == (
                want.id, want.slice_index, centroid(want), want.in_retina)
            assert np.array_equal(np.nonzero(got.mask), np.nonzero(want.mask))


def _slic_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("preprocess-slic")]


class TestSlicHalves:
    """`preprocess_volume` runs SLIC on the first half of the slices on a
    thread of its own and on the second half here."""

    def test_no_slic_thread_outlives_the_call(self):
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(37, n_slices=4, height=48, width=64))
        preprocess.preprocess_volume(vol.data)
        assert _slic_threads() == []

    @pytest.mark.parametrize("failing, raised",
                             [("first", "first"), ("second", "second"), ("both", "first")])
    def test_a_failing_half_raises_once_both_have_ended(self, monkeypatch, failing, raised):
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(37, n_slices=4, height=48, width=64))
        merge = preprocess._enforce_connectivity
        merged = {"first": 0, "second": 0}

        def flaky(labels):
            worker = threading.current_thread().name.startswith("preprocess-slic")
            half = "first" if worker else "second"
            if failing in (half, "both"):
                if worker:
                    time.sleep(0.05)  # the second half's error comes first in time
                raise SegmentationError(f"{half} half")
            merged[half] += 1
            return merge(labels)

        monkeypatch.setattr(preprocess, "_enforce_connectivity", flaky)
        with pytest.raises(SegmentationError, match=f"{raised} half"):
            preprocess.preprocess_volume(vol.data)
        assert _slic_threads() == []
        assert merged == {half: 0 if failing in (half, "both") else 2
                          for half in ("first", "second")}
