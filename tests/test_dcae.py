"""Two-scale DCAE and fusion DAE on a tiny preset, and on the desk preset
against the written-out loops."""

import dataclasses
import os
import signal
import threading
import time

import numpy as np
import pytest

from anomkit import dcae, patches, phantom, preprocess
from anomkit import numcore as nc
from anomkit.errors import DimensionError, InputError, ParameterError, TrainingError, UsageError
from anomkit.rng import Rng

from helpers import border_centres, centre_volume
from oracles import embed_oracle, train_fusion_oracle, train_scales_oracle

TINY = dcae.DcaePreset("tiny", patch_side=16, conv_kernels=4, conv_size=5, pool=2,
                       dense_hidden=16, code_dim=8, fusion_dim=4)
HYPER = dcae.TrainConfig(lr=1e-2, epochs=4, batch_size=16, fusion_epochs=4)
SIDE8 = dataclasses.replace(TINY, name="tiny8", patch_side=8, conv_size=3)
POOL3 = dataclasses.replace(TINY, name="pool3", conv_size=3, pool=3)  # conv 14 = 3 * 4 + 2
DESK_HYPER = dcae.TrainConfig(epochs=1, fusion_epochs=1)  # the benchmark's batch of 64


@pytest.fixture(scope="module")
def healthy():
    vol, _ = phantom.generate_volume(
        phantom.healthy_config(80, n_slices=2, height=96, width=128), "vol-h")
    prep = preprocess.preprocess_volume(vol.data)
    return patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk",
                                 rng=Rng(81), cap=128)


def _trained(ds, seed=82, preset=TINY, hyper=HYPER):
    rng = Rng(seed)
    model = dcae.build_model(preset, rng.derive(1))
    dcae.train_dcae(model, ds, hyper, rng.derive(2))
    dcae.train_fusion(model, ds, hyper, rng.derive(3))
    return model


@pytest.fixture(scope="module")
def trained(healthy):
    return _trained(healthy)


def test_losses_fall(trained):
    assert len(trained.scale_log) == HYPER.epochs
    assert len(trained.fusion_log) == HYPER.fusion_epochs
    assert trained.scale_log[-1][1] < trained.scale_log[0][1]
    assert trained.fusion_log[-1][1] < trained.fusion_log[0][1]


def test_fixed_seed_is_bit_identical(healthy, trained):
    again = _trained(healthy)
    models = (trained, again)
    p1, p2 = (_params(x) for x in models)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2, strict=True))
    assert np.array_equal(dcae.embed_dataset(trained, healthy),
                          dcae.embed_dataset(again, healthy))


def _params(model):
    return [p for net in (model.scale1, model.scale2, model.fusion) for p in net.params()]


@pytest.mark.parametrize("preset, hyper", [(TINY, HYPER), (dcae.PRESETS["desk"], DESK_HYPER)],
                         ids=["tiny", "desk"])
def test_matches_the_written_out_loops(healthy, preset, hyper):
    trained = _trained(healthy, preset=preset, hyper=hyper)
    rng = Rng(82)  # the seed and derivations of _trained
    ref = dcae.build_model(preset, rng.derive(1))
    scale_log = train_scales_oracle(ref, healthy, hyper, rng.derive(2))
    fusion_log = train_fusion_oracle(ref, healthy, hyper, rng.derive(3))
    assert all(np.array_equal(a, b) for a, b in zip(_params(trained), _params(ref), strict=True))
    assert trained.scale_log == scale_log
    assert trained.fusion_log == fusion_log
    s1, s2 = healthy.scale1, healthy.scale2
    z = dcae.embed_dataset(trained, healthy)
    assert np.array_equal(z, embed_oracle(ref, s1, s2, batch=50))
    assert np.array_equal(z, embed_oracle(ref, s1, s2, len(s1)))
    # 128-row batches against the oracle's 512 rows, over several of each and
    # a partial last one of each
    tiled = _rows(healthy, np.resize(np.arange(len(healthy)), 600))
    assert np.array_equal(dcae.embed_dataset(trained, tiled),
                          embed_oracle(ref, tiled.scale1, tiled.scale2))


@pytest.mark.parametrize("preset, hyper", [(TINY, HYPER), (dcae.PRESETS["desk"], DESK_HYPER)],
                         ids=["tiny", "desk"])
def test_encode_plan_equals_the_inference_forward(healthy, preset, hyper):
    """The trained encoders' plans (no dropout, a pool that keeps no switches)
    against their layers' inference forward, in float32 and float64, on the
    patches and on them scaled into ELU's linear and saturated ends."""
    model = _trained(healthy, preset=preset, hyper=hyper)
    for net, x in ((model.scale1, healthy.scale1), (model.scale2, healthy.scale2)):
        for dtype in (np.float32, np.float64):
            for scale in (1e-3, 1.0, 100.0):
                batch = (scale * x[..., None]).astype(dtype)
                want = nc.Network(net.encoder.layers).forward(batch, training=False)[0]
                got = net.encode(batch)
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)
    codes = dcae._scale_codes(model, healthy)
    for dtype in (np.float32, np.float64):
        batch = codes.astype(dtype)
        want = nc.Network(model.fusion.encoder.layers).forward(batch, training=False)[0]
        assert np.array_equal(model.fusion.encode(batch), want)


class TestMapPath:
    """embed_dataset convolves whole slice maps and gathers each pair's pooled
    windows from them: every row must equal its own crops' encoding."""

    @staticmethod
    def embed(preset, centres, width):
        ds = patches.build_dataset([("v", centre_volume(centres, width))], "eval", preset)
        model = dcae.build_model(preset, Rng(101))
        model.scales_trained = model.fusion_trained = True  # exactness needs no training
        return model, ds

    @pytest.mark.parametrize("preset", [TINY, POOL3], ids=["tiny", "pool3"])
    @pytest.mark.parametrize("width", [96, 97, 98, 99])  # W mod 4 = 0, 1, 2, 3
    def test_every_border_and_column_phase(self, preset, width):
        # 3 x 60 rows: the first 128-row batch after the pool spans all three slices
        model, ds = self.embed(preset, [border_centres(20, width)] * 3, width)
        assert np.array_equal(dcae.embed_dataset(model, ds),
                              embed_oracle(model, ds.scale1, ds.scale2, dcae.EMBED_ROWS))

    @pytest.mark.parametrize("centres", [
        [border_centres(20, 62)],
        [[(19, 61)]],
        [border_centres(20, 62), [(7, 30)], border_centres(20, 62)],
    ], ids=["one-slice", "one-pair", "a-one-pair-slice"])
    def test_few_slices_and_pairs(self, centres):
        model, ds = self.embed(TINY, centres, 62)
        assert np.array_equal(dcae.embed_dataset(model, ds),
                              embed_oracle(model, ds.scale1, ds.scale2, dcae.EMBED_ROWS))

    def test_encoding_cuts_no_crops(self, monkeypatch):
        model, ds = self.embed(TINY, [border_centres(20, 62)] * 2, 62)
        want = embed_oracle(model, ds.scale1, ds.scale2, dcae.EMBED_ROWS)

        def crops(*args):
            raise AssertionError("a crop was cut")

        monkeypatch.setattr(patches.PatchMaps, "crops", crops)
        fresh = patches.PatchDataset(ds.maps, ds.sources, ds.split, ds.preset)
        assert np.array_equal(dcae.embed_dataset(model, fresh), want)

    # the 61px slices' maps: scale 1 is [1, 35, 76], scale 2 [4, 35, 31]
    @pytest.mark.parametrize("field, value", [(0, 3), (0, -1), (1, 4), (2, 20), (2, -1),
                                              (3, 16), (3, -1)])
    def test_a_corner_outside_its_map_raises(self, field, value):
        model, ds = self.embed(TINY, [[(0, 0), (19, 60)], [(5, 5)], [(10, 10)]], 61)
        ds.maps.corners[1, field] = value
        with pytest.raises(InputError, match="outside its map"):
            dcae.embed_dataset(model, ds)


def _rows(ds, index):
    """The rows `index` of ds as a dataset of their own, on the same maps."""
    return patches.PatchDataset(ds.maps._replace(corners=ds.maps.corners[index]),
                                [ds.sources[i] for i in index], ds.split, ds.preset)


def _scale_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("dcae-scale1")]


class TestScaleHalves:
    @pytest.mark.parametrize("scale", ["scale1", "scale2"])
    def test_a_broken_scale_raises_its_typed_error(self, healthy, trained, scale):
        conv = getattr(trained, scale).layers[0]
        kernels = conv.kernels
        s1, s2 = healthy.scale1, healthy.scale2
        conv.kernels = kernels[..., None]
        try:
            with pytest.raises(DimensionError, match=r"kernels must be \[k,k,Cin,Cout\]"):
                dcae.embed_dataset(trained, healthy)
        finally:
            conv.kernels = kernels
        assert np.array_equal(dcae.embed_dataset(trained, healthy),
                              embed_oracle(trained, s1, s2, len(s1)))

    def test_no_scale_thread_outlives_its_stage(self, healthy):
        rng = Rng(98)
        model = dcae.build_model(TINY, rng.derive(1))
        hyper = dcae.TrainConfig(epochs=1, batch_size=64, fusion_epochs=1)
        for stage in (lambda: dcae.train_dcae(model, healthy, hyper, rng.derive(2)),
                      lambda: dcae.train_fusion(model, healthy, hyper, rng.derive(3)),
                      lambda: dcae.embed_dataset(model, healthy)):
            stage()
            assert _scale_threads() == []

    @pytest.mark.parametrize("broken, other", [("scale1", "scale2"), ("scale2", "scale1")])
    def test_a_non_finite_scale_fails_once_the_other_has_trained(self, healthy, broken, other):
        hyper = dcae.TrainConfig(lr=1e-2, epochs=2, batch_size=32)
        clean = dcae.train_dcae(dcae.build_model(TINY, Rng(99)), healthy, hyper, Rng(100))
        model = dcae.build_model(TINY, Rng(99))
        getattr(model, broken).layers[-1].bias[:] = np.nan  # the linear output
        with pytest.raises(TrainingError, match="non-finite loss nan at epoch 0, batch 0"):
            dcae.train_dcae(model, healthy, hyper, Rng(100))
        assert not model.scales_trained and model.scale_log == []
        assert _scale_threads() == []
        assert all(np.array_equal(a, b) for a, b in
                   zip(getattr(model, other).params(), getattr(clean, other).params(), strict=True))

    # Python 3.12+ warns on any fork of a process that has started a thread
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_its_own_worker(self, healthy, trained):
        first8 = _rows(healthy, np.arange(8))
        expected = dcae.embed_dataset(trained, first8)  # the parent has run a scale thread
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(dcae.embed_dataset(trained, first8), expected)
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's embed did not return")
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestBatched:
    def test_empty_dataset_gives_zero_rows(self, healthy, trained):
        z = dcae.embed_dataset(trained, _rows(healthy, np.arange(0)))
        assert z.shape == (0, TINY.fusion_dim)
        assert z.dtype == np.float32


def test_embed_dataset_shape(healthy, trained):
    z = dcae.embed_dataset(trained, healthy)
    assert z.shape == (len(healthy), TINY.fusion_dim)
    assert np.all(np.isfinite(z))
    assert np.array_equal(z, dcae.embed_dataset(trained, healthy))


class TestZeroRows:
    """Training on an empty dataset raises a typed error, not a NaN loss log
    (every warning fails a test, so a `Mean of empty slice` would too)."""

    def test_train_dcae(self, healthy):
        model = dcae.build_model(TINY, Rng(92))
        with pytest.raises(InputError, match="no rows"):
            dcae.train_dcae(model, _rows(healthy, np.arange(0)), HYPER, Rng(93))
        assert model.scale_log == [] and not model.scales_trained

    def test_train_fusion(self, healthy, trained):
        model = dataclasses.replace(trained, fusion_log=[])
        with pytest.raises(InputError, match="no rows"):
            dcae.train_fusion(model, _rows(healthy, np.arange(0)), HYPER, Rng(94))
        assert model.fusion_log == []


class TestTrainSettings:
    """A setting that would train nothing raises a typed error and marks no
    stage trained, so a loss log is never left empty."""

    @pytest.mark.parametrize("bad", [dict(batch_size=0), dict(batch_size=-1), dict(epochs=0)])
    def test_train_dcae(self, healthy, bad):
        model = dcae.build_model(TINY, Rng(95))
        with pytest.raises(ParameterError):
            dcae.train_dcae(model, healthy, dataclasses.replace(HYPER, **bad), Rng(96))
        assert model.scale_log == [] and not model.scales_trained

    @pytest.mark.parametrize("bad", [dict(batch_size=0), dict(fusion_epochs=0)])
    def test_train_fusion(self, healthy, trained, bad):
        model = dataclasses.replace(trained, fusion_log=[], fusion_trained=False)
        with pytest.raises(ParameterError):
            dcae.train_fusion(model, healthy, dataclasses.replace(HYPER, **bad), Rng(97))
        assert model.fusion_log == [] and not model.fusion_trained


class TestCallOrder:
    def test_fusion_before_scales(self, healthy):
        model = dcae.build_model(TINY, Rng(83))
        with pytest.raises(UsageError):
            dcae.train_fusion(model, healthy, HYPER, Rng(84))

    def test_embed_before_training(self, healthy):
        model = dcae.build_model(TINY, Rng(85))
        with pytest.raises(UsageError):
            dcae.embed_dataset(model, _rows(healthy, np.arange(2)))
        dcae.train_dcae(model, healthy, dcae.TrainConfig(epochs=1, batch_size=64), Rng(86))
        with pytest.raises(UsageError):  # scales alone are not enough
            dcae.embed_dataset(model, _rows(healthy, np.arange(2)))

    def test_train_on_non_healthy_split(self, healthy):
        model = dcae.build_model(TINY, Rng(87))
        for split in ("anomaly-train", "eval"):
            ds = patches.PatchDataset(healthy.maps, healthy.sources, split, healthy.preset)
            with pytest.raises(UsageError):
                dcae.train_dcae(model, ds, HYPER, Rng(88))


class TestPatchSide:
    CALLS = {
        "train_dcae": lambda model, ds: dcae.train_dcae(model, ds, HYPER, Rng(90)),
        "train_fusion": lambda model, ds: dcae.train_fusion(model, ds, HYPER, Rng(91)),
        "embed_dataset": dcae.embed_dataset,
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_dataset_side_must_match_the_model(self, healthy, call):
        model = dcae.build_model(SIDE8, Rng(89))
        model.scales_trained = model.fusion_trained = True  # only the side is wrong
        with pytest.raises(UsageError, match="16px patches"):
            self.CALLS[call](model, healthy)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_scale_arrays_must_be_len_side_side(self, healthy, call):
        model = dcae.build_model(TINY, Rng(89))
        model.scales_trained = model.fusion_trained = True  # only the shapes are wrong
        s1, s2 = healthy.scale1[:4], healthy.scale2[:4]
        # 8px maps, too small for the 16px window at each corner (i, 0, 0, 0)
        corners = np.zeros((4, 4), np.int64)
        corners[:, 0] = np.arange(4)
        small = patches.PatchMaps(list(s1[:, None, :8, :8]), list(s2[:, None, :8, :8]), corners)
        ds = patches.PatchDataset(small, healthy.sources[:4], healthy.split, healthy.preset)
        with pytest.raises(InputError, match="puts a 16px window outside its map"):
            self.CALLS[call](model, ds)
