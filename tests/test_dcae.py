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
from anomkit.errors import DimensionError, InputError, ParameterError, UsageError
from anomkit.rng import Rng

from oracles import embed_oracle, train_fusion_oracle, train_scales_oracle

TINY = dcae.DcaePreset("tiny", patch_side=16, conv_kernels=4, conv_size=5, pool=2,
                       dense_hidden=16, code_dim=8, fusion_dim=4)
HYPER = dcae.TrainConfig(lr=1e-2, epochs=4, batch_size=16, fusion_epochs=4)
SIDE8 = dataclasses.replace(TINY, name="tiny8", patch_side=8, conv_size=3)
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
    assert np.array_equal(dcae.embed_dataset(trained, healthy, batch=50),
                          embed_oracle(ref, s1, s2, batch=50))
    assert np.array_equal(dcae.embed_pairs(trained, s1, s2), embed_oracle(ref, s1, s2, len(s1)))
    # the default 128-row batches against the oracle's 512 rows, over several of each
    tiled = _rows(healthy, np.tile(np.arange(len(healthy)), 5))
    assert np.array_equal(dcae.embed_dataset(trained, tiled),
                          embed_oracle(ref, tiled.scale1, tiled.scale2))


def _rows(ds, index):
    """The rows `index` of ds as a dataset of their own."""
    return patches.PatchDataset(ds.scale1[index], ds.scale2[index],
                                [ds.sources[i] for i in index],
                                [ds.patient_ids[i] for i in index], ds.split, ds.preset)


class TestScaleHalves:
    def test_scale1_runs_on_the_worker_and_scale2_here(self):
        ids = dcae._both_scales(threading.get_ident, threading.get_ident)
        assert ids[1] == threading.get_ident() != ids[0]

    def test_the_worker_finishes_before_an_error_is_raised(self):
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append(True)

        def fail():
            raise InputError("scale 2")

        with pytest.raises(InputError, match="scale 2"):
            dcae._both_scales(slow, fail)
        assert finished == [True]

    def test_scale1_error_comes_first(self):
        def fail1():
            time.sleep(0.05)
            raise DimensionError("scale 1")

        def fail2():
            raise InputError("scale 2")

        with pytest.raises(DimensionError, match="scale 1"):
            dcae._both_scales(fail1, fail2)

    @pytest.mark.parametrize("scale", ["scale1", "scale2"])
    def test_a_broken_scale_raises_its_typed_error(self, healthy, trained, scale):
        conv = getattr(trained, scale).layers[0]
        kernels = conv.kernels
        s1, s2 = healthy.scale1, healthy.scale2
        conv.kernels = kernels[..., None]
        try:
            with pytest.raises(DimensionError, match=r"kernels must be \[k,k,Cin,Cout\]"):
                dcae.embed_pairs(trained, s1, s2)
        finally:
            conv.kernels = kernels
        assert np.array_equal(dcae.embed_pairs(trained, s1, s2),
                              embed_oracle(trained, s1, s2, len(s1)))

    # Python 3.12+ warns on any fork of a process that has started a thread
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_its_own_worker(self, healthy, trained):
        s1, s2 = healthy.scale1[:8], healthy.scale2[:8]
        expected = dcae.embed_pairs(trained, s1, s2)  # the parent's worker has started
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(dcae.embed_pairs(trained, s1, s2), expected)
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
    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected(self, healthy, trained, batch):
        with pytest.raises(ParameterError, match="batch must be >= 1"):
            dcae.embed_dataset(trained, healthy, batch=batch)

    def test_empty_dataset_gives_zero_rows(self, healthy, trained):
        z = dcae.embed_dataset(trained, _rows(healthy, np.arange(0)))
        assert z.shape == (0, TINY.fusion_dim)
        assert z.dtype == np.float32


def test_embed_dataset_shape(healthy, trained):
    z = dcae.embed_dataset(trained, healthy, batch=50)
    assert z.shape == (len(healthy), TINY.fusion_dim)
    assert np.all(np.isfinite(z))
    assert np.array_equal(z, dcae.embed_pairs(trained, healthy.scale1, healthy.scale2))


class TestCallOrder:
    def test_fusion_before_scales(self, healthy):
        model = dcae.build_model(TINY, Rng(83))
        with pytest.raises(UsageError):
            dcae.train_fusion(model, healthy, HYPER, Rng(84))

    def test_embed_before_training(self, healthy):
        model = dcae.build_model(TINY, Rng(85))
        with pytest.raises(UsageError):
            dcae.embed_pairs(model, healthy.scale1[:2], healthy.scale2[:2])
        dcae.train_dcae(model, healthy, dcae.TrainConfig(epochs=1, batch_size=64), Rng(86))
        with pytest.raises(UsageError):  # scales alone are not enough
            dcae.embed_pairs(model, healthy.scale1[:2], healthy.scale2[:2])

    def test_train_on_non_healthy_split(self, healthy):
        model = dcae.build_model(TINY, Rng(87))
        for split in ("anomaly-train", "eval"):
            ds = patches.PatchDataset(healthy.scale1, healthy.scale2, healthy.sources,
                                      healthy.patient_ids, split, healthy.preset)
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

    def test_embed_pairs_checks_batch_shapes(self, healthy, trained):
        s1, s2 = healthy.scale1[:4], healthy.scale2[:4]
        for b1, b2 in ((s1[:, :8, :8], s2[:, :8, :8]), (s1, s2[:3]),
                       (s1[..., None], s2[..., None])):
            with pytest.raises(UsageError, match="expects two"):
                dcae.embed_pairs(trained, b1, b2)
