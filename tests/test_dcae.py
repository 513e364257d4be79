"""Two-scale DCAE and fusion DAE on a tiny preset."""

import dataclasses

import numpy as np
import pytest

from anomkit import dcae, patches, phantom, preprocess
from anomkit.errors import UsageError
from anomkit.rng import Rng

from oracles import embed_oracle, train_fusion_oracle, train_scales_oracle

TINY = dcae.DcaePreset("tiny", patch_side=16, conv_kernels=4, conv_size=5, pool=2,
                       dense_hidden=16, code_dim=8, fusion_dim=4)
HYPER = dcae.TrainConfig(lr=1e-2, epochs=4, batch_size=16, fusion_epochs=4)
SIDE8 = dataclasses.replace(TINY, name="tiny8", patch_side=8, conv_size=3)


@pytest.fixture(scope="module")
def healthy():
    vol, _ = phantom.generate_volume(
        phantom.healthy_config(80, n_slices=2, height=96, width=128), "vol-h")
    prep = preprocess.preprocess_volume(vol.data)
    return patches.build_dataset([(vol.volume_id, prep)], "healthy-train", "desk",
                                 rng=Rng(81), cap=128)


def _trained(ds, seed=82):
    rng = Rng(seed)
    model = dcae.build_model(TINY, rng.derive(1))
    dcae.train_dcae(model, ds, HYPER, rng.derive(2))
    dcae.train_fusion(model, ds, HYPER, rng.derive(3))
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


def test_matches_the_written_out_loops(healthy, trained):
    rng = Rng(82)  # the seed and derivations of _trained
    ref = dcae.build_model(TINY, rng.derive(1))
    scale_log = train_scales_oracle(ref, healthy, HYPER, rng.derive(2))
    fusion_log = train_fusion_oracle(ref, healthy, HYPER, rng.derive(3))
    assert all(np.array_equal(a, b) for a, b in zip(_params(trained), _params(ref), strict=True))
    assert trained.scale_log == scale_log
    assert trained.fusion_log == fusion_log
    s1, s2 = healthy.scale1, healthy.scale2
    assert np.array_equal(dcae.embed_dataset(trained, healthy, batch=50),
                          embed_oracle(ref, s1, s2, batch=50))
    assert np.array_equal(dcae.embed_pairs(trained, s1, s2), embed_oracle(ref, s1, s2, len(s1)))


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
