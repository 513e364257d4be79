"""Two-scale DCAE and fusion DAE on a tiny preset."""

import numpy as np
import pytest

from anomkit import dcae, patches, phantom, preprocess
from anomkit.errors import UsageError
from anomkit.rng import Rng

TINY = dcae.DcaePreset("tiny", patch_side=16, conv_kernels=4, conv_size=5, pool=2,
                       dense_hidden=16, code_dim=8, fusion_dim=4)
HYPER = dcae.TrainConfig(lr=1e-2, epochs=4, batch_size=16, fusion_epochs=4)


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
    p1, p2 = ([p for m in (x.scale1, x.scale2, x.fusion) for p in m.params()] for x in models)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2, strict=True))
    assert np.array_equal(dcae.embed_dataset(trained, healthy),
                          dcae.embed_dataset(again, healthy))


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
