"""The one preset table: every module that takes a preset name reads its
sizes from `presets.PRESETS`."""

import numpy as np
import pytest

from anomkit import dcae, patches, phantom, preprocess
from anomkit.errors import ParameterError
from anomkit.presets import PRESETS
from anomkit.rng import Rng


@pytest.fixture(scope="module")
def prepped():
    vol, _ = phantom.generate_volume(
        phantom.healthy_config(55, n_slices=1, height=96, width=96), "vol-p")
    return [(vol.volume_id, preprocess.preprocess_volume(vol.data))]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_patches_take_the_presets_side(prepped, name):
    side = PRESETS[name].patch_side
    maps = patches.slice_maps(np.zeros((40, 40)), [(20, 20), (0, 39)], name)
    assert maps.crops(1, side).shape == maps.crops(2, side).shape == (2, side, side)
    ds = patches.build_dataset(prepped, "eval", name, rng=Rng(56), cap=5)
    assert ds.preset is PRESETS[name]
    assert ds.scale1.shape == ds.scale2.shape == (5, side, side)


def test_unknown_preset_name_rejected_everywhere(prepped):
    calls = [
        lambda: patches.slice_maps(np.zeros((40, 40)), [(20, 20)], "huge"),
        lambda: patches.build_dataset(prepped, "eval", "huge"),
        lambda: dcae.build_model("huge", Rng(57)),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="unknown preset 'huge'"):
            call()
