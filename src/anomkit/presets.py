"""The one table of sizes, keyed by preset name: a `DcaePreset` sets the patch
side `patches` cuts, the layer sizes of `dcae`, and the PCA comparison's
`fusion_dim // 2` components per scale, so its features are as wide as the
DCAE's z. Every module resolves a name (or a preset) through `get_preset`."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class DcaePreset:
    name: str
    patch_side: int  # side of both crops of a patch pair
    conv_kernels: int
    conv_size: int
    pool: int
    dense_hidden: int
    code_dim: int  # per-scale encoding width
    fusion_dim: int  # width of the feature vector z

    @property
    def conv_out(self):  # spatial side after the valid convolution
        return self.patch_side - self.conv_size + 1

    @property
    def pooled(self):  # spatial side after pooling
        return self.conv_out // self.pool

    @property
    def flat_dim(self):
        return self.pooled * self.pooled * self.conv_kernels


PRESETS = {
    "paper": DcaePreset("paper", patch_side=32, conv_kernels=512, conv_size=9,
                        pool=3, dense_hidden=2048, code_dim=512, fusion_dim=256),
    "desk": DcaePreset("desk", patch_side=16, conv_kernels=32, conv_size=5,
                       pool=2, dense_hidden=128, code_dim=64, fusion_dim=32),
}


def get_preset(name) -> DcaePreset:
    if isinstance(name, DcaePreset):
        return name
    try:
        return PRESETS[name]
    except KeyError:
        raise ParameterError(f"unknown preset {name!r}; know {sorted(PRESETS)}") from None
