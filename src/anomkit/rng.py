"""Seeded, reproducible random number generation.

Every stochastic operation in the package draws from an `Rng` so that a fixed
seed plus a fixed call sequence yields the same stream on every platform.
Backed by the counter-based Philox generator; child streams are derived by
mixing a tag into the 128-bit key, so parallel work can get independent,
reproducible streams without sharing state.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic random generator with derivable child streams."""

    def __init__(self, seed: int, _tag: int = 0):
        self.seed = int(seed) & _MASK64
        self.tag = int(_tag) & _MASK64
        key = np.array([self.seed, self.tag], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag: int) -> "Rng":
        """Independent child stream; same (seed, tag) always gives the same stream."""
        return Rng(self.seed, _tag=(self.tag * 0x9E3779B97F4A7C15 + int(tag) + 1) & _MASK64)

    # thin passthroughs to the underlying generator

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def random(self, size=None, dtype=np.float64):
        return self._gen.random(size, dtype)

    def permutation(self, x):
        return self._gen.permutation(x)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)
