"""Seeded, reproducible random number generation.

Every stochastic operation in the package draws from an `Rng` so that a fixed
seed plus a fixed call sequence yields the same stream on every platform.
`Rng` is numpy's `Generator` on the counter-based Philox bit generator. The one
thing it adds is `derive`: child streams mix a tag into the 128-bit key, so
parallel work gets independent, reproducible streams without sharing state.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng(np.random.Generator):
    """Deterministic random generator with derivable child streams."""

    def __init__(self, seed: int, _tag: int = 0):
        self.seed = int(seed) & _MASK64
        self.tag = int(_tag) & _MASK64
        super().__init__(np.random.Philox(key=np.array([self.seed, self.tag], dtype=np.uint64)))

    def derive(self, tag: int) -> "Rng":
        """Independent child stream; same (seed, tag) always gives the same stream."""
        return Rng(self.seed, _tag=(self.tag * 0x9E3779B97F4A7C15 + int(tag) + 1) & _MASK64)
