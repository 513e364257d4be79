"""Shared test utilities: finite-difference oracle, error measures and
float64 copies of float32 networks."""

import copy

import numpy as np


def numerical_grad(f, x, eps=1e-3):
    """Central finite differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def float64_twin(net):
    """A deep copy of `net` whose parameters are float64 copies of its own."""
    twin = copy.deepcopy(net)
    for layer in twin.layers:
        for name in ("kernels", "weight", "bias"):
            if hasattr(layer, name):
                setattr(layer, name, getattr(layer, name).astype(np.float64))
    return twin


def rel_err(a, b):
    """Max absolute difference relative to the larger magnitude scale."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)
