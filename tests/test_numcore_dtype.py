"""The numcore dtype policy: a network computes in its own dtype.

A float32 model keeps float32 activations and gradients end to end, a
float64 one stays float64, and the float32 model's forward outputs and
parameter gradients stay close to those of a float64 twin with the same
weights.
"""

import numpy as np
import pytest

from anomkit import dcae
from anomkit import numcore as nc
from anomkit.rng import Rng

from helpers import float64_twin, rel_err

TINY = dcae.DcaePreset("tiny", patch_side=16, conv_kernels=4, conv_size=5, pool=2,
                       dense_hidden=16, code_dim=8, fusion_dim=4)
# max |float32 - float64| over the largest magnitude of each array; about 84
# float32 ulps, ten times the drift measured on the desk shapes below
RTOL = 1e-5


def training_pass(net, x, seed):
    """(output, the gradient entering each layer in backward order, parameter
    gradients) of one training-mode forward and backward pass on mse(x, out)."""
    out, tape = net.forward(x, Rng(seed))
    grad = nc.mse_grad(x, out)
    incoming = []
    for layer in reversed(net.layers):
        incoming.append(grad)
        grad = layer.backward(grad, tape)
    param_grads = [g for layer in net.layers for g in tape.grads.get(id(layer), ())]
    return out, incoming, param_grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scale_autoencoder_keeps_its_dtype(dtype):
    net = dcae.ScaleAutoencoder(TINY)
    net.init(Rng(1))
    if dtype == np.float64:
        net = float64_twin(net)
    x = Rng(2).uniform(size=(6, 16, 16, 1)).astype(dtype)
    out, incoming, param_grads = training_pass(net, x, seed=3)
    assert out.dtype == dtype
    assert net.encoder.infer(x).dtype == dtype
    assert [g.dtype for g in incoming] == [dtype] * len(net.layers)
    assert len(param_grads) == len(net.params())
    assert [g.dtype for g in param_grads] == [dtype] * len(param_grads)


def _desk_nets():
    model = dcae.build_model("desk", Rng(4))
    side = model.preset.patch_side
    return {
        "scale": (model.scale1, Rng(5).uniform(size=(64, side, side, 1))),
        "fusion": (model.fusion, Rng(6).normal(size=(64, 2 * model.preset.code_dim))),
    }


@pytest.mark.parametrize("name", ["scale", "fusion"])
def test_float32_drift_from_a_float64_twin_is_bounded(name):
    net, x = _desk_nets()[name]
    twin = float64_twin(net)
    out32, _, grads32 = training_pass(net, x.astype(np.float32), seed=7)
    out64, _, grads64 = training_pass(twin, x.astype(np.float64), seed=7)
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert rel_err(out32, out64) <= RTOL
    for i, (g32, g64) in enumerate(zip(grads32, grads64, strict=True)):
        assert rel_err(g32, g64) <= RTOL, f"parameter {i} {g64.shape}"
