"""Analytic gradients vs central finite differences for every layer kind."""

import numpy as np

from anomkit import numcore as nc
from anomkit.numcore import ops
from anomkit.rng import Rng

from helpers import float64_twin, numerical_grad, rel_err

TOL = 1e-4
EPS = 1e-3


def loss_through(net, x, target):
    out, _ = net.forward(x[None])
    return nc.mse(target, out[0])


def check_network_grads(net, x, target):
    """Compare backprop grads against finite differences: every parameter's,
    and the input's unless the first layer is a Conv2D, which takes data and
    returns no input gradient."""
    out, tape = net.forward(x[None])
    grad_out = nc.mse_grad(target, out[0])
    grads = net.backward(tape, grad_out[None])
    params = net.params()
    assert len(grads) == len(params)

    for p, g in zip(params, grads):
        orig = p.copy()

        def f(v, p=p, orig=orig):
            p[...] = v
            val = loss_through(net, x, target)
            p[...] = orig
            return val

        num = numerical_grad(f, orig, eps=EPS)
        assert rel_err(g, num) <= TOL, f"param shape {p.shape}"
    if isinstance(net.layers[0], nc.Conv2D):
        return

    def f_in(v):
        return loss_through(net, v, target)

    out, tape = net.forward(x[None])
    grad = nc.mse_grad(target, out[0])[None]
    for layer in reversed(net.layers):
        grad = layer.backward(grad, tape)
    num_in = numerical_grad(f_in, x, eps=EPS)
    assert rel_err(grad[0], num_in) <= TOL


def test_dense_layer_grad():
    rng = Rng(10)
    net = nc.Network([nc.Dense(6, 4), nc.Elu()])
    net.init(rng)
    net = float64_twin(net)
    x = rng.normal(size=6)
    target = rng.normal(size=4)
    check_network_grads(net, x, target)


def test_conv_pool_elu_stack_grad():
    rng = Rng(11)
    net = nc.Network(
        [
            nc.Conv2D(3, 1, 2),
            nc.Elu(),
            nc.MaxPool2D(2),
        ]
    )
    net.init(rng)
    net = float64_twin(net)
    x = rng.normal(size=(7, 7, 1))
    target = rng.normal(size=(2, 2, 2))
    check_network_grads(net, x, target)


def test_deconv_unpool_grad():
    rng = Rng(12)
    pool = nc.MaxPool2D(2)
    net = nc.Network(
        [
            pool,
            nc.Unpool2D(pool),
            nc.Deconv2D(3, 1, 1),
        ]
    )
    net.init(rng)
    net = float64_twin(net)
    x = rng.normal(size=(6, 6, 1))
    target = rng.normal(size=(8, 8, 1))
    check_network_grads(net, x, target)


def test_full_encoder_decoder_grad():
    # mirrored autoencoder with dropout disabled; also exercises Reshape
    rng = Rng(13)
    pool = nc.MaxPool2D(2)
    net = nc.Network(
        [
            nc.Conv2D(3, 1, 3),
            nc.Elu(),
            pool,
            nc.Reshape((3 * 3 * 3,)),
            nc.Dense(27, 8),
            nc.Elu(),
            nc.Dense(8, 5),
            nc.Elu(),
            nc.Dense(5, 8),
            nc.Elu(),
            nc.Dense(8, 27),
            nc.Elu(),
            nc.Reshape((3, 3, 3)),
            nc.Unpool2D(pool),
            nc.Deconv2D(3, 1, 3),
        ]
    )
    net.init(rng)
    net = float64_twin(net)
    x = rng.normal(size=(8, 8, 1)) * 0.5
    target = x  # autoencoder objective
    check_network_grads(net, x, target)


def test_dropout_backward_uses_mask():
    rng = Rng(14)
    x = rng.normal(size=(5, 10))
    layer, tape = nc.Dropout(0.4), nc.GradTape(owner=None)
    out = layer.forward(x, tape, True, Rng(3))
    mask = tape.get(layer)
    assert np.array_equal(mask, ops.dropout(x, 0.4, Rng(3))[1])
    assert np.array_equal(out, x * mask)
    grad = rng.normal(size=x.shape)
    assert np.array_equal(layer.backward(grad, tape), grad * mask)


def test_elu_gradient_finite_difference():
    rng = Rng(15)
    x = rng.normal(size=20)
    g = ops.elu_backward(np.ones(20), x)
    num = numerical_grad(lambda v: float(np.sum(ops.elu(v))), x, eps=1e-5)
    assert rel_err(g, num) <= 1e-6


def test_stale_tape_rejected():
    import pytest

    from anomkit.errors import UsageError

    rng = Rng(16)
    net = nc.Network([nc.Dense(3, 2)])
    net.init(rng)
    out, tape = net.forward(rng.normal(size=(1, 3)))
    net.backward(tape, np.ones_like(out))
    with pytest.raises(UsageError):
        net.backward(tape, np.ones_like(out))

    other = nc.Network([nc.Dense(3, 2)])
    other.init(rng)
    out2, tape2 = net.forward(rng.normal(size=(1, 3)))
    with pytest.raises(UsageError):
        other.backward(tape2, np.ones_like(out2))


def test_init_determinism():
    net1 = nc.Network([nc.Conv2D(3, 1, 4), nc.Dense(10, 5)])
    net1.init(Rng(99))
    net2 = nc.Network([nc.Conv2D(3, 1, 4), nc.Dense(10, 5)])
    net2.init(Rng(99))
    for a, b in zip(net1.params(), net2.params()):
        assert np.array_equal(a, b)
