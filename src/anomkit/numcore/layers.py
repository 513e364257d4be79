"""Composable layers, the gradient tape, and the SGD optimizer.

A `Network` is an ordered stack of layers. `forward` records every
intermediate needed for the backward pass on a `GradTape`; `backward`
consumes that tape exactly once and returns parameter gradients. Unpool
layers read the argmax switches recorded by their partner pool layer, so
an encoder/decoder pair shares pooling geometry through the tape.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, TrainingError, UsageError
from ..rng import Rng
from . import ops


class GradTape:
    """Per-forward record of activations and pool switches, keyed by layer.

    A tape is valid for exactly one backward pass of the network that
    produced it. Backward passes of parameter layers write their gradients
    to `grads`, keyed the same way.
    """

    def __init__(self, owner):
        self.owner = owner
        self.saved = {}
        self.grads = {}
        self.consumed = False

    def put(self, layer, value):
        self.saved[id(layer)] = value

    def get(self, layer):
        try:
            return self.saved[id(layer)]
        except KeyError:
            raise UsageError(f"tape holds no record for {layer!r}") from None


def glorot_uniform(rng: Rng, shape, fan_in, fan_out, dtype=np.float32):
    """Symmetric uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    """Base layer. Stateless layers keep params() empty."""

    def params(self):
        return []

    def init(self, rng: Rng):
        pass

    def forward(self, x, tape, training, rng):
        raise NotImplementedError

    def backward(self, grad, tape):
        raise NotImplementedError

    def _param_backward(self, grad, tape):
        """Record parameter gradients only: `Network.backward` calls this for
        its first layer, whose input is data and needs no gradient."""
        self.backward(grad, tape)


class Conv2D(Layer):
    def __init__(self, kernel_size, in_channels, out_channels, dtype=np.float32):
        self.k = int(kernel_size)
        self.cin = int(in_channels)
        self.cout = int(out_channels)
        self.dtype = dtype
        self.kernels = np.zeros((self.k, self.k, self.cin, self.cout), dtype)
        self.bias = np.zeros(self.cout, dtype)

    def init(self, rng):
        fan = self.k * self.k
        self.kernels = glorot_uniform(
            rng, self.kernels.shape, fan * self.cin, fan * self.cout, self.dtype
        )
        self.bias = np.zeros(self.cout, self.dtype)

    def params(self):
        return [self.kernels, self.bias]

    def forward(self, x, tape, training, rng):
        tape.put(self, x)
        return ops.conv2d_valid(x, self.kernels, self.bias)

    def backward(self, grad, tape):
        self._param_backward(grad, tape)
        return ops.deconv2d(grad, self.kernels)

    def _param_backward(self, grad, tape):
        tape.grads[id(self)] = list(ops.conv2d_param_grads(grad, tape.get(self), self.kernels))


class Deconv2D(Layer):
    """Adjoint-of-conv layer with a per-channel output bias."""

    def __init__(self, kernel_size, out_channels, in_channels, dtype=np.float32):
        # maps [H,W,in_channels] -> [H+k-1, W+k-1, out_channels]
        self.k = int(kernel_size)
        self.cin = int(in_channels)  # channels of the incoming tensor
        self.cout = int(out_channels)
        self.dtype = dtype
        self.kernels = np.zeros((self.k, self.k, self.cout, self.cin), dtype)
        self.bias = np.zeros(self.cout, dtype)

    def init(self, rng):
        fan = self.k * self.k
        self.kernels = glorot_uniform(
            rng, self.kernels.shape, fan * self.cin, fan * self.cout, self.dtype
        )
        self.bias = np.zeros(self.cout, self.dtype)

    def params(self):
        return [self.kernels, self.bias]

    def forward(self, x, tape, training, rng):
        tape.put(self, x)
        return ops.deconv2d(x, self.kernels) + self.bias

    def backward(self, grad, tape):
        x = tape.get(self)
        grad_x, gk = ops.deconv2d_backward(grad, x, self.kernels)
        gb = grad.reshape(-1, grad.shape[-1]).astype(np.float64).sum(axis=0)
        tape.grads[id(self)] = [gk, gb.astype(self.dtype)]
        return grad_x


class MaxPool2D(Layer):
    def __init__(self, pool):
        self.pool = int(pool)

    def forward(self, x, tape, training, rng):
        out, switches = ops.maxpool(x, self.pool)
        tape.put(self, switches)
        return out

    def backward(self, grad, tape):
        return ops.maxpool_backward(grad, tape.get(self))


class Unpool2D(Layer):
    """Reverses a partner MaxPool2D using the switches it recorded."""

    def __init__(self, partner: MaxPool2D):
        self.partner = partner

    def forward(self, x, tape, training, rng):
        return ops.unpool(x, tape.get(self.partner))

    def backward(self, grad, tape):
        return ops.unpool_backward(grad, tape.get(self.partner))


class Dense(Layer):
    def __init__(self, in_dim, out_dim, dtype=np.float32):
        self.din = int(in_dim)
        self.dout = int(out_dim)
        if self.dout < 1:
            raise ParameterError(f"dense unit count must be >= 1, got {out_dim}")
        self.dtype = dtype
        self.weight = np.zeros((self.din, self.dout), dtype)
        self.bias = np.zeros(self.dout, dtype)

    def init(self, rng):
        self.weight = glorot_uniform(rng, self.weight.shape, self.din, self.dout, self.dtype)
        self.bias = np.zeros(self.dout, self.dtype)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, tape, training, rng):
        tape.put(self, x)
        return ops.dense(x, self.weight, self.bias)

    def backward(self, grad, tape):
        x = tape.get(self)
        grad_x, gw, gb = ops.dense_backward(grad, x, self.weight)
        tape.grads[id(self)] = [gw, gb]
        return grad_x


class Elu(Layer):
    def __init__(self, alpha=1.0):
        self.alpha = float(alpha)

    def forward(self, x, tape, training, rng):
        tape.put(self, x)
        return ops.elu(x, self.alpha)

    def backward(self, grad, tape):
        return ops.elu_backward(grad, tape.get(self), self.alpha)


class Dropout(Layer):
    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = float(rate)

    def forward(self, x, tape, training, rng):
        if not training:  # the identity: record no all-ones mask
            tape.put(self, None)
            return x
        out, mask = ops.dropout(x, self.rate, rng)
        tape.put(self, mask)
        return out

    def backward(self, grad, tape):
        mask = tape.get(self)
        return grad if mask is None else ops.dropout_backward(grad, mask)


class Reshape(Layer):
    """Per-sample reshape; the batch axis passes through untouched."""

    def __init__(self, shape):
        self.shape = tuple(int(s) for s in shape)

    def forward(self, x, tape, training, rng):
        tape.put(self, x.shape)
        return x.reshape((x.shape[0],) + self.shape)

    def backward(self, grad, tape):
        return grad.reshape(tape.get(self))


class Network:
    """A sequential stack of layers with tape-based backprop.

    forward/backward operate on batched inputs ([N, ...]); callers wrap
    single samples in a unit batch.
    """

    def __init__(self, layers):
        self.layers = list(layers)

    def init(self, rng: Rng):
        for i, layer in enumerate(self.layers):
            layer.init(rng.derive(i))

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x, training=False, rng: Rng | None = None):
        tape = GradTape(owner=id(self))
        for i, layer in enumerate(self.layers):
            lrng = rng.derive(i) if rng is not None else None
            x = layer.forward(x, tape, training, lrng)
        return x, tape

    def backward(self, tape: GradTape, grad_out):
        """Exact reverse-mode gradients; returns them in params() order."""
        if tape.owner != id(self):
            raise UsageError("tape was produced by a different network")
        if tape.consumed:
            raise UsageError("stale tape: backward was already called on it")
        tape.consumed = True
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad, tape)
        for layer in self.layers[:1]:  # its input is data: no input gradient
            layer._param_backward(grad, tape)
        return [g for layer in self.layers for g in tape.grads.get(id(layer), ())]


def sgd_step(params, grads, lr, momentum=0.0, velocity=None):
    """One SGD-with-momentum step: v <- momentum*v - lr*g; p <- p + v.

    Returns (new_params, new_velocity). Lists are aligned elementwise.
    """
    if lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0,1), got {momentum}")
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    new_params, new_velocity = [], []
    for i, (p, g, v) in enumerate(zip(params, grads, velocity)):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {i} (shape {p.shape})")
        v = momentum * v - lr * g
        new_velocity.append(v.astype(p.dtype))
        new_params.append(p + v.astype(p.dtype))
    return new_params, new_velocity
