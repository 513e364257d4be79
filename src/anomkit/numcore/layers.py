"""Composable layers, the gradient tape, and the SGD optimizer.

A `Network` is an ordered stack of layers. `forward` is the training pass:
it records every intermediate needed for the backward pass on a `GradTape`,
and its Dropout layers draw their masks from the caller's stream; `backward`
consumes that tape exactly once and returns parameter gradients. A layer's
forward is, unless it overrides it, `Layer.forward`: record the input on the
tape and return `infer(x)`. Conv2D (its input's im2col columns, which its
kernel gradient multiplies), MaxPool2D (its switches), Unpool2D (nothing),
Dropout (its mask) and Reshape (the input shape) record something else and
keep their own. Unpool layers read the argmax switches recorded by their
partner pool layer, so an encoder/decoder pair shares pooling geometry
through the tape.

Conv2D, Deconv2D and Dense share the weighted base `_Weighted`: a float32
`weight` and one float32 `bias` per output channel. Its `init` draws the
weight Glorot-uniform, with the fans worked out from the weight's shape, and
zeroes the bias, and its `params` is `[weight, bias]`.

A Conv2D takes data: it must be its network's first layer, and `Network`
rejects one anywhere else. Its backward records its kernel and bias
gradients and returns no input gradient, so `Network.backward` runs every
layer's backward in reverse order and no gradient flows into the data.

`Network.infer` runs the inference plan: the layer list without its Dropout
layers (the identity outside training), each layer's `infer` in order with
no tape and no RNG, so a pool keeps no switches. Its output is
`np.array_equal` to each layer's `forward` with `training` false, in order,
and so to the training pass of a Network over the plan, which holds no
Dropout layer to draw. The plan holds layers, not their arrays, so it
follows `init` and weight updates.
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


def glorot_uniform(rng: Rng, shape):
    """Symmetric float32 uniform init in +-sqrt(6/(fan_in+fan_out)). The fans
    are the last two axes of `shape`, each times the product of the other
    axes (a convolution's kernel window)."""
    limit = math.sqrt(6.0 / (math.prod(shape[:-2]) * (shape[-2] + shape[-1])))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    """Base layer. Stateless layers keep params() empty."""

    def params(self):
        return []

    def init(self, rng: Rng):
        pass

    def forward(self, x, tape, training, rng):
        """Training or inference output; records the input for `backward`."""
        tape.put(self, x)
        return self.infer(x)

    def infer(self, x):
        """Inference output with no tape and no RNG; equal to forward's."""
        raise UsageError(f"{type(self).__name__} has no inference pass")


class _Weighted(Layer):
    """A float32 weight of the given shape and one float32 bias per output
    channel; `init` draws the weight Glorot-uniform and zeroes the bias."""

    def __init__(self, shape, out_channels):
        self.weight = np.zeros(tuple(int(s) for s in shape), np.float32)
        self.bias = np.zeros(int(out_channels), np.float32)

    def init(self, rng):
        self.weight = glorot_uniform(rng, self.weight.shape)
        self.bias = np.zeros(self.bias.shape, np.float32)

    def params(self):
        return [self.weight, self.bias]


class Conv2D(_Weighted):
    def __init__(self, kernel_size, in_channels, out_channels):
        super().__init__((kernel_size, kernel_size, in_channels, out_channels), out_channels)

    def forward(self, x, tape, training, rng):
        out, cols = ops.conv2d_forward(x, self.weight, self.bias)
        tape.put(self, cols)
        return out

    def infer(self, x):
        return ops.conv2d_forward(x, self.weight, self.bias)[0]

    def backward(self, grad, tape):
        """Records the kernel and bias gradients; its input is data, so it
        returns no input gradient."""
        gk = ops.conv2d_kernel_grad(grad, tape.get(self), self.weight)
        tape.grads[id(self)] = [gk, grad.reshape(-1, grad.shape[-1]).sum(axis=0)]


class Deconv2D(_Weighted):
    """Adjoint-of-conv layer with a per-channel output bias."""

    def __init__(self, kernel_size, out_channels, in_channels):
        # maps [N,H,W,in_channels] -> [N, H+k-1, W+k-1, out_channels]
        super().__init__((kernel_size, kernel_size, out_channels, in_channels), out_channels)

    def infer(self, x):
        return ops.deconv2d(x, self.weight) + self.bias

    def backward(self, grad, tape):
        # the zero bias add keeps conv2d_forward's output bits: -0.0 becomes +0.0
        grad_x, cols = ops.conv2d_forward(grad, self.weight,
                                          np.zeros(self.weight.shape[-1], self.weight.dtype))
        gk = ops.conv2d_kernel_grad(tape.get(self), cols, self.weight)
        tape.grads[id(self)] = [gk, grad.reshape(-1, grad.shape[-1]).sum(axis=0)]
        return grad_x


class MaxPool2D(Layer):
    def __init__(self, pool):
        self.pool = int(pool)

    def forward(self, x, tape, training, rng):
        out, switches = ops.maxpool(x, self.pool)
        tape.put(self, switches)
        return out

    def infer(self, x):
        return ops.maxpool(x, self.pool)[0]

    def backward(self, grad, tape):
        return ops.unpool(grad, tape.get(self))


class Unpool2D(Layer):
    """Reverses a partner MaxPool2D using the switches it recorded."""

    def __init__(self, partner: MaxPool2D):
        self.partner = partner

    def forward(self, x, tape, training, rng):
        return ops.unpool(x, tape.get(self.partner))

    def backward(self, grad, tape):
        return ops.unpool_backward(grad, tape.get(self.partner))


class Dense(_Weighted):
    def __init__(self, in_dim, out_dim):
        if int(out_dim) < 1:
            raise ParameterError(f"dense unit count must be >= 1, got {out_dim}")
        super().__init__((in_dim, out_dim), out_dim)

    def infer(self, x):
        return ops.dense(x, self.weight, self.bias)

    def backward(self, grad, tape):
        x = tape.get(self)
        grad_x, gw, gb = ops.dense_backward(grad, x, self.weight)
        tape.grads[id(self)] = [gw, gb]
        return grad_x


class Elu(Layer):
    def infer(self, x):
        return ops.elu(x)

    def backward(self, grad, tape):
        return ops.elu_backward(grad, tape.get(self))


class Dropout(Layer):
    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = float(rate)

    def forward(self, x, tape, training, rng):
        if not training:  # the identity: record no all-ones mask
            tape.put(self, None)
            return x
        if rng is None:
            raise UsageError("dropout in training needs a random stream")
        out, mask = ops.dropout(x, self.rate, rng)
        tape.put(self, mask)
        return out

    def backward(self, grad, tape):
        mask = tape.get(self)
        return grad if mask is None else grad * mask


class Reshape(Layer):
    """Per-sample reshape; the batch axis passes through untouched."""

    def __init__(self, shape):
        self.shape = tuple(int(s) for s in shape)

    def forward(self, x, tape, training, rng):
        tape.put(self, x.shape)
        return self.infer(x)

    def infer(self, x):
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
        if any(isinstance(layer, Conv2D) for layer in self.layers[1:]):
            raise UsageError("a Conv2D takes data: it must be its network's first layer")
        self.plan = [layer for layer in self.layers if not isinstance(layer, Dropout)]

    def init(self, rng: Rng):
        for i, layer in enumerate(self.layers):
            layer.init(rng.derive(i))

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x, rng: Rng | None = None):
        """(output, tape) of the training pass. Dropout layers, the only ones
        that draw, get the stream rng.derive(index of the layer); every other
        layer gets None."""
        tape = GradTape(owner=id(self))
        for i, layer in enumerate(self.layers):
            lrng = rng.derive(i) if rng is not None and isinstance(layer, Dropout) else None
            x = layer.forward(x, tape, True, lrng)
        return x, tape

    def infer(self, x):
        """The inference plan's output: each layer's inference pass in order."""
        for layer in self.plan:
            x = layer.infer(x)
        return x

    def backward(self, tape: GradTape, grad_out):
        """Exact reverse-mode gradients; returns them in params() order."""
        if tape.owner != id(self):
            raise UsageError("tape was produced by a different network")
        if tape.consumed:
            raise UsageError("stale tape: backward was already called on it")
        tape.consumed = True
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad, tape)
        return [g for layer in self.layers for g in tape.grads.get(id(layer), ())]


def sgd_step(params, grads, lr, momentum, velocity):
    """One SGD-with-momentum step, in place: v *= momentum; v -= lr*g; p += v.

    The lists are aligned elementwise; each velocity has its parameter's
    shape and dtype. Each array is updated with numpy's same-kind casting, so
    a float64 gradient moves a float32 parameter by (momentum*v - lr*g)
    rounded once to float32, as the out-of-place step of
    `tests/oracles.momentum_step_oracle` does. Every gradient is checked
    before any array changes, so a failed step changes nothing.
    """
    if lr <= 0:
        raise ParameterError(f"learning rate must be > 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0,1), got {momentum}")
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {i} (shape {p.shape})")
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v -= lr * g
        p += v
