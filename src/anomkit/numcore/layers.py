"""Composable layers, the gradient tape, and the SGD optimizer.

A `Network` is an ordered stack of layers. `forward` records every
intermediate needed for the backward pass on a `GradTape`; `backward`
consumes that tape exactly once and returns parameter gradients. A layer's
forward is, unless it overrides it, `Layer.forward`: record the input on the
tape and return `infer(x)`. Conv2D (its input's im2col columns, which its
kernel gradient multiplies), MaxPool2D (its switches), Unpool2D (nothing),
Dropout (its mask) and Reshape (the input shape) record something else and
keep their own. Unpool layers read the argmax switches recorded by their
partner pool layer, so an encoder/decoder pair shares pooling geometry
through the tape.

`Network.infer` runs the inference plan: the layer list without its Dropout
layers (the identity outside training), each layer's `infer` in order with
no tape and no RNG, so a pool keeps no switches. Its output is
`np.array_equal` to `forward(x, training=False)`. The plan holds layers, not
their arrays, so it follows `init` and weight updates. The encoders run
their ELU after the max pool, on a quarter of the elements, in
`dcae._encode_maps`, not here.
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


def glorot_uniform(rng: Rng, shape, fan_in, fan_out):
    """Symmetric float32 uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
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

    def backward(self, grad, tape):
        raise NotImplementedError

    def _param_backward(self, grad, tape):
        """Record parameter gradients only: `Network.backward` calls this for
        its first layer, whose input is data and needs no gradient."""
        self.backward(grad, tape)


class Conv2D(Layer):
    def __init__(self, kernel_size, in_channels, out_channels):
        self.k = int(kernel_size)
        self.cin = int(in_channels)
        self.cout = int(out_channels)
        self.kernels = np.zeros((self.k, self.k, self.cin, self.cout), np.float32)
        self.bias = np.zeros(self.cout, np.float32)

    def init(self, rng):
        fan = self.k * self.k
        self.kernels = glorot_uniform(rng, self.kernels.shape, fan * self.cin, fan * self.cout)
        self.bias = np.zeros(self.cout, np.float32)

    def params(self):
        return [self.kernels, self.bias]

    def forward(self, x, tape, training, rng):
        out, cols = ops.conv2d_forward(x, self.kernels, self.bias)
        tape.put(self, cols)
        return out

    def infer(self, x):
        return ops.conv2d_valid(x, self.kernels, self.bias)

    def backward(self, grad, tape):
        self._param_backward(grad, tape)
        return ops.deconv2d(grad, self.kernels)

    def _param_backward(self, grad, tape):
        gk = ops.conv2d_kernel_grad(grad, tape.get(self), self.kernels)
        tape.grads[id(self)] = [gk, grad.reshape(-1, self.cout).sum(axis=0)]


class Deconv2D(Layer):
    """Adjoint-of-conv layer with a per-channel output bias."""

    def __init__(self, kernel_size, out_channels, in_channels):
        # maps [N,H,W,in_channels] -> [N, H+k-1, W+k-1, out_channels]
        self.k = int(kernel_size)
        self.cin = int(in_channels)  # channels of the incoming tensor
        self.cout = int(out_channels)
        self.kernels = np.zeros((self.k, self.k, self.cout, self.cin), np.float32)
        self.bias = np.zeros(self.cout, np.float32)

    # Conv2D's: Glorot-uniform kernels from k, cin and cout, and a zero bias
    init = Conv2D.init
    params = Conv2D.params

    def infer(self, x):
        return ops.deconv2d(x, self.kernels) + self.bias

    def backward(self, grad, tape):
        # the zero bias add keeps conv2d_valid's output bits: -0.0 becomes +0.0
        grad_x, cols = ops.conv2d_forward(grad, self.kernels,
                                          np.zeros(self.cin, self.kernels.dtype))
        gk = ops.conv2d_kernel_grad(tape.get(self), cols, self.kernels)
        tape.grads[id(self)] = [gk, grad.reshape(-1, self.cout).sum(axis=0)]
        return grad_x


class MaxPool2D(Layer):
    def __init__(self, pool):
        self.pool = int(pool)

    def forward(self, x, tape, training, rng):
        out, switches = ops.maxpool(x, self.pool)
        tape.put(self, switches)
        return out

    def infer(self, x):
        return ops.pool_max(x, self.pool)

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


class Dense(Layer):
    def __init__(self, in_dim, out_dim):
        self.din = int(in_dim)
        self.dout = int(out_dim)
        if self.dout < 1:
            raise ParameterError(f"dense unit count must be >= 1, got {out_dim}")
        self.weight = np.zeros((self.din, self.dout), np.float32)
        self.bias = np.zeros(self.dout, np.float32)

    def init(self, rng):
        self.weight = glorot_uniform(rng, self.weight.shape, self.din, self.dout)
        self.bias = np.zeros(self.dout, np.float32)

    def params(self):
        return [self.weight, self.bias]

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
        self.plan = [layer for layer in self.layers if not isinstance(layer, Dropout)]

    def init(self, rng: Rng):
        for i, layer in enumerate(self.layers):
            layer.init(rng.derive(i))

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x, training=False, rng: Rng | None = None):
        """(output, tape). Dropout layers, the only ones that draw, get the
        stream rng.derive(index of the layer); every other layer gets None."""
        tape = GradTape(owner=id(self))
        for i, layer in enumerate(self.layers):
            lrng = rng.derive(i) if rng is not None and isinstance(layer, Dropout) else None
            x = layer.forward(x, tape, training, lrng)
        return x, tape

    def infer(self, x):
        """The inference plan's output: `forward(x, training=False)[0]`."""
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
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad, tape)
        for layer in self.layers[:1]:  # its input is data: no input gradient
            layer._param_backward(grad, tape)
        return [g for layer in self.layers for g in tape.grads.get(id(layer), ())]


def sgd_step(params, grads, lr, momentum, velocity):
    """One SGD-with-momentum step, in place: v *= momentum; v -= lr*g; p += v.

    The lists are aligned elementwise; each velocity has its parameter's
    shape and dtype. Each array is updated with numpy's same-kind casting, so
    a float64 gradient moves a float32 parameter by (momentum*v - lr*g)
    rounded once to float32, as the out-of-place step did. Every gradient is
    checked before any array changes, so a failed step changes nothing.
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
