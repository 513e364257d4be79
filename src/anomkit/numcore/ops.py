"""Neural-network layer primitives with exact backward passes.

All operations accept a single sample ([H,W,C] for spatial ops, [D] for dense)
or a batch with one extra leading axis. Convolution sums are accumulated in
64-bit and stored back in the input dtype, which bounds accumulation drift
for float32 data.

Exactness contract: a faster kernel must return, on finite inputs, values
that are `np.array_equal` to the plain formula it replaces, in the same
dtype, and the same pool switches. The pooling and ELU kernels therefore
take no data-dependent branch and change no rounding: pooling reduces the
p*p strided window views with `np.maximum` and finds the first maximum by
equality sweeps; unpooling scatters and gathers through the same views;
ELU adds max(x, 0) to alpha*expm1(min(x, 0)), of which one term is always
zero. `tests/oracles.py` keeps the earlier argmax and `np.where` kernels,
and the tests compare against them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import DimensionError, ParameterError
from ..rng import Rng


def _as_batch(x, rank):
    """View x as batched (rank+1 dims). Returns (batched, had_batch)."""
    x = np.asarray(x)
    if x.ndim == rank:
        return x[None], False
    if x.ndim == rank + 1:
        return x, True
    raise DimensionError(f"expected {rank} or {rank + 1} dims, got shape {x.shape}")


def _im2col(x, k):
    """[N,H,W,C] -> [N, H-k+1, W-k+1, k*k*C] sliding-window view."""
    n, h, w, c = x.shape
    oh, ow = h - k + 1, w - k + 1
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, (n, oh, ow, k, k, c), (s[0], s[1], s[2], s[1], s[2], s[3]), writeable=False
    )
    return view.reshape(n, oh, ow, k * k * c)


def conv2d_valid(x, kernels, bias):
    """Valid (unpadded) 2D cross-correlation.

    x: [H,W,Cin] (or batched), kernels: [k,k,Cin,Cout], bias: [Cout].
    Output [H-k+1, W-k+1, Cout]:
        out[i,j,o] = bias[o] + sum_{a,b,c} x[i+a, j+b, c] * kernels[a,b,c,o]
    """
    xb, batched = _as_batch(x, 3)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise DimensionError(f"kernels must be [k,k,Cin,Cout], got {kernels.shape}")
    k, _, cin, cout = kernels.shape
    if xb.shape[3] != cin:
        raise DimensionError(f"input channels {xb.shape[3]} != kernel Cin {cin}")
    if xb.shape[1] < k or xb.shape[2] < k:
        raise DimensionError(f"input {xb.shape[1:3]} smaller than kernel {k}")
    if bias.shape != (cout,):
        raise DimensionError(f"bias must be [Cout]={cout}, got {bias.shape}")
    # cast before the window gather, so the windows are copied once, in 64-bit
    cols = _im2col(xb.astype(np.float64), k)
    out = cols @ kernels.reshape(-1, cout).astype(np.float64)
    out += bias.astype(np.float64)
    out = out.astype(xb.dtype)
    return out if batched else out[0]


def conv2d_param_grads(grad_out, x, kernels):
    """(grad_kernels, grad_bias) of conv2d_valid; its input gradient is
    deconv2d(grad_out, kernels)."""
    xb, _ = _as_batch(x, 3)
    gb, _ = _as_batch(grad_out, 3)
    k, _, cin, cout = kernels.shape
    cols = _im2col(xb.astype(np.float64), k).reshape(-1, k * k * cin)
    gflat = gb.reshape(-1, cout).astype(np.float64)
    grad_k = (cols.T @ gflat).reshape(kernels.shape)
    grad_b = gflat.sum(axis=0)
    return grad_k.astype(kernels.dtype), grad_b.astype(kernels.dtype)


def deconv2d(x, kernels):
    """Transpose (adjoint) of conv2d_valid, channel roles swapped.

    x: [H,W,Cout] (or batched), kernels: [k,k,Cin,Cout] -> [H+k-1, W+k-1, Cin],
    so that <conv2d_valid(a, K, 0), b> == <a, deconv2d(b, K)> for all a, b.
    """
    xb, batched = _as_batch(x, 3)
    kernels = np.asarray(kernels)
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise DimensionError(f"kernels must be [k,k,Cin,Cout], got {kernels.shape}")
    k, _, cin, cout = kernels.shape
    if xb.shape[3] != cout:
        raise DimensionError(f"input channels {xb.shape[3]} != kernel Cout {cout}")
    n, h, w, _ = xb.shape
    # out[i+a, j+b, c] += x[i,j,o] * K[a,b,c,o]: one small matmul over the
    # channel axis, then k*k shifted adds into a 64-bit accumulator
    kmat = kernels.reshape(k * k * cin, cout).astype(np.float64)
    per_pos = xb.reshape(-1, cout).astype(np.float64) @ kmat.T
    per_pos = per_pos.reshape(n, h, w, k, k, cin)
    out = np.zeros((n, h + k - 1, w + k - 1, cin), dtype=np.float64)
    for a in range(k):
        for b in range(k):
            out[:, a : a + h, b : b + w, :] += per_pos[:, :, :, a, b, :]
    out = out.astype(xb.dtype)
    return out if batched else out[0]


def deconv2d_backward(grad_out, x, kernels):
    """Gradients of deconv2d: returns (grad_x, grad_kernels)."""
    xb, batched = _as_batch(x, 3)
    gb, _ = _as_batch(grad_out, 3)
    k, _, cin, cout = kernels.shape
    grad_x = conv2d_valid(gb, kernels, np.zeros(cout, dtype=kernels.dtype))
    # grad_K[a,b,c,o] = sum_{n,i,j} x[n,i,j,o] * grad_out[n,i+a,j+b,c]
    cols = _im2col(gb.astype(np.float64), k).reshape(-1, k * k * cin)  # positions align with x
    xflat = xb.reshape(-1, cout)
    gk = cols.T @ xflat.astype(np.float64)  # [k*k*Cin, Cout]
    grad_k = gk.reshape(k, k, cin, cout)
    return (grad_x if batched else grad_x[0]), grad_k.astype(kernels.dtype)


class PoolSwitches(NamedTuple):
    """Argmax record of a maxpool call, needed by unpool and the backward pass."""

    index: np.ndarray  # [.., H//p, W//p, C] flat argmax within each p*p window
    pool: int
    in_shape: tuple  # unbatched input spatial shape (H, W, C)


def _windows(xb, p, h2, w2):
    """The p*p strided views [N, h2, w2, C] of xb, one per in-window offset,
    in flat in-window order: view a*p + b holds xb[:, p*i + a, p*j + b, :]."""
    return [xb[:, a : h2 * p : p, b : w2 * p : p, :] for a in range(p) for b in range(p)]


def _bits(a):
    """a's bit patterns as unsigned integers. Multiplying them by a boolean
    keeps or zeroes each element exactly, whatever its value (-0.0 and
    non-finite values included), which a float multiply would not."""
    return a.view(f"u{a.dtype.itemsize}")


def maxpool(x, p):
    """p*p max pooling with stride p; trailing rows/cols beyond p*(dim//p) drop.

    Returns (pooled, switches). Ties break to the lowest flat in-window index.
    """
    if p < 1:
        raise ParameterError(f"pool size must be >= 1, got {p}")
    xb, batched = _as_batch(x, 3)
    n, h, w, c = xb.shape
    if h < p or w < p:
        raise DimensionError(f"input {h}x{w} smaller than pool {p}")
    views = _windows(xb, p, h // p, w // p)
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(v, out, out=out)
    # the switch counts the window entries before the first one equal to the max
    idx = np.zeros(out.shape, np.min_scalar_type(p * p - 1))
    before = np.ones(out.shape, dtype=bool)
    hit = np.empty(out.shape, dtype=bool)
    for v in views[:-1]:
        np.not_equal(v, out, out=hit)
        before &= hit
        idx += before
    if not batched:
        out, idx = out[0], idx[0]
    return out, PoolSwitches(index=idx, pool=p, in_shape=(h, w, c))


def maxpool_backward(grad_out, switches):
    """Scatter pooled gradients back to the argmax positions."""
    return unpool(grad_out, switches)


def unpool(x, switches):
    """Place each value at its recorded argmax position; zeros elsewhere."""
    xb, batched = _as_batch(x, 3)
    idx, _ = _as_batch(switches.index, 3)
    if xb.shape != idx.shape:
        raise DimensionError(f"input {xb.shape} does not match switches {idx.shape}")
    p = switches.pool
    h, w, c = switches.in_shape
    n, h2, w2, _ = xb.shape
    if (h2, w2) != (h // p, w // p):
        raise DimensionError(f"input {h2}x{w2} inconsistent with pooled {h}x{w} / {p}")
    out = np.empty((n, h, w, c), dtype=xb.dtype)
    out[:, h2 * p :] = 0  # rows and columns past the last whole window
    out[:, :, w2 * p :] = 0
    bits = _bits(xb)
    for k, view in enumerate(_windows(_bits(out), p, h2, w2)):
        np.multiply(bits, idx == k, out=view)
    return out if batched else out[0]


def unpool_backward(grad_out, switches):
    """Gather the gradient sitting at each recorded argmax position."""
    gb, batched = _as_batch(grad_out, 3)
    idx, _ = _as_batch(switches.index, 3)
    p = switches.pool
    h, w, c = switches.in_shape
    views = _windows(_bits(gb), p, h // p, w // p)
    out = views[0] * (idx == 0)
    for k, view in enumerate(views[1:], start=1):
        out |= view * (idx == k)  # exactly one k matches each element
    out = out.view(gb.dtype)
    return out if batched else out[0]


def elu(x, alpha=1.0):
    """Exponential linear unit: v if v > 0 else alpha*(exp(v) - 1)."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    x = np.asarray(x)
    # one of the two terms is zero, so the sum rounds nothing
    out = np.expm1(np.minimum(x, 0.0))
    out *= alpha
    out += np.maximum(x, 0.0)
    return out


def elu_backward(grad_out, x, alpha=1.0):
    """ELU gradient: 1 where v > 0, alpha*exp(v) elsewhere."""
    x = np.asarray(x)
    deriv = np.exp(np.minimum(x, 0.0))  # exactly 1 where v > 0
    if alpha != 1.0:
        deriv = np.where(x > 0, deriv, alpha * deriv)
    return (grad_out * deriv).astype(np.asarray(grad_out).dtype, copy=False)


def dropout(x, rate, rng: Rng, training=True):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Inference (training=False) is the identity. Returns (output, mask).
    """
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    x = np.asarray(x)
    if not training or rate == 0.0:
        return x, np.ones_like(x)
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    mask = keep / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def dropout_backward(grad_out, mask):
    return grad_out * mask


def dense(x, weight, bias):
    """Affine map y = x @ W + b with W: [D,U], b: [U]; x: [D] or [N,D]."""
    x = np.asarray(x)
    if x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"input dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    out = x.astype(np.float64) @ weight.astype(np.float64) + bias.astype(np.float64)
    return out.astype(x.dtype)


def dense_backward(grad_out, x, weight):
    """Gradients of dense: returns (grad_x, grad_weight, grad_bias)."""
    x = np.asarray(x)
    g = np.asarray(grad_out)
    x2 = x.reshape(-1, x.shape[-1])
    g2 = g.reshape(-1, g.shape[-1])
    grad_w = (x2.astype(np.float64).T @ g2.astype(np.float64)).astype(weight.dtype)
    grad_b = g2.astype(np.float64).sum(axis=0).astype(weight.dtype)
    grad_x = (g.astype(np.float64) @ weight.astype(np.float64).T).astype(x.dtype)
    return grad_x, grad_w, grad_b


def mse(x, xhat):
    """Mean squared error over all elements."""
    x, xhat = np.asarray(x), np.asarray(xhat)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {xhat.shape}")
    d = x.astype(np.float64) - xhat.astype(np.float64)
    return float(np.mean(d * d))


def mse_grad(x, xhat):
    """Gradient of mse(x, xhat) with respect to xhat: 2*(xhat - x)/N."""
    x, xhat = np.asarray(x), np.asarray(xhat)
    if x.shape != xhat.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {xhat.shape}")
    return (2.0 / x.size) * (xhat.astype(np.float64) - x.astype(np.float64))
