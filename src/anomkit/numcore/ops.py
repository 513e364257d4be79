"""Neural-network layer primitives with exact backward passes.

Spatial ops take and return batches only, [N, H, W, C]; any other rank
raises DimensionError. The conv ops' windows come from numpy's
`sliding_window_view`. Dense ops take [N, D] rows, and the elementwise ops
(ELU, dropout, MSE) any shape.

Dtype policy: every op computes and returns in the common dtype of its
operands, `np.result_type(x, weights)`, and casts nothing itself. A float32
model on float32 data therefore runs float32 BLAS end to end, gradients
included, and a float64 network (the finite-difference tests) stays float64.
Sums accumulate in that dtype; the drift this allows in a float32 model is
bounded by a test against a float64 twin of the same model.

Exactness contract (pool, unpool and ELU): on finite inputs, each kernel
returns values that are `np.array_equal` to its plain formula (an argmax
over the window, `np.where`), in the same dtype, and the same pool switches.
These kernels therefore take no data-dependent branch and change no
rounding: pooling reduces the p*p strided window views with `np.maximum`
(`window_max` folds the stride-1 views in the same order) and finds the
first maximum by equality sweeps (`first_equal`, which SLIC reuses to pick
its nearest centre); unpooling scatters and gathers through the same views;
ELU adds max(x, 0) to expm1(min(x, 0)), of which one term is always zero.
`tests/oracles.py` keeps the argmax and `np.where` formulas, and the tests
compare against them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DimensionError, ParameterError
from ..rng import Rng


def _batch(x):
    """x as an [N, H, W, C] array; any other rank raises DimensionError."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"expected an [N,H,W,C] batch, got shape {x.shape}")
    return x


def _im2col(x, k):
    """[N,H,W,C] -> [N, H-k+1, W-k+1, k*k*C] columns, each window in (row, col, channel) order."""
    n, h, w, c = x.shape
    windows = sliding_window_view(x, (k, k), axis=(1, 2))  # [N, H-k+1, W-k+1, C, k, k]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(n, h - k + 1, w - k + 1, k * k * c)


def conv2d_forward(x, kernels, bias):
    """Valid (unpadded) 2D cross-correlation, and the im2col columns of x it
    multiplied, so a backward pass reuses them (`conv2d_kernel_grad`).

    x: [N,H,W,Cin], kernels: [k,k,Cin,Cout], bias: [Cout].
    Returns (out, columns), out [N, H-k+1, W-k+1, Cout]:
        out[n,i,j,o] = bias[o] + sum_{a,b,c} x[n, i+a, j+b, c] * kernels[a,b,c,o]
    """
    xb = _batch(x)
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
    cols = _im2col(xb, k)
    out = cols @ kernels.reshape(-1, cout)
    out += bias
    return out, cols


def conv2d_kernel_grad(grad_out, cols, kernels):
    """Kernel gradient of conv2d_forward from the im2col columns of its input x,
    `conv2d_forward(x, ...)[1]`. Deconv2D, the conv's adjoint, takes both
    gradients from one conv2d_forward(grad_out, kernels, 0): its output, and
    the kernel gradient conv2d_kernel_grad(x, its columns, kernels)."""
    gb = _batch(grad_out)
    k, _, cin, cout = kernels.shape
    return (cols.reshape(-1, k * k * cin).T @ gb.reshape(-1, cout)).reshape(kernels.shape)


def deconv2d(x, kernels):
    """Transpose (adjoint) of conv2d_forward's conv, channel roles swapped.

    x: [N,H,W,Cout], kernels: [k,k,Cin,Cout] -> [N, H+k-1, W+k-1, Cin],
    so that <conv2d_forward(a, K, 0)[0], b> == <a, deconv2d(b, K)> for all a, b.
    """
    xb = _batch(x)
    kernels = np.asarray(kernels)
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise DimensionError(f"kernels must be [k,k,Cin,Cout], got {kernels.shape}")
    k, _, cin, cout = kernels.shape
    if xb.shape[3] != cout:
        raise DimensionError(f"input channels {xb.shape[3]} != kernel Cout {cout}")
    n, h, w, _ = xb.shape
    # out[i+a, j+b, c] += x[i,j,o] * K[a,b,c,o]: one small matmul over the
    # channel axis, then k*k shifted adds
    per_pos = xb.reshape(-1, cout) @ kernels.reshape(k * k * cin, cout).T
    per_pos = per_pos.reshape(n, h, w, k, k, cin)
    out = np.zeros((n, h + k - 1, w + k - 1, cin), dtype=per_pos.dtype)
    for a in range(k):
        for b in range(k):
            out[:, a : a + h, b : b + w, :] += per_pos[:, :, :, a, b, :]
    return out


class PoolSwitches(NamedTuple):
    """Argmax record of a maxpool call, needed by unpool and the backward pass."""

    index: np.ndarray  # [N, H//p, W//p, C] flat argmax within each p*p window
    pool: int
    in_shape: tuple  # per-sample input shape (H, W, C)


def _windows(xb, p, h2, w2):
    """The p*p strided views [N, h2, w2, C] of xb, one per in-window offset,
    in flat in-window order: view a*p + b holds xb[:, p*i + a, p*j + b, :]."""
    return [xb[:, a : h2 * p : p, b : w2 * p : p, :] for a in range(p) for b in range(p)]


def _bits(a):
    """a's bit patterns as unsigned integers. Multiplying them by a boolean
    keeps or zeroes each element exactly, whatever its value (-0.0 and
    non-finite values included), which a float multiply would not."""
    return a.view(f"u{a.dtype.itemsize}")


def first_equal(arrays, target):
    """Elementwise index of the first of `arrays` equal to `target`: the count
    of leading arrays not equal to it, so len(arrays) - 1 when none of the
    others is. Equality sweeps take no data-dependent branch, and the lowest
    index wins every tie."""
    idx = np.zeros(target.shape, np.min_scalar_type(len(arrays) - 1))
    before = np.ones(target.shape, dtype=bool)
    hit = np.empty(target.shape, dtype=bool)
    for a in arrays[:-1]:
        np.not_equal(a, target, out=hit)
        before &= hit
        idx += before
    return idx


def _pool_input(x, p):
    """x as a batch that holds at least one p*p window."""
    if p < 1:
        raise ParameterError(f"pool size must be >= 1, got {p}")
    xb = _batch(x)
    if xb.shape[1] < p or xb.shape[2] < p:
        raise DimensionError(f"input {xb.shape[1]}x{xb.shape[2]} smaller than pool {p}")
    return xb


def _max_of(views):
    """Elementwise max of equal-shape views, folded in order as max(view, so far)."""
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(v, out, out=out)
    return out


def window_max(x, p):
    """Max of every p*p window at stride 1: [N, H, W, C] -> [N, H-p+1, W-p+1, C],
    out[:, i, j] = max of x[:, i : i+p, j : j+p]. The views are folded in
    `maxpool`'s order, so `maxpool(x[:, i:, j:], p)[0]` is exactly
    out[:, i::p, j::p] over its whole windows."""
    xb = _pool_input(x, p)
    h, w = xb.shape[1] - p + 1, xb.shape[2] - p + 1
    return _max_of([xb[:, a : a + h, b : b + w] for a in range(p) for b in range(p)])


def maxpool(x, p):
    """p*p max pooling with stride p; trailing rows/cols beyond p*(dim//p) drop.

    Returns (pooled, switches). Ties break to the lowest flat in-window index.
    """
    xb = _pool_input(x, p)
    views = _windows(xb, p, xb.shape[1] // p, xb.shape[2] // p)
    out = _max_of(views)
    return out, PoolSwitches(index=first_equal(views, out), pool=p, in_shape=xb.shape[1:])


def unpool(x, switches):
    """Place each value at its recorded argmax position; zeros elsewhere.
    Also the backward pass of maxpool."""
    xb, idx = _batch(x), switches.index
    if xb.shape != idx.shape:
        raise DimensionError(f"input {xb.shape} does not match switches {idx.shape}")
    p = switches.pool
    h, w, c = switches.in_shape
    n, h2, w2, _ = xb.shape
    out = np.empty((n, h, w, c), dtype=xb.dtype)
    out[:, h2 * p :] = 0  # rows and columns past the last whole window
    out[:, :, w2 * p :] = 0
    bits = _bits(xb)
    for k, view in enumerate(_windows(_bits(out), p, h2, w2)):
        np.multiply(bits, idx == k, out=view)
    return out


def unpool_backward(grad_out, switches):
    """Gather the gradient sitting at each recorded argmax position."""
    gb, idx = _batch(grad_out), switches.index
    p = switches.pool
    h, w, c = switches.in_shape
    views = _windows(_bits(gb), p, h // p, w // p)
    out = views[0] * (idx == 0)
    for k, view in enumerate(views[1:], start=1):
        out |= view * (idx == k)  # exactly one k matches each element
    return out.view(gb.dtype)


def elu(x):
    """Exponential linear unit: v if v > 0 else exp(v) - 1."""
    x = np.asarray(x)
    # one of the two terms is zero, so the sum rounds nothing
    out = np.expm1(np.minimum(x, 0.0))
    out += np.maximum(x, 0.0)
    return out


def elu_backward(grad_out, x):
    """ELU gradient: 1 where v > 0, exp(v) elsewhere."""
    deriv = np.exp(np.minimum(np.asarray(x), 0.0))  # exactly 1 where v > 0
    return (grad_out * deriv).astype(np.asarray(grad_out).dtype, copy=False)


def dropout(x, rate, rng: Rng):
    """Inverted dropout in training: zero with probability `rate`, scale
    survivors by 1/(1-rate). Returns (output, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0,1), got {rate}")
    x = np.asarray(x)
    keep = (rng.random(x.shape, dtype=np.float32) >= np.float32(rate)).astype(x.dtype)
    mask = keep / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def dense(x, weight, bias):
    """Affine map y = x @ W + b with W: [D,U], b: [U]; x: [N,D]."""
    x = np.asarray(x)
    if x.shape[-1] != weight.shape[0]:
        raise DimensionError(f"input dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    out = x @ weight
    out += bias
    return out


def dense_backward(grad_out, x, weight):
    """Gradients of dense on [N, D] rows: returns (grad_x, grad_weight, grad_bias)."""
    return grad_out @ weight.T, x.T @ grad_out, grad_out.sum(axis=0)


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
    return (2.0 / x.size) * (xhat - x)
