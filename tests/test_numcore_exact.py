"""The branch-free pooling, ELU and dropout kernels against the kernels they
replaced: equal values, dtypes and pool switches on finite inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anomkit import numcore as nc
from anomkit.numcore import ops
from anomkit.rng import Rng

from oracles import (elu_backward_oracle, elu_oracle, maxpool_oracle, unpool_backward_oracle,
                     unpool_oracle)

DTYPES = st.sampled_from([np.float32, np.float64])
# integer values make ties within a pool window common; both zeros appear
TIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


def values(dtype):
    return st.one_of(TIES, st.floats(-8, 8, width=32 if dtype == np.float32 else 64))


@st.composite
def pooled_inputs(draw):
    """(x, p): x is [H,W,C] or [N,H,W,C] with H, W >= p, often not multiples of p."""
    p = draw(st.sampled_from([1, 2, 3]))
    dtype = draw(DTYPES)
    shape = (draw(st.integers(p, 3 * p + 2)), draw(st.integers(p, 3 * p + 2)),
             draw(st.integers(1, 3)))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 3)),) + shape
    return draw(arrays(dtype, shape, elements=values(dtype))), p


def assert_same(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_bits(a, b):
    """Equal values with equal signs: the unpool kernels only copy values."""
    assert_same(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(deadline=None)
@given(pooled_inputs())
def test_maxpool_matches_oracle(case):
    x, p = case
    out, sw = nc.maxpool(x, p)
    want, want_sw = maxpool_oracle(x, p)
    assert_same(out, want)
    assert np.array_equal(sw.index, want_sw.index)
    assert (sw.pool, sw.in_shape) == (want_sw.pool, want_sw.in_shape)


@settings(deadline=None)
@given(pooled_inputs(), st.data())
def test_unpool_and_backward_match_oracle(case, data):
    x, p = case
    _, sw = nc.maxpool(x, p)
    _, want_sw = maxpool_oracle(x, p)
    dtype = data.draw(DTYPES)
    pooled = data.draw(arrays(dtype, sw.index.shape, elements=values(dtype)))
    assert_same_bits(nc.unpool(pooled, sw), unpool_oracle(pooled, want_sw))
    assert_same_bits(ops.maxpool_backward(pooled, sw), unpool_oracle(pooled, want_sw))
    grad = data.draw(arrays(dtype, x.shape, elements=values(dtype)))
    assert_same_bits(ops.unpool_backward(grad, sw), unpool_backward_oracle(grad, want_sw))


ALPHAS = st.sampled_from([1.0, 0.5, 1.7])


@st.composite
def elu_inputs(draw):
    dtype = draw(DTYPES)
    shape = draw(st.sampled_from([(7,), (3, 5), (2, 4, 4, 3)]))
    return draw(arrays(dtype, shape, elements=values(dtype)))


@settings(deadline=None)
@given(elu_inputs(), ALPHAS)
def test_elu_matches_oracle(x, alpha):
    assert_same(nc.elu(x, alpha), elu_oracle(x, alpha))


@settings(deadline=None)
@given(elu_inputs(), ALPHAS, DTYPES, st.data())
def test_elu_backward_matches_oracle(x, alpha, grad_dtype, data):
    grad = data.draw(arrays(grad_dtype, x.shape, elements=values(grad_dtype)))
    assert_same(nc.elu_backward(grad, x, alpha), elu_backward_oracle(grad, x, alpha))


@settings(deadline=None)
@given(elu_inputs(), st.sampled_from([np.float64, None]), st.data())
def test_inference_dropout_layer_is_the_identity(x, grad_dtype, data):
    """Forward and backward in inference equal ops.dropout with its ones mask.

    Gradients reach a layer in its input's dtype or in float64 (mse_grad)."""
    grad_dtype = grad_dtype or x.dtype
    grad = data.draw(arrays(grad_dtype, x.shape, elements=values(grad_dtype)))
    want_out, mask = ops.dropout(x, 0.3, Rng(0), training=False)
    layer = nc.Dropout(0.3)
    tape = nc.GradTape(owner=None)
    assert_same(layer.forward(x, tape, False, Rng(0)), want_out)
    assert_same(layer.backward(grad, tape), ops.dropout_backward(grad, mask))
