"""The branch-free pooling, ELU and dropout kernels against the kernels they
replaced: equal values, dtypes and pool switches on finite inputs; and the
inference plan against the inference forward it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anomkit import numcore as nc
from anomkit.errors import UsageError
from anomkit.numcore import ops
from anomkit.rng import Rng

from oracles import (_im2col_oracle, elu_backward_oracle, elu_oracle, maxpool_oracle,
                     unpool_backward_oracle, unpool_oracle)

DTYPES = st.sampled_from([np.float32, np.float64])
# integer values make ties within a pool window common; both zeros appear
TIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


def values(dtype):
    return st.one_of(TIES, st.floats(-8, 8, width=32 if dtype == np.float32 else 64))


@st.composite
def pooled_inputs(draw):
    """(x, p): x is [N,H,W,C] with H, W >= p, often not multiples of p."""
    p = draw(st.sampled_from([1, 2, 3]))
    dtype = draw(DTYPES)
    shape = (draw(st.integers(1, 3)), draw(st.integers(p, 3 * p + 2)),
             draw(st.integers(p, 3 * p + 2)), draw(st.integers(1, 3)))
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
    out, sw = ops.maxpool(x, p)
    want, want_sw = maxpool_oracle(x, p)
    assert_same(out, want)
    assert np.array_equal(sw.index, want_sw.index)
    assert (sw.pool, sw.in_shape) == (want_sw.pool, want_sw.in_shape)


@settings(deadline=None)
@given(pooled_inputs())
def test_window_max_at_each_offset_is_the_pool_from_there(case):
    """The encoder takes each crop's pool from the stride-1 window max of its
    whole map, at the crop's corner: the same values, zeros' signs included."""
    x, p = case
    out = ops.window_max(x, p)
    for i in range(x.shape[1] - p + 1):
        for j in range(x.shape[2] - p + 1):
            want = ops.pool_max(x[:, i:, j:], p)
            assert_same_bits(out[:, i::p, j::p][:, : want.shape[1], : want.shape[2]], want)


@settings(deadline=None)
@given(pooled_inputs(), st.data())
def test_unpool_and_backward_match_oracle(case, data):
    x, p = case
    _, sw = ops.maxpool(x, p)
    _, want_sw = maxpool_oracle(x, p)
    dtype = data.draw(DTYPES)
    pooled = data.draw(arrays(dtype, sw.index.shape, elements=values(dtype)))
    assert_same_bits(ops.unpool(pooled, sw), unpool_oracle(pooled, want_sw))
    grad = data.draw(arrays(dtype, x.shape, elements=values(dtype)))
    assert_same_bits(ops.unpool_backward(grad, sw), unpool_backward_oracle(grad, want_sw))


@st.composite
def elu_inputs(draw):
    dtype = draw(DTYPES)
    shape = draw(st.sampled_from([(7,), (3, 5), (2, 4, 4, 3)]))
    return draw(arrays(dtype, shape, elements=values(dtype)))


@settings(deadline=None)
@given(elu_inputs())
def test_elu_matches_oracle(x):
    assert_same(ops.elu(x), elu_oracle(x))


@settings(deadline=None)
@given(elu_inputs(), DTYPES, st.data())
def test_elu_backward_matches_oracle(x, grad_dtype, data):
    grad = data.draw(arrays(grad_dtype, x.shape, elements=values(grad_dtype)))
    assert_same(ops.elu_backward(grad, x), elu_backward_oracle(grad, x))


@settings(deadline=None)
@given(elu_inputs(), st.sampled_from([np.float64, None]), st.data())
def test_inference_dropout_layer_is_the_identity(x, grad_dtype, data):
    """Forward and backward in inference return their input unchanged.

    Gradients reach a layer in its input's dtype; a float64 gradient reaching
    a float32 layer is checked too."""
    grad_dtype = grad_dtype or x.dtype
    grad = data.draw(arrays(grad_dtype, x.shape, elements=values(grad_dtype)))
    layer = nc.Dropout(0.3)
    tape = nc.GradTape(owner=None)
    assert_same_bits(layer.forward(x, tape, False, Rng(0)), x)
    assert_same_bits(layer.backward(grad, tape), grad)


@settings(deadline=None)
@given(DTYPES, st.data())
def test_elu_is_non_decreasing_on_adjacent_floats(dtype, data):
    """`dcae._encode_maps` runs the encoders' ELU after the max pool; that is
    exact only if ELU never decreases from one float to the next. Checked on
    runs of adjacent floats near 0, near the -1 saturation and from the tie
    values."""
    width = 32 if dtype == np.float32 else 64
    start = data.draw(st.one_of(st.floats(-2.0**-20, 2.0**-20, width=width),
                                st.floats(-64.0, -8.0, width=width), TIES))
    run = [dtype(start)]
    for _ in range(64):
        run.append(np.nextafter(run[-1], dtype(np.inf)))
    out = ops.elu(np.array(run, dtype=dtype))
    assert out.dtype == dtype
    assert np.all(out[1:] >= out[:-1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("c", [1, 3])
def test_im2col_matches_oracle(dtype, k, c):
    x = Rng(6).normal(size=(2, 9, 8, c)).astype(dtype)
    assert_same(ops._im2col(x, k), _im2col_oracle(x, k))
    strided = Rng(7).normal(size=(4, 11, 10, 2 * c)).astype(dtype)[::2, 1:, ::-1, ::2]
    assert not strided.flags.c_contiguous
    assert_same(ops._im2col(strided, k), _im2col_oracle(strided, k))


def test_plan_is_the_layers_without_dropout_in_order():
    conv, elu, drop, pool = nc.Conv2D(3, 1, 2), nc.Elu(), nc.Dropout(0.5), nc.MaxPool2D(2)
    net = nc.Network([conv, elu, drop, pool, nc.Reshape((8,)), nc.Elu(), nc.Dropout(0.1)])
    assert [type(layer) for layer in net.plan] == [nc.Conv2D, nc.Elu, nc.MaxPool2D,
                                                   nc.Reshape, nc.Elu]
    net.init(Rng(3))
    x = Rng(4).normal(size=(5, 6, 6, 1))
    for batch in (x, x.astype(np.float32), 50 * x):
        assert_same(net.infer(batch), net.forward(batch, training=False)[0])


def test_unpool_has_no_inference_pass():
    pool = nc.MaxPool2D(2)
    with pytest.raises(UsageError, match="Unpool2D has no inference pass"):
        nc.Unpool2D(pool).infer(np.zeros((1, 2, 2, 1)))
