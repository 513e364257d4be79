"""Forward-pass contracts of the numeric core, checked against naive oracles."""

import numpy as np
import pytest

from anomkit import numcore as nc
from anomkit.errors import DimensionError, ParameterError, TrainingError, UsageError
from anomkit.numcore import ops
from anomkit.rng import Rng

from helpers import rel_err
from oracles import conv2d_param_grads_oracle, deconv2d_backward_oracle, momentum_step_oracle


def conv_loop_oracle(x, kernels, bias):
    """Direct triple-loop valid convolution, independent of the im2col path."""
    h, w, cin = x.shape
    k, _, _, cout = kernels.shape
    out = np.zeros((h - k + 1, w - k + 1, cout))
    for i in range(h - k + 1):
        for j in range(w - k + 1):
            for o in range(cout):
                acc = bias[o]
                for a in range(k):
                    for b in range(k):
                        for c in range(cin):
                            acc += x[i + a, j + b, c] * kernels[a, b, c, o]
                out[i, j, o] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        rng = Rng(1)
        x = rng.uniform(size=(1, 5, 7, 1)).astype(np.float32)
        k = np.ones((1, 1, 1, 1), np.float32)
        out = ops.conv2d_forward(x, k, np.zeros(1, np.float32))[0]
        assert np.allclose(out, x)

    def test_sum_of_ones(self):
        x = np.ones((1, 3, 3, 1), np.float32)
        k = np.ones((3, 3, 1, 1), np.float32)
        out = ops.conv2d_forward(x, k, np.zeros(1, np.float32))[0]
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_matches_loop_oracle(self):
        rng = Rng(2)
        x = rng.normal(size=(5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        out = ops.conv2d_forward(x[None], k, b)[0]
        assert out.shape == (1, 3, 3, 4)
        assert rel_err(out[0], conv_loop_oracle(x, k, b)) <= 1e-6

    def test_shape_errors(self):
        x = np.zeros((1, 2, 2, 1), np.float32)
        k = np.zeros((3, 3, 1, 1), np.float32)
        with pytest.raises(DimensionError):
            ops.conv2d_forward(x, k, np.zeros(1, np.float32))
        with pytest.raises(DimensionError):
            ops.conv2d_forward(np.zeros((1, 4, 4, 2), np.float32), k, np.zeros(1, np.float32))


class TestMaxpool:
    def test_constant_input_tie_break(self):
        x = np.full((1, 4, 4, 2), 3.5, np.float32)
        out, sw = ops.maxpool(x, 2)
        assert np.all(out == 3.5)
        assert np.all(sw.index == 0)  # ties go to the window origin

    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)[None, :, :, None]
        out, sw = ops.maxpool(x, 2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0
        assert sw.index[0, 0, 0, 0] == 3

    def test_matches_window_scan_oracle(self):
        rng = Rng(3)
        x = rng.normal(size=(1, 9, 9, 3))
        out, sw = ops.maxpool(x, 3)
        assert out.shape == (1, 3, 3, 3)
        for i in range(3):
            for j in range(3):
                for c in range(3):
                    win = x[0, 3 * i : 3 * i + 3, 3 * j : 3 * j + 3, c]
                    assert out[0, i, j, c] == win.max()
                    assert sw.index[0, i, j, c] == win.ravel().argmax()

    def test_trailing_rows_dropped(self):
        x = np.arange(5 * 7, dtype=np.float32).reshape(1, 5, 7, 1)
        out, _ = ops.maxpool(x, 2)
        assert out.shape == (1, 2, 3, 1)

    def test_bad_pool_size(self):
        with pytest.raises(ParameterError):
            ops.maxpool(np.zeros((1, 4, 4, 1), np.float32), 0)
        with pytest.raises(ParameterError):
            ops.window_max(np.zeros((1, 4, 4, 1), np.float32), 0)

    def test_window_max_matches_window_scan(self):
        x = Rng(4).normal(size=(2, 7, 6, 3))
        out = ops.window_max(x, 3)
        assert out.shape == (2, 5, 4, 3)
        for i in range(5):
            for j in range(4):
                assert np.array_equal(out[:, i, j], x[:, i : i + 3, j : j + 3].max(axis=(1, 2)))

    def test_window_max_smaller_than_pool(self):
        with pytest.raises(DimensionError, match="smaller than pool 3"):
            ops.window_max(np.zeros((1, 2, 5, 1), np.float32), 3)


class TestUnpool:
    def test_places_values_at_argmax(self):
        rng = Rng(4)
        x = rng.normal(size=(1, 6, 6, 2)).astype(np.float32)
        pooled, sw = ops.maxpool(x, 2)
        up = ops.unpool(pooled, sw)
        nonzero = up != 0
        # nonzeros are exactly the window maxima, at their original positions
        assert nonzero.sum() == pooled.size
        assert np.all(up[nonzero] == x[nonzero])
        assert sorted(up[nonzero].tolist()) == sorted(pooled.ravel().tolist())

    def test_zero_input(self):
        x = np.zeros((1, 4, 4, 1), np.float32)
        pooled, sw = ops.maxpool(x, 2)
        assert np.all(ops.unpool(np.zeros_like(pooled), sw) == 0)

    def test_pool_unpool_pool_idempotent(self):
        # on the non-negative intensity domain the zero fill never wins a window
        rng = Rng(5)
        x = rng.uniform(size=(1, 9, 12, 4)).astype(np.float32)
        pooled, sw = ops.maxpool(x, 3)
        again, _ = ops.maxpool(ops.unpool(pooled, sw), 3)
        assert np.array_equal(again, pooled)

    def test_geometry_mismatch(self):
        x = np.zeros((1, 4, 4, 1), np.float32)
        pooled, sw = ops.maxpool(x, 2)
        with pytest.raises(DimensionError):
            ops.unpool(np.zeros((1, 3, 3, 1), np.float32), sw)


class TestDeconv2d:
    def test_adjoint_identity(self):
        rng = Rng(6)
        for trial in range(5):
            x = rng.normal(size=(1, 6, 7, 3))
            kern = rng.normal(size=(3, 3, 3, 5))
            y = rng.normal(size=(1, 4, 5, 5))
            lhs = np.sum(ops.conv2d_forward(x, kern, np.zeros(5))[0] * y)
            rhs = np.sum(x * ops.deconv2d(y, kern))
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-5

    def test_identity_kernel(self):
        rng = Rng(7)
        x = rng.uniform(size=(1, 4, 4, 1)).astype(np.float32)
        k = np.ones((1, 1, 1, 1), np.float32)
        assert np.allclose(ops.deconv2d(x, k), x)

    def test_zero_kernel(self):
        x = np.ones((1, 4, 4, 2), np.float32)
        k = np.zeros((3, 3, 1, 2), np.float32)
        out = ops.deconv2d(x, k)
        assert out.shape == (1, 6, 6, 1)
        assert np.all(out == 0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.deconv2d(np.zeros((1, 4, 4, 3), np.float32), np.zeros((3, 3, 1, 2), np.float32))


class TestConvGradients:
    """Both conv layers' gradients against the dedicated gradient ops they
    replaced, compared with ==: Deconv2D's are Conv2D's ops."""

    @staticmethod
    def _backward(layer, in_shape, dtype, seed):
        rng = Rng(seed)
        layer.init(rng.derive(0))
        layer.weight, layer.bias = layer.weight.astype(dtype), layer.bias.astype(dtype)
        x = rng.normal(size=in_shape).astype(dtype)
        tape = nc.GradTape(owner=None)
        grad = rng.normal(size=layer.forward(x, tape, True, None).shape).astype(dtype)
        return x, grad, layer.backward(grad, tape), tape.grads[id(layer)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_deconv2d_layer_matches_oracle(self, k, dtype):
        layer = nc.Deconv2D(k, out_channels=2, in_channels=3)
        x, grad, grad_x, (gk, gb) = self._backward(layer, (4, 6, 7, 3), dtype, 600 + k)
        want_x, want_k = deconv2d_backward_oracle(grad, x, layer.weight)
        assert grad_x.dtype == gk.dtype == gb.dtype == dtype
        assert np.array_equal(grad_x, want_x)
        assert np.array_equal(gk, want_k)
        assert np.array_equal(gb, grad.reshape(-1, 2).sum(axis=0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_kernel_grad_matches_oracle(self, k, dtype):
        layer = nc.Conv2D(k, in_channels=3, out_channels=2)
        x, grad, grad_x, (gk, gb) = self._backward(layer, (4, 9, 8, 3), dtype, 700 + k)
        assert grad_x is None  # a Conv2D takes data: no input gradient
        want_k, want_b = conv2d_param_grads_oracle(grad, x, layer.weight)
        cols = ops.conv2d_forward(x, layer.weight, layer.bias)[1]
        kernel_grad = ops.conv2d_kernel_grad(grad, cols, layer.weight)
        assert kernel_grad.dtype == gk.dtype == gb.dtype == dtype
        assert np.array_equal(kernel_grad, want_k)
        assert np.array_equal(gk, want_k)
        assert np.array_equal(gb, want_b)


class TestGlorotInit:
    """Each weighted layer's init against the Glorot-uniform draw with the limit
    sqrt(6 / (fan_in + fan_out)) from its constructor's sizes: k*k*cin and
    k*k*cout for a convolution (desk and paper sizes), din and dout for Dense."""

    @pytest.mark.parametrize("seed", [3, 40])
    @pytest.mark.parametrize("make, shape, fans, n_out", [
        pytest.param(lambda: nc.Conv2D(5, in_channels=1, out_channels=32), (5, 5, 1, 32),
                     5 * 5 * 1 + 5 * 5 * 32, 32, id="desk-conv"),
        pytest.param(lambda: nc.Deconv2D(5, out_channels=1, in_channels=32), (5, 5, 1, 32),
                     5 * 5 * 32 + 5 * 5 * 1, 1, id="desk-deconv"),
        pytest.param(lambda: nc.Dense(1152, 128), (1152, 128), 1152 + 128, 128, id="desk-dense"),
        pytest.param(lambda: nc.Conv2D(9, in_channels=1, out_channels=512), (9, 9, 1, 512),
                     9 * 9 * 1 + 9 * 9 * 512, 512, id="paper-conv"),
        pytest.param(lambda: nc.Deconv2D(9, out_channels=1, in_channels=512), (9, 9, 1, 512),
                     9 * 9 * 512 + 9 * 9 * 1, 1, id="paper-deconv"),
    ])
    def test_init_draws_glorot_uniform(self, make, shape, fans, n_out, seed):
        layer = make()
        layer.init(Rng(seed))
        limit = np.sqrt(6.0 / fans)
        weight, bias = layer.params()
        assert weight.dtype == np.float32
        want = Rng(seed).uniform(-limit, limit, size=shape).astype(np.float32)
        assert np.array_equal(weight, want)
        assert bias.dtype == np.float32
        assert np.array_equal(bias, np.zeros(n_out))


class TestElu:
    def test_closed_forms(self):
        assert ops.elu(np.float64(1.0)) == 1.0
        assert ops.elu(np.float64(0.0)) == 0.0
        assert abs(ops.elu(np.float64(-1.0)) - (np.exp(-1.0) - 1.0)) < 1e-12

    def test_continuous_and_monotone(self):
        xs = np.linspace(-4, 4, 2001)
        ys = ops.elu(xs)
        assert np.all(np.diff(ys) > 0)
        assert abs(ops.elu(np.float64(1e-9)) - ops.elu(np.float64(-1e-9))) < 1e-8


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((10, 10), np.float32)
        out, mask = ops.dropout(x, 0.0, Rng(0))
        assert np.array_equal(out, x)
        assert np.all(mask == 1)

    def test_inverted_scaling_mean(self):
        x = np.ones(100_000, np.float32)
        out, _ = ops.dropout(x, 0.5, Rng(42))
        assert abs(out.mean() - 1.0) <= 0.02
        survivors = out[out != 0]
        assert np.allclose(survivors, 2.0)

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            ops.dropout(np.zeros(3), 1.0, Rng(0))
        with pytest.raises(ParameterError):
            ops.dropout(np.zeros(3), -0.1, Rng(0))

    def test_same_seed_same_mask(self):
        x = np.ones(1000, np.float32)
        _, m1 = ops.dropout(x, 0.3, Rng(7))
        _, m2 = ops.dropout(x, 0.3, Rng(7))
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_comes_from_float32_draws(self, dtype):
        x = np.ones((40, 25), dtype)
        _, mask = ops.dropout(x, 0.3, Rng(7))
        keep = Rng(7).random(x.shape, dtype=np.float32) >= np.float32(0.3)
        assert mask.dtype == dtype
        assert np.array_equal(mask, keep / dtype(0.7))

    def test_a_network_hands_its_stream_to_dropout_only(self):
        seen = []

        class Spy(nc.Elu):
            def forward(self, x, tape, training, rng):
                seen.append(rng)
                return super().forward(x, tape, training, rng)

        x = np.ones((8, 50), np.float32)
        out, _ = nc.Network([Spy(), nc.Dropout(0.3), Spy()]).forward(x, Rng(7))
        assert seen == [None, None]
        assert np.array_equal(out, ops.dropout(x, 0.3, Rng(7).derive(1))[0])


class TestMse:
    def test_zero_on_equal(self):
        x = np.arange(12.0).reshape(3, 4)
        assert nc.mse(x, x) == 0.0

    def test_unit_case(self):
        assert nc.mse(np.zeros(2), np.ones(2)) == 1.0

    def test_matches_loop_oracle(self):
        rng = Rng(8)
        x = rng.normal(size=(4, 5))
        y = rng.normal(size=(4, 5))
        acc = 0.0
        for i in range(4):
            for j in range(5):
                acc += (x[i, j] - y[i, j]) ** 2
        assert abs(nc.mse(x, y) - acc / 20.0) <= 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nc.mse(np.zeros(3), np.zeros(4))


class TestSgdStep:
    def test_plain_step(self):
        p, v = [np.array([1.0])], [np.zeros(1)]
        assert nc.sgd_step(p, [np.array([2.0])], 0.1, 0.0, v) is None
        assert np.allclose(p[0], 0.8)

    def test_zero_gradient(self):
        p = [np.array([1.0, -2.0])]
        nc.sgd_step(p, [np.zeros(2)], 0.5, 0.0, [np.zeros(2)])
        assert np.array_equal(p[0], [1.0, -2.0])

    def test_momentum_recurrence(self):
        # hand recurrence: v1 = -lr*g; p1 = p0+v1; v2 = m*v1 - lr*g; p2 = p1+v2
        lr, m, g = 0.1, 0.9, 2.0
        p, v = [np.array([1.0])], [np.zeros(1)]
        grads = [np.array([g])]
        nc.sgd_step(p, grads, lr, m, v)
        v1_hand = -lr * g
        p1_hand = 1.0 + v1_hand
        assert np.allclose(p[0], p1_hand)
        nc.sgd_step(p, grads, lr, m, v)
        v2_hand = m * v1_hand - lr * g
        assert np.allclose(v[0], v2_hand)
        assert np.allclose(p[0], p1_hand + v2_hand)

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_matches_the_out_of_place_step(self, grad_dtype):
        # float64 gradients on float32 parameters take numpy's same-kind cast
        rng = Rng(9)
        shapes = [(3, 3, 1, 4), (4,), (17, 5)]
        params = [rng.normal(size=s).astype(np.float32) for s in shapes]
        velocity = [rng.normal(size=s).astype(np.float32) for s in shapes]
        grads = [rng.normal(size=s).astype(grad_dtype) for s in shapes]
        want_p = [p.copy() for p in params]
        want_v = momentum_step_oracle(want_p, grads, 1e-3, 0.9, velocity)
        nc.sgd_step(params, grads, 1e-3, 0.9, velocity)
        for p, v, wp, wv in zip(params, velocity, want_p, want_v):
            assert p.dtype == v.dtype == np.float32
            assert np.array_equal(v, wv)
            assert np.array_equal(p, wp)

    def test_nan_gradient_rejected(self):
        with pytest.raises(TrainingError):
            nc.sgd_step([np.zeros(1)], [np.array([np.nan])], 0.1, 0.0, [np.zeros(1)])

    def test_a_failed_step_changes_nothing(self):
        rng = Rng(10)
        params = [rng.normal(size=(3, 2)), rng.normal(size=4)]
        velocity = [rng.normal(size=(3, 2)), rng.normal(size=4)]
        grads = [rng.normal(size=(3, 2)), np.array([0.0, 1.0, np.nan, 2.0])]
        before = [a.copy() for a in params + velocity]
        with pytest.raises(TrainingError, match="parameter 1"):
            nc.sgd_step(params, grads, 0.1, 0.9, velocity)
        for a, b in zip(params + velocity, before):
            assert np.array_equal(a, b)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            nc.sgd_step([np.zeros(1)], [np.zeros(1)], 0.0, 0.0, [np.zeros(1)])
        with pytest.raises(ParameterError):
            nc.sgd_step([np.zeros(1)], [np.zeros(1)], 0.1, 1.0, [np.zeros(1)])


def _switches():
    return ops.maxpool(np.zeros((1, 4, 4, 2)), 2)[1]


SPATIAL_OPS = {
    "conv2d_forward": lambda x: ops.conv2d_forward(x, np.zeros((1, 1, 2, 2)), np.zeros(2)),
    "conv2d_kernel_grad": lambda x: ops.conv2d_kernel_grad(x, x, np.zeros((1, 1, 2, 2))),
    "deconv2d": lambda x: ops.deconv2d(x, np.zeros((1, 1, 2, 2))),
    "window_max": lambda x: ops.window_max(x, 2),
    "maxpool": lambda x: ops.maxpool(x, 2),
    "unpool": lambda x: ops.unpool(x, _switches()),
    "unpool_backward": lambda x: ops.unpool_backward(x, _switches()),
}


@pytest.mark.parametrize("name", sorted(SPATIAL_OPS))
def test_spatial_ops_take_batches_only(name):
    with pytest.raises(DimensionError, match=r"\[N,H,W,C\] batch"):
        SPATIAL_OPS[name](np.zeros((4, 4, 2)))


MALFORMED = {
    "tape_without_record": (lambda: nc.GradTape(owner=None).get(nc.Elu()), UsageError,
                            r"tape holds no record for <anomkit\.numcore\.layers\.Elu object"),
    "dense_without_units": (lambda: nc.Dense(3, 0), ParameterError,
                            r"dense unit count must be >= 1, got 0"),
    "dropout_rate_one": (lambda: nc.Dropout(1.0), ParameterError,
                         r"dropout rate must be in \[0,1\), got 1\.0"),
    "dropout_rate_negative": (lambda: nc.Dropout(-0.1), ParameterError,
                              r"dropout rate must be in \[0,1\), got -0\.1"),
    "dropout_training_without_stream": (
        lambda: nc.Network([nc.Dense(3, 2), nc.Dropout(0.3)]).forward(np.zeros((1, 3))),
        UsageError, r"dropout in training needs a random stream"),
    "conv_after_the_first_layer": (lambda: nc.Network([nc.Dense(4, 4), nc.Conv2D(3, 1, 2)]),
                                   UsageError,
                                   r"a Conv2D takes data: it must be its network's first layer"),
    "conv_bias_not_cout": (
        lambda: ops.conv2d_forward(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2, 5)), np.zeros(4)),
        DimensionError, r"bias must be \[Cout\]=5, got \(4,\)"),
    "deconv_kernels_rank_3": (lambda: ops.deconv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2))),
                              DimensionError, r"kernels must be \[k,k,Cin,Cout\], got \(3, 3, 2\)"),
    "deconv_kernels_not_square": (
        lambda: ops.deconv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 2, 1, 2))),
        DimensionError, r"kernels must be \[k,k,Cin,Cout\], got \(3, 2, 1, 2\)"),
    "dense_width": (lambda: ops.dense(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5)),
                    DimensionError, r"input dim 3 != weight rows 4"),
    "mse_grad_shapes": (lambda: ops.mse_grad(np.zeros(3), np.zeros(4)), DimensionError,
                        r"shape mismatch \(3,\) vs \(4,\)"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_operands_raise_typed_errors(case):
    call, error, message = MALFORMED[case]
    with pytest.raises(error, match=message):
        call()
