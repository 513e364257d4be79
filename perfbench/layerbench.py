"""numcore layer microbench: each layer alone, at the shape the DCAE feeds it.

Times are medians over repeats after warm-up calls. A single call is not
enough: a desk Conv2D backward measured once inside the network took 209 ms,
and 7.9 ms alone.

Shapes:
  desk_b64   desk preset, batch 64, training: forward and backward of every layer
  desk_b512  desk preset, batch 512, inference forward of the encoder layers
  paper_b8   paper preset, batch 8: Conv2D, Dense and Deconv2D, which cost the
             most there
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from anomkit import numcore as nc
from anomkit.dcae import PRESETS, DcaePreset, ScaleAutoencoder
from anomkit.rng import Rng

ALL = ("Conv2D", "Deconv2D", "Dense", "MaxPool2D", "Unpool2D", "Elu", "Dropout")
SHAPES = (
    # (name, preset, batch, training, layers, warm-up calls, timed repeats)
    ("desk_b64", PRESETS["desk"], 64, True, ALL, 2, 9),
    ("desk_b512", PRESETS["desk"], 512, False, ("Conv2D", "Dense", "MaxPool2D", "Elu"), 2, 7),
    ("paper_b8", PRESETS["paper"], 8, True, ("Conv2D", "Dense", "Deconv2D"), 1, 3),
)
INPUT_SEED = 0
TINY_PRESET = DcaePreset("tiny", patch_side=8, conv_kernels=4, conv_size=3, pool=2,
                         dense_hidden=8, code_dim=4, fusion_dim=4)


def median_ms(fn, warmup, repeats):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def make_layer(name, p, batch, rng):
    """(layer, its input, a tape holding what the layer reads from its partner)."""
    feat = (batch, p.conv_out, p.conv_out, p.conv_kernels)
    tape = nc.GradTape(owner=None)
    if name == "Conv2D":
        layer, shape = nc.Conv2D(p.conv_size, 1, p.conv_kernels), (batch, p.patch_side,
                                                                  p.patch_side, 1)
    elif name == "Deconv2D":
        layer, shape = nc.Deconv2D(p.conv_size, 1, p.conv_kernels), feat
    elif name == "Dense":
        layer, shape = nc.Dense(p.flat_dim, p.dense_hidden), (batch, p.flat_dim)
    elif name == "MaxPool2D":
        layer, shape = nc.MaxPool2D(p.pool), feat
    elif name == "Unpool2D":
        pool = nc.MaxPool2D(p.pool)
        pool.forward(rng.normal(size=feat).astype(np.float32), tape, True, None)
        layer, shape = nc.Unpool2D(pool), (batch, p.pooled, p.pooled, p.conv_kernels)
    elif name == "Elu":
        layer, shape = nc.Elu(), feat
    else:
        layer, shape = nc.Dropout(0.2), feat
    layer.init(rng.derive(1))
    return layer, rng.normal(size=shape).astype(np.float32), tape


def run_layers(tiny=False):
    """{metric name: milliseconds} for every layer, shape and direction."""
    rng = Rng(INPUT_SEED)
    out = {}
    for shape_name, p, batch, training, layers, warmup, repeats in SHAPES:
        if tiny:
            p, batch, warmup, repeats = TINY_PRESET, 2, 0, 1
        for name in layers:
            layer, x, tape = make_layer(name, p, batch, rng.derive(len(out)))
            drop_rng = rng.derive(10_000 + len(out))
            key = f"numcore.{name}.{shape_name}"
            out[f"{key}.fwd_ms"] = median_ms(
                lambda: layer.forward(x, tape, training, drop_rng), warmup, repeats)
            if training:
                y = layer.forward(x, tape, True, drop_rng)
                grad = rng.derive(20_000 + len(out)).normal(size=y.shape).astype(np.float32)
                out[f"{key}.bwd_ms"] = median_ms(lambda: layer.backward(grad, tape),
                                                 warmup, repeats)
            del layer, x, tape
    out["numcore.sgd_step_ms"] = sgd_step_ms(TINY_PRESET if tiny else PRESETS["desk"],
                                             rng.derive(30_000), 0 if tiny else 2,
                                             1 if tiny else 9)
    return out


def sgd_step_ms(p, rng, warmup, repeats):
    """One momentum step over a scale autoencoder's parameters."""
    net = ScaleAutoencoder(p)
    net.init(rng.derive(1))
    params = net.params()
    grads = [rng.derive(2 + i).normal(size=q.shape).astype(q.dtype) for i, q in enumerate(params)]
    velocity = [np.zeros_like(q) for q in params]
    return median_ms(lambda: nc.sgd_step(params, grads, 1e-3, 0.9, velocity), warmup, repeats)

