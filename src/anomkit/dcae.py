"""Two-scale convolutional autoencoders plus the fusion denoising autoencoder.

Every autoencoder here is one `Autoencoder`: a numcore `Network` over an
encoder layer list followed by a decoder layer list, whose `encode` runs the
encoder layers alone. Each scale gets a `ScaleAutoencoder` (conv, pool and
dense encoder; mirrored dense, unpool and deconv decoder); both are optimized
jointly, one step per mini-batch covering the two scales of the same patch
pairs. After that stage, the per-scale encodings are concatenated and the
fusion `Autoencoder([Dense, Elu], [Dense])` is trained as a denoising
autoencoder (encoders frozen, masking-noise corruption); its encoder output
is the final feature vector z. Both stages run the same momentum-SGD loop.
Every layer size comes from the preset (`presets.DcaePreset`, re-exported
here with `PRESETS`); the dropout rate, SGD momentum and fusion masking
probability are the module constants DROPOUT, MOMENTUM and CORRUPTION.

The two scales run at the same time: wherever both are needed (a training
step, or encoding a batch of pairs), scale 1's half runs on one worker
thread and scale 2's half on the caller's thread. The halves share no
layer, tape or generator, each draws its own RNG stream (`derive(1)` or
`derive(2)` of the step's), and their results are joined in scale order;
numpy's ufuncs, sgemm and Philox fills release the GIL, so the halves
overlap on two cores and the outputs are bit-identical to running them one
after the other. A failed half raises its own error once both have finished,
scale 1's first.

Encoding runs each encoder's inference plan (`numcore.Network.infer`): no
tape, no RNG and no Dropout, and the first ELU after a max pool that keeps no
switches, so it sees a quarter of the elements. The output is bit-identical
to the layers' inference forward. Training runs the full layer list, where
dropout sits between that ELU and the pool, and is unchanged.

Inference runs in 128-row batches. Embedding one 4,671-pair desk volume on a
2-core Xeon (one BLAS thread; medians of 11, median of three runs) took
0.20 / 0.20 / 0.21 / 0.21 s at 512 / 256 / 128 / 64 rows with the scales one
after the other and 0.12 / 0.12 / 0.13 / 0.16 s with them in parallel; the
layer-by-layer forward the plan replaced took 0.33 s and 0.19 s at 128 rows.
On one core, parallel took 0.21 s against 0.19 s serial at 128 rows. Larger
batches gain little, and at 512 rows the layer-by-layer forward had raised
the benchmark's peak RSS by 35-40 MB, so EMBED_ROWS stays 128. Every batch
size gives the same output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import InputError, ParameterError, TrainingError, UsageError
from .patches import PatchDataset
from .presets import PRESETS, DcaePreset, get_preset  # noqa: F401  PRESETS is re-exported
from .rng import Rng


DROPOUT = 0.2  # rate of every Dropout layer in a scale autoencoder
MOMENTUM = 0.9  # of the SGD that trains both stages
CORRUPTION = 0.2  # masking-noise probability for the fusion DAE
EMBED_ROWS = 128  # rows per inference batch; see the module docstring


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 12
    batch_size: int = 64
    fusion_epochs: int = 30


class Autoencoder(nc.Network):
    """Encoder layers followed by decoder layers, trained as one Network.

    The layers stay in one Network because `init` and `forward` derive each
    layer's RNG from its index: a separate decoder Network would renumber
    its layers and so change every decoder weight and dropout mask.
    `encode` runs a Network over the same encoder layer objects.
    """

    def __init__(self, encoder, decoder):
        super().__init__(encoder + decoder)
        self.encoder = nc.Network(encoder)

    def encode(self, batch):
        """Inference-mode output of the encoder layers, by their plan."""
        return self.encoder.infer(batch)


class ScaleAutoencoder(Autoencoder):
    """Mirrored conv autoencoder for one patch scale."""

    def __init__(self, p: DcaePreset):
        pool = nc.MaxPool2D(p.pool)
        encoder = [
            nc.Conv2D(p.conv_size, 1, p.conv_kernels),
            nc.Elu(),
            nc.Dropout(DROPOUT),
            pool,
            nc.Reshape((p.flat_dim,)),
            nc.Dense(p.flat_dim, p.dense_hidden),
            nc.Elu(),
            nc.Dropout(DROPOUT),
            nc.Dense(p.dense_hidden, p.code_dim),
            nc.Elu(),
            nc.Dropout(DROPOUT),
        ]
        decoder = [
            nc.Dense(p.code_dim, p.dense_hidden),
            nc.Elu(),
            nc.Dropout(DROPOUT),
            nc.Dense(p.dense_hidden, p.flat_dim),
            nc.Elu(),
            nc.Dropout(DROPOUT),
            nc.Reshape((p.pooled, p.pooled, p.conv_kernels)),
            nc.Unpool2D(pool),
            nc.Deconv2D(p.conv_size, 1, p.conv_kernels),  # linear output
        ]
        super().__init__(encoder, decoder)


@dataclass
class DcaeModel:
    preset: DcaePreset
    scale1: ScaleAutoencoder
    scale2: ScaleAutoencoder
    fusion: Autoencoder  # [Dense(2*code, fusion), Elu] then [Dense(fusion, 2*code)]
    scales_trained: bool = False
    fusion_trained: bool = False
    scale_log: list = field(default_factory=list)  # (epoch, mean loss)
    fusion_log: list = field(default_factory=list)


def build_model(preset, rng: Rng) -> DcaeModel:
    """Construct and deterministically initialize the full model."""
    p = get_preset(preset)
    s1 = ScaleAutoencoder(p)
    s2 = ScaleAutoencoder(p)
    fusion = Autoencoder([nc.Dense(2 * p.code_dim, p.fusion_dim), nc.Elu()],
                         [nc.Dense(p.fusion_dim, 2 * p.code_dim)])
    s1.init(rng.derive(1))
    s2.init(rng.derive(2))
    fusion.init(rng.derive(3))
    return DcaeModel(preset=p, scale1=s1, scale2=s2, fusion=fusion)


def _new_scale1_worker():
    global _SCALE1_WORKER
    _SCALE1_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dcae-scale1")


_new_scale1_worker()
# a forked child inherits the executor but not its thread, and would wait forever
os.register_at_fork(after_in_child=_new_scale1_worker)


def _both_scales(half1, half2):
    """(half1(), half2()), with half1 on the scale-1 worker and half2 here.

    Both halves have finished before this returns or raises; an error of
    half1 takes precedence, as it would if the halves ran in scale order.
    """
    future = _SCALE1_WORKER.submit(half1)
    try:
        second = half2()
    except BaseException:
        future.result()
        raise
    return future.result(), second


def _check_patch_side(model: DcaeModel, dataset: PatchDataset):
    side = dataset.preset.patch_side
    if side != model.preset.patch_side:
        raise UsageError(f"{side}px patches do not fit the {model.preset.name!r} model, "
                         f"which takes {model.preset.patch_side}px patches")


def _sgd_epochs(params, n, epochs, hyper: TrainConfig, rng: Rng, order_tag, step_tag, step):
    """Momentum SGD over `epochs` shuffled passes of n rows.

    Epoch e shuffles with rng.derive(order_tag + e); batch b of it calls
    step(row indices, rng.derive(step_tag + e * 100_000 + b)), which returns
    (loss, grads aligned with params). Returns the (epoch, mean loss) log.
    """
    if epochs < 1 or hyper.batch_size < 1:
        raise ParameterError(f"epochs {epochs} and batch_size {hyper.batch_size} must be >= 1")
    if n == 0:
        raise InputError("cannot train on a dataset with no rows")
    velocity = [np.zeros_like(p) for p in params]
    bs = hyper.batch_size
    log = []
    for epoch in range(epochs):
        order = rng.derive(order_tag + epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, bs)):
            loss, grads = step(order[start : start + bs],
                               rng.derive(step_tag + epoch * 100_000 + bi))
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {bi}")
            nc.sgd_step(params, grads, hyper.lr, MOMENTUM, velocity)
            losses.append(loss)
        log.append((epoch, float(np.mean(losses))))
    return log


def train_dcae(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
               rng: Rng) -> DcaeModel:
    """Jointly optimize both scale autoencoders on healthy patch pairs."""
    if dataset.split != "healthy-train":
        raise UsageError(f"train_dcae expects the healthy-train split, got {dataset.split!r}")
    _check_patch_side(model, dataset)
    x1 = dataset.scale1[..., None]
    x2 = dataset.scale2[..., None]

    def half(net, x, step_rng):
        out, tape = net.forward(x, True, step_rng)
        grads = net.backward(tape, nc.mse_grad(x, out))
        return nc.mse(x, out), grads

    def step(idx, step_rng):
        (l1, g1), (l2, g2) = _both_scales(
            lambda: half(model.scale1, x1[idx], step_rng.derive(1)),
            lambda: half(model.scale2, x2[idx], step_rng.derive(2)))
        return 0.5 * (l1 + l2), g1 + g2

    params = model.scale1.params() + model.scale2.params()
    model.scale_log.extend(_sgd_epochs(params, len(dataset), hyper.epochs, hyper, rng,
                                       1000, 0, step))
    model.scales_trained = True
    return model


def _batched(fn, model: DcaeModel, dataset: PatchDataset):
    """fn(model, scale1 rows, scale2 rows) over EMBED_ROWS-row slices, stacked;
    an empty dataset is one zero-row call, so the result keeps fn's width."""
    return np.concatenate([fn(model, dataset.scale1[start : start + EMBED_ROWS],
                              dataset.scale2[start : start + EMBED_ROWS])
                           for start in range(0, len(dataset), EMBED_ROWS) or [0]], axis=0)


def _encode_scales(model: DcaeModel, scale1_batch, scale2_batch):
    return np.concatenate(_both_scales(lambda: model.scale1.encode(scale1_batch[..., None]),
                                       lambda: model.scale2.encode(scale2_batch[..., None])),
                          axis=1)


def train_fusion(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
                 rng: Rng) -> DcaeModel:
    """Train the fusion DAE on frozen concatenated encodings."""
    _check_patch_side(model, dataset)
    if not model.scales_trained:
        raise UsageError("scale encoders must be trained before the fusion DAE")
    clean = _batched(_encode_scales, model, dataset)

    def step(idx, step_rng):
        target = clean[idx]
        keep = step_rng.random(target.shape) >= CORRUPTION
        corrupted = target * keep.astype(target.dtype)
        out, tape = model.fusion.forward(corrupted, training=True)
        return nc.mse(target, out), model.fusion.backward(tape, nc.mse_grad(target, out))

    model.fusion_log.extend(_sgd_epochs(model.fusion.params(), clean.shape[0],
                                        hyper.fusion_epochs, hyper, rng,
                                        2_000_000, 3_000_000, step))
    model.fusion_trained = True
    return model


def embed_pairs(model: DcaeModel, scale1_batch, scale2_batch):
    """Feature vectors z for stacked patch batches; pure inference."""
    if not (model.scales_trained and model.fusion_trained):
        raise UsageError("model is not fully trained")
    side = model.preset.patch_side
    expected = (len(scale1_batch), side, side)
    if np.shape(scale1_batch) != expected or np.shape(scale2_batch) != expected:
        raise UsageError(f"embed_pairs expects two {expected} batches, "
                         f"got {np.shape(scale1_batch)} and {np.shape(scale2_batch)}")
    return model.fusion.encode(_encode_scales(model, scale1_batch, scale2_batch))


def embed_dataset(model: DcaeModel, dataset: PatchDataset):
    _check_patch_side(model, dataset)
    return _batched(embed_pairs, model, dataset)
