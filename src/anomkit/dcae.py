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

The two scales run at the same time: wherever both are needed (a training
step, or encoding a batch of pairs), scale 1's half runs on one worker
thread and scale 2's half on the caller's thread. The halves share no
layer, tape or generator, each draws its own RNG stream (`derive(1)` or
`derive(2)` of the step's), and their results are joined in scale order;
numpy's ufuncs, sgemm and Philox fills release the GIL, so the halves
overlap on two cores and the outputs are bit-identical to running them one
after the other. A failed half raises its own error once both have finished,
scale 1's first.

Inference runs in 128-row batches. Embedding one 4,526-pair desk volume on a
2-core Xeon (2 MiB L2 per core, one BLAS thread; medians of 11) took
0.59 / 0.42 / 0.42 / 0.38 s at 512 / 256 / 128 / 64 rows with the scales one
after the other and 0.35 / 0.23 / 0.25 / 0.29 s with them in parallel; on one
core, parallel took 0.36 s against 0.35 s serial at 128 rows. At 128 rows one
ELU temporary (2.4 MB) is about one L2 cache. At 512 rows, the two encodes at
once raised the benchmark's peak RSS from 176 to 215 MB (`screen`) and from
227 to 261 MB (`fit`); at 128 rows it is 155 and 215 MB. Every batch size
gives the same output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ParameterError, TrainingError, UsageError
from .patches import PatchDataset
from .rng import Rng


@dataclass(frozen=True)
class DcaePreset:
    name: str
    patch_side: int
    conv_kernels: int
    conv_size: int
    pool: int
    dense_hidden: int
    code_dim: int
    fusion_dim: int

    @property
    def conv_out(self):  # spatial side after the valid convolution
        return self.patch_side - self.conv_size + 1

    @property
    def pooled(self):  # spatial side after pooling
        return self.conv_out // self.pool

    @property
    def flat_dim(self):
        return self.pooled * self.pooled * self.conv_kernels


PRESETS = {
    "paper": DcaePreset("paper", patch_side=32, conv_kernels=512, conv_size=9,
                        pool=3, dense_hidden=2048, code_dim=512, fusion_dim=256),
    "desk": DcaePreset("desk", patch_side=16, conv_kernels=32, conv_size=5,
                       pool=2, dense_hidden=128, code_dim=64, fusion_dim=32),
}


def get_dcae_preset(name) -> DcaePreset:
    if isinstance(name, DcaePreset):
        return name
    try:
        return PRESETS[name]
    except KeyError:
        raise ParameterError(f"unknown preset {name!r}; know {sorted(PRESETS)}") from None


@dataclass
class TrainConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    epochs: int = 12
    batch_size: int = 64
    corruption: float = 0.2  # masking-noise probability for the fusion DAE
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
        """Inference-mode output of the encoder layers."""
        return self.encoder.forward(batch)[0]


class ScaleAutoencoder(Autoencoder):
    """Mirrored conv autoencoder for one patch scale."""

    def __init__(self, preset: DcaePreset, dropout=0.2):
        p = preset
        pool = nc.MaxPool2D(p.pool)
        encoder = [
            nc.Conv2D(p.conv_size, 1, p.conv_kernels),
            nc.Elu(),
            nc.Dropout(dropout),
            pool,
            nc.Reshape((p.flat_dim,)),
            nc.Dense(p.flat_dim, p.dense_hidden),
            nc.Elu(),
            nc.Dropout(dropout),
            nc.Dense(p.dense_hidden, p.code_dim),
            nc.Elu(),
            nc.Dropout(dropout),
        ]
        decoder = [
            nc.Dense(p.code_dim, p.dense_hidden),
            nc.Elu(),
            nc.Dropout(dropout),
            nc.Dense(p.dense_hidden, p.flat_dim),
            nc.Elu(),
            nc.Dropout(dropout),
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

    @property
    def feature_dim(self):
        return self.preset.fusion_dim


def build_model(preset, rng: Rng) -> DcaeModel:
    """Construct and deterministically initialize the full model."""
    p = get_dcae_preset(preset)
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
    side = dataset.preset.side
    if side != model.preset.patch_side:
        raise UsageError(f"{side}px patches do not fit the {model.preset.name!r} model, "
                         f"which takes {model.preset.patch_side}px patches")


def _sgd_epochs(params, n, epochs, hyper: TrainConfig, rng: Rng, order_tag, step_tag, step):
    """Momentum SGD over `epochs` shuffled passes of n rows.

    Epoch e shuffles with rng.derive(order_tag + e); batch b of it calls
    step(row indices, rng.derive(step_tag + e * 100_000 + b)), which returns
    (loss, grads aligned with params). Returns the (epoch, mean loss) log.
    """
    velocity = None
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
            new_params, velocity = nc.sgd_step(params, grads, hyper.lr,
                                               hyper.momentum, velocity)
            for p, q in zip(params, new_params):
                p[...] = q
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


def _batched(fn, model: DcaeModel, dataset: PatchDataset, batch=128):
    """fn(model, scale1 rows, scale2 rows) over `batch`-row slices, stacked;
    an empty dataset is one zero-row call, so the result keeps fn's width."""
    if batch < 1:
        raise ParameterError(f"batch must be >= 1, got {batch}")
    return np.concatenate([fn(model, dataset.scale1[start : start + batch],
                              dataset.scale2[start : start + batch])
                           for start in range(0, len(dataset), batch) or [0]], axis=0)


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
        if hyper.corruption > 0:
            keep = step_rng.random(target.shape) >= hyper.corruption
            corrupted = target * keep.astype(target.dtype)
        else:
            corrupted = target
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


def embed_dataset(model: DcaeModel, dataset: PatchDataset, batch=128):
    _check_patch_side(model, dataset)
    return _batched(embed_pairs, model, dataset, batch)
