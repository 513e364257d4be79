"""Two-scale convolutional autoencoders plus the fusion denoising autoencoder.

Each scale gets its own encoder/decoder pair; both are optimized jointly,
one step per mini-batch covering the two scales of the same patch pairs.
After that stage, the per-scale encodings are concatenated and a one-hidden-
layer denoising autoencoder is trained (encoders frozen, masking-noise
corruption) to produce the final feature vector z from its hidden layer.
"""

from __future__ import annotations

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
    dropout: float = 0.2
    corruption: float = 0.2  # masking-noise probability for the fusion DAE
    fusion_epochs: int = 30


class ScaleAutoencoder:
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
        self.preset = p
        self.net = nc.Network(encoder + decoder)
        self.n_encoder_layers = len(encoder)

    def init(self, rng: Rng):
        self.net.init(rng)

    def params(self):
        return self.net.params()

    def forward(self, batch, training, rng):
        return self.net.forward(batch, training=training, rng=rng)

    def backward(self, tape, grad):
        return self.net.backward(tape, grad)

    def encode(self, batch):
        """Inference-mode encoding of [N, side, side, 1] patches."""
        x = batch
        tape = nc.GradTape(owner=None)
        for layer in self.net.layers[: self.n_encoder_layers]:
            x = layer.forward(x, tape, False, None)
        return x


@dataclass
class DcaeModel:
    preset: DcaePreset
    scale1: ScaleAutoencoder
    scale2: ScaleAutoencoder
    fusion: nc.Network  # Dense(2*code, fusion), Elu, Dense(fusion, 2*code)
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
    fusion = nc.Network(
        [
            nc.Dense(2 * p.code_dim, p.fusion_dim),
            nc.Elu(),
            nc.Dense(p.fusion_dim, 2 * p.code_dim),
        ]
    )
    s1.init(rng.derive(1))
    s2.init(rng.derive(2))
    fusion.init(rng.derive(3))
    return DcaeModel(preset=p, scale1=s1, scale2=s2, fusion=fusion)


def _check_loss(loss, epoch, batch):
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")


def train_dcae(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
               rng: Rng) -> DcaeModel:
    """Jointly optimize both scale autoencoders on healthy patch pairs."""
    if dataset.split != "healthy-train":
        raise UsageError(f"train_dcae expects the healthy-train split, got {dataset.split!r}")
    n = len(dataset)
    x1 = dataset.scale1[..., None]
    x2 = dataset.scale2[..., None]
    params = model.scale1.params() + model.scale2.params()
    velocity = None
    bs = hyper.batch_size
    for epoch in range(hyper.epochs):
        order = rng.derive(1000 + epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, bs)):
            idx = order[start : start + bs]
            step_rng = rng.derive(epoch * 100_000 + bi)
            b1, b2 = x1[idx], x2[idx]
            out1, tape1 = model.scale1.forward(b1, True, step_rng.derive(1))
            out2, tape2 = model.scale2.forward(b2, True, step_rng.derive(2))
            loss1, loss2 = nc.mse(b1, out1), nc.mse(b2, out2)
            _check_loss(loss1 + loss2, epoch, bi)
            g1 = model.scale1.backward(tape1, nc.mse_grad(b1, out1))
            g2 = model.scale2.backward(tape2, nc.mse_grad(b2, out2))
            new_params, velocity = nc.sgd_step(params, g1 + g2, hyper.lr,
                                               hyper.momentum, velocity)
            for p, q in zip(params, new_params):
                p[...] = q
            losses.append(0.5 * (loss1 + loss2))
        model.scale_log.append((epoch, float(np.mean(losses))))
    model.scales_trained = True
    return model


def _concat_encodings(model: DcaeModel, dataset: PatchDataset, batch=512):
    outs = []
    for start in range(0, len(dataset), batch):
        b1 = dataset.scale1[start : start + batch][..., None]
        b2 = dataset.scale2[start : start + batch][..., None]
        z1 = model.scale1.encode(b1)
        z2 = model.scale2.encode(b2)
        outs.append(np.concatenate([z1, z2], axis=1))
    return np.concatenate(outs, axis=0)


def train_fusion(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
                 rng: Rng) -> DcaeModel:
    """Train the fusion DAE on frozen concatenated encodings."""
    if not model.scales_trained:
        raise UsageError("scale encoders must be trained before the fusion DAE")
    clean = _concat_encodings(model, dataset).astype(np.float32)
    n = clean.shape[0]
    params = model.fusion.params()
    velocity = None
    bs = hyper.batch_size
    for epoch in range(hyper.fusion_epochs):
        order = rng.derive(2_000_000 + epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, bs)):
            idx = order[start : start + bs]
            target = clean[idx]
            step_rng = rng.derive(3_000_000 + epoch * 100_000 + bi)
            if hyper.corruption > 0:
                keep = (step_rng.random(target.shape) >= hyper.corruption)
                corrupted = target * keep.astype(target.dtype)
            else:
                corrupted = target
            out, tape = model.fusion.forward(corrupted, training=True)
            loss = nc.mse(target, out)
            _check_loss(loss, epoch, bi)
            grads = model.fusion.backward(tape, nc.mse_grad(target, out))
            new_params, velocity = nc.sgd_step(params, grads, hyper.lr,
                                               hyper.momentum, velocity)
            for p, q in zip(params, new_params):
                p[...] = q
            losses.append(loss)
        model.fusion_log.append((epoch, float(np.mean(losses))))
    model.fusion_trained = True
    return model


def _fusion_hidden(model: DcaeModel, concat):
    x = concat
    tape = nc.GradTape(owner=None)
    for layer in model.fusion.layers[:2]:  # Dense + Elu
        x = layer.forward(x, tape, False, None)
    return x


def embed_pairs(model: DcaeModel, scale1_batch, scale2_batch):
    """Feature vectors z for stacked patch batches; pure inference."""
    if not (model.scales_trained and model.fusion_trained):
        raise UsageError("model is not fully trained")
    z1 = model.scale1.encode(scale1_batch[..., None])
    z2 = model.scale2.encode(scale2_batch[..., None])
    return _fusion_hidden(model, np.concatenate([z1, z2], axis=1))


def embed_dataset(model: DcaeModel, dataset: PatchDataset, batch=512):
    outs = []
    for start in range(0, len(dataset), batch):
        outs.append(
            embed_pairs(model, dataset.scale1[start : start + batch],
                        dataset.scale2[start : start + batch])
        )
    return np.concatenate(outs, axis=0)
