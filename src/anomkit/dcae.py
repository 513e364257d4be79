"""Two-scale convolutional autoencoders plus the fusion denoising autoencoder.

Every autoencoder here is one `Autoencoder`: a numcore `Network` over an
encoder layer list followed by a decoder layer list, whose `encoder` is a
`Network` over the encoder layers alone. Each scale gets a
`ScaleAutoencoder` (conv, pool and dense encoder; mirrored dense, unpool and
deconv decoder); the two are trained side by side, each by its own SGD over
the same shuffled mini-batches of patch pairs. After that stage, the per-scale encodings are concatenated
and the fusion `Autoencoder([Dense, Elu], [Dense])` is trained as a
denoising autoencoder (encoders frozen, masking-noise corruption); its
encoder output is the final feature vector z. Both stages run the same
momentum-SGD loop. Every layer size comes from the preset
(`presets.DcaePreset`, re-exported here with `PRESETS`); the dropout rate,
SGD momentum and fusion masking probability are the module constants
DROPOUT, MOMENTUM and CORRUPTION.

The two scales share no layer, tape, parameter or generator, so a stage that
needs both (training the scales, or encoding them for the fusion DAE or for
z) forks once through `_fork.both`: scale 1's whole run goes to a thread
started for that call, scale 2's runs on the caller's thread, and the call
joins the thread before it returns. Each scale draws its own RNG streams
(`derive(1)` or `derive(2)` of each step's), and numpy's ufuncs, sgemm and
Philox fills release the GIL, so the scales overlap on two cores and the
outputs are bit-identical to running them one after the other. A failed
scale does not stop the other: the error is raised once both runs have
ended, scale 1's first. The failed stage leaves its trained flag and loss
log as they were, and each scale's parameters as far as that scale's run
got.

Encoding runs each encoder's inference plan (`numcore.Network.infer`): its
layers' inference passes in order, with no tape, no RNG and no Dropout.
Training runs the full layer list.

`_encode_maps` splits each scale encoder's plan at its MaxPool2D and runs
the parts in plan order. The layers before the pool (Conv2D, ELU) run on
the dataset's maps (`patches.PatchMaps`, one per slice and scale), not on
its crops, which overlap heavily, so each map pixel is convolved once.
Encoding never reads the crops, so an encoded dataset never cuts them. Each
call takes one slice's map, cut to the rows its pairs reach. The pool's p*p
max runs on that output at stride 1 (`numcore.window_max`), and each pair's
pooled window is gathered from it at stride p, from the pair's corner,
through a bounds-checked window view: a corner outside its map raises
InputError. The layers after the pool (Reshape, Dense, ELU, Dense, ELU) run
on EMBED_ROWS-row batches of the gathered rows in row order, which is map
order, because the corners list their maps in order. One batcher,
`_batched`, feeds those layers and the fusion encoder alike: its batches
run across map boundaries, and only the last one may be short. The map
path's first chunk is zero crops run through the plan up to the pool: its
side sets the gathered windows' span, and its dtype the codes'.

Each row gets the bits of its crop's encoding on an sgemm that meets the
conditions `tests/oracles.py` states and probes:
- A crop's conv output is the same dot product of the same pixels as the
  map's at the crop's corner plus that offset, and the ELU is elementwise.
- A crop's pool takes the max of the same values in the same order, since
  `window_max` folds its views as `maxpool` does, and max is exact.
- Conv rows past p * pooled, which a crop's pool drops, are never read.
- The Dense layers run on fixed EMBED_ROWS-row batches, however the rows
  fall on maps, because a row's bits can depend on its batch's row count.
EMBED_ROWS is fixed rather than tuned per call: two batch sizes give the
same output only on such an sgemm, so it also fixes the output's low bits on
other kernels. The batch sizes around it encode no faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numcore as nc
from ._fork import both
from .errors import InputError, ParameterError, TrainingError, UsageError
from .patches import PatchDataset, map_groups
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
    `encoder` is a Network over the same encoder layer objects, and its
    `infer` encodes.
    """

    def __init__(self, encoder, decoder):
        super().__init__(encoder + decoder)
        self.encoder = nc.Network(encoder)


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


def _check_patch_side(model: DcaeModel, dataset: PatchDataset):
    """Raise UsageError unless the dataset's pairs have the model's side. The
    crops are not read: a corner whose window leaves its map raises
    InputError where the maps are read."""
    side = model.preset.patch_side
    if dataset.preset.patch_side != side:
        raise UsageError(f"{dataset.preset.patch_side}px patches do not fit the "
                         f"{model.preset.name!r} model, which takes {side}px patches")


def _sgd_epochs(params, n, epochs, hyper: TrainConfig, rng: Rng, order_tag, step_tag, step):
    """Momentum SGD over `epochs` shuffled passes of n rows.

    Epoch e shuffles with rng.derive(order_tag + e); batch b of it calls
    step(row indices, rng.derive(step_tag + e * 100_000 + b)), which returns
    (loss, grads aligned with params). Returns the [epochs, batches] losses.
    """
    if epochs < 1 or hyper.batch_size < 1:
        raise ParameterError(f"epochs {epochs} and batch_size {hyper.batch_size} must be >= 1")
    if n == 0:
        raise InputError("cannot train on a dataset with no rows")
    velocity = [np.zeros_like(p) for p in params]
    bs = hyper.batch_size
    losses = np.empty((epochs, -(-n // bs)))
    for epoch in range(epochs):
        order = rng.derive(order_tag + epoch).permutation(n)
        for bi, start in enumerate(range(0, n, bs)):
            loss, grads = step(order[start : start + bs],
                               rng.derive(step_tag + epoch * 100_000 + bi))
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}, batch {bi}")
            nc.sgd_step(params, grads, hyper.lr, MOMENTUM, velocity)
            losses[epoch, bi] = loss
    return losses


def _epoch_log(losses):
    """(epoch, mean batch loss) pairs of an [epochs, batches] loss array."""
    return [(epoch, float(np.mean(row))) for epoch, row in enumerate(losses)]


def train_dcae(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
               rng: Rng) -> DcaeModel:
    """Train both scale autoencoders on healthy patch pairs, one scale per thread.

    Each scale runs its own momentum SGD over the same shuffled batches of
    pair rows; the log holds each epoch's mean over batches of the two
    scales' mean loss. If a scale fails, the other still finishes its run,
    and the error is raised with scales_trained and scale_log untouched.
    """
    if dataset.split != "healthy-train":
        raise UsageError(f"train_dcae expects the healthy-train split, got {dataset.split!r}")
    _check_patch_side(model, dataset)

    def train(net, x, scale):
        def step(idx, step_rng):
            batch = x[idx]
            out, tape = net.forward(batch, step_rng.derive(scale))
            return nc.mse(batch, out), net.backward(tape, nc.mse_grad(batch, out))

        return _sgd_epochs(net.params(), len(dataset), hyper.epochs, hyper, rng, 1000, 0, step)

    losses1, losses2 = both(lambda: train(model.scale1, dataset.scale1[..., None], 1),
                            lambda: train(model.scale2, dataset.scale2[..., None], 2),
                            "dcae-scale1")
    model.scale_log.extend(_epoch_log(0.5 * (losses1 + losses2)))
    model.scales_trained = True
    return model


def _batched(fn, chunks):
    """fn over the rows of `chunks`, in order, in EMBED_ROWS-row batches that
    run across chunk boundaries, stacked. Only the last batch may be short,
    and zero rows make one zero-row call, so the result keeps fn's width:
    `chunks` holds at least one array, and any of them may have zero rows.
    Rows left over from a chunk are copied, so each chunk can go before the
    next one is made."""
    out, held = [], None
    for chunk in chunks:
        held = chunk[:0] if held is None else held
        need = -len(held) % EMBED_ROWS  # the rows that fill the held batch
        held, chunk = np.concatenate([held, chunk[:need]]), chunk[need:]
        if len(held) == EMBED_ROWS:
            out.append(fn(held))
            held = held[:0]
        whole = len(chunk) - len(chunk) % EMBED_ROWS
        out += [fn(chunk[start : start + EMBED_ROWS]) for start in range(0, whole, EMBED_ROWS)]
        held = np.concatenate([held, chunk[whole:]])
        del chunk
    if len(held) or not out:
        out.append(fn(held))
    return np.concatenate(out)


def _pooled_windows(head, p, span, one, phase, r, c, side):
    """The pooled [k, pooled, pooled, C] window of each of k crops of the
    [phases, h, w] map `one` at corners (phase, r, c): `head` over the map
    rows the crops reach, the p*p max at stride 1, and each crop's windows
    of that, `span` wide, at stride p from its corner."""
    top = r.min()
    x = one[:, top : r.max() + side]
    y = nc.window_max(head.infer(x[..., None]), p)  # [phases, h, w, C]
    windows = sliding_window_view(y, (span, span), axis=(1, 2))  # [..., C, span, span]
    return windows.transpose(0, 1, 2, 4, 5, 3)[..., ::p, ::p, :][phase, r - top, c]


def _encode_maps(net, maps, corners, side):
    """[len(corners), code_dim] codes of the side x side crops at `corners` of
    `maps`, by `net`'s inference plan in order: the layers before its
    MaxPool2D and the pool's max once per map, and the layers after the pool
    on EMBED_ROWS-row batches of the gathered rows, in row order."""
    plan = net.encoder.plan
    at = next(i for i, layer in enumerate(plan) if isinstance(layer, nc.MaxPool2D))
    head, p = nc.Network(plan[:at]), plan[at].pool
    # zero crops through the pool: the pooled rows' shape and dtype
    first = nc.Network(plan[: at + 1]).infer(np.zeros((0, side, side, 1), np.float32))
    span = p * (first.shape[1] - 1) + 1
    pooled = (_pooled_windows(head, p, span, one, *local, side)
              for one, local, _ in map_groups(maps, corners, side))
    return _batched(nc.Network(plan[at + 1 :]).infer, chain([first], pooled))


def _scale_codes(model: DcaeModel, dataset: PatchDataset):
    """[len, 2 * code_dim] scale-1 then scale-2 codes from the dataset's maps,
    one scale per thread."""
    side = model.preset.patch_side
    (maps1, corners1), (maps2, corners2) = dataset.maps.scale(1), dataset.maps.scale(2)
    return np.concatenate(both(lambda: _encode_maps(model.scale1, maps1, corners1, side),
                               lambda: _encode_maps(model.scale2, maps2, corners2, side),
                               "dcae-scale1"), axis=1)


def train_fusion(model: DcaeModel, dataset: PatchDataset, hyper: TrainConfig,
                 rng: Rng) -> DcaeModel:
    """Train the fusion DAE on frozen concatenated encodings of healthy pairs."""
    if dataset.split != "healthy-train":
        raise UsageError(f"train_fusion expects the healthy-train split, got {dataset.split!r}")
    _check_patch_side(model, dataset)
    if not model.scales_trained:
        raise UsageError("scale encoders must be trained before the fusion DAE")
    clean = _scale_codes(model, dataset)

    def step(idx, step_rng):
        target = clean[idx]
        keep = step_rng.random(target.shape) >= CORRUPTION
        corrupted = target * keep.astype(target.dtype)
        out, tape = model.fusion.forward(corrupted)
        return nc.mse(target, out), model.fusion.backward(tape, nc.mse_grad(target, out))

    model.fusion_log.extend(_epoch_log(_sgd_epochs(model.fusion.params(), clean.shape[0],
                                                   hyper.fusion_epochs, hyper, rng,
                                                   2_000_000, 3_000_000, step)))
    model.fusion_trained = True
    return model


def embed_dataset(model: DcaeModel, dataset: PatchDataset):
    """Feature vectors z of every pair; pure inference."""
    _check_patch_side(model, dataset)
    if not (model.scales_trained and model.fusion_trained):
        raise UsageError("model is not fully trained")
    return _batched(model.fusion.encoder.infer, [_scale_codes(model, dataset)])
