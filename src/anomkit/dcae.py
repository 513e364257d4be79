"""Two-scale convolutional autoencoders plus the fusion denoising autoencoder.

Every autoencoder here is one `Autoencoder`: a numcore `Network` over an
encoder layer list followed by a decoder layer list, whose `encode` runs the
encoder layers alone. Each scale gets a `ScaleAutoencoder` (conv, pool and
dense encoder; mirrored dense, unpool and deconv decoder); the two are
trained side by side, each by its own SGD over the same shuffled mini-batches
of patch pairs. After that stage, the per-scale encodings are concatenated
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
Training runs the full layer list and is unchanged.

The plan's Conv2D, first ELU and MaxPool2D run on the dataset's maps
(`patches.PatchMaps`, one per slice and scale), not on its crops, which
overlap heavily: a desk volume has about 4,800 crops of 16x16 on eight
128x128 slices. Encoding never reads the crops, so an encoded dataset never
cuts them. Each conv call takes one slice's map, cut to the rows its pairs
reach. Its output goes through the p*p max at stride 1
(`numcore.window_max`) and then the ELU, and each pair's pooled window is
gathered from that at stride p, from the pair's corner, through a
bounds-checked window view: a corner outside its map raises InputError.

`_encode_maps` is the one place that runs the ELU after the max, where the
plan has it before the pool. The swap is exact because ELU is
non-decreasing on every pair of floats, so the max of the ELUs is the ELU
of the max; the ELU then sees a quarter of the conv output. The gather
picks a subset of the ELU's elementwise output, so taking the ELU before
the gather changes no bit either: on a desk volume of 4,797 pairs the
pooled maps hold 3.2M (scale 1) and 3.9M (scale 2) values, against the 5.5M
that each scale's gather takes. The layers after the pool (Reshape, Dense,
ELU, Dense, ELU) run on EMBED_ROWS-row batches of the gathered rows, taken
in map order, which for a `build_dataset` dataset is its row order.

The map path gives each row the bits the crop path gives it:
- A crop's conv output is the same dot product of the same pixels as the
  map's at the crop's corner plus that offset. The two are equal on an
  sgemm whose row results do not depend on the row's place in the batch:
  OpenBLAS's SkylakeX kernel is one, its AVX2 kernels are not
  (`tests/oracles.py`).
- A crop's pool takes the max of the same values in the same order, since
  `window_max` folds its views as `pool_max` does, and max is exact.
- Conv rows past p * pooled, which a crop's pool drops, are never read.
- The Dense layers see the same 128-row batches as when each crop was
  encoded, because their rows' bits can depend on the batch's row count
  (`tests/oracles.py`).

Embedding one 4,797-pair desk volume on a 2-core Xeon (one BLAS thread,
untrained desk weights, medians of 15 calls per process) took 0.10-0.12 s
against 0.23-0.26 s through the crops, and 0.09-0.12 s against 0.19-0.23 s
on one core (`taskset -c 0`). EMBED_ROWS stays 128: 64, 128 and 256 rows
took 94-116 ms with the scales on two threads and 107-121 ms on one core,
and 512 rows 104-131 ms (medians of 20 interleaved calls, two runs each).
Two batch sizes give the same output only where sgemm meets the conditions
above, so EMBED_ROWS also fixes the output's low bits on other kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            out, tape = net.forward(batch, True, step_rng.derive(scale))
            return nc.mse(batch, out), net.backward(tape, nc.mse_grad(batch, out))

        return _sgd_epochs(net.params(), len(dataset), hyper.epochs, hyper, rng, 1000, 0, step)

    losses1, losses2 = both(lambda: train(model.scale1, dataset.scale1[..., None], 1),
                            lambda: train(model.scale2, dataset.scale2[..., None], 2),
                            "dcae-scale1")
    model.scale_log.extend(_epoch_log(0.5 * (losses1 + losses2)))
    model.scales_trained = True
    return model


def _batched(fn, rows):
    """fn over EMBED_ROWS-row slices of rows, stacked; zero rows are one
    zero-row call, so the result keeps fn's width."""
    return np.concatenate([fn(rows[start : start + EMBED_ROWS])
                           for start in range(0, len(rows), EMBED_ROWS) or [0]], axis=0)


def _pooled_windows(conv, p, elu, one, phase, r, c, side):
    """The pooled and ELU'd [k, pooled, pooled, C] window of each of k crops
    of the [phases, h, w] map `one` at corners (phase, r, c): one conv over
    the map rows the crops reach, the p*p max at stride 1 and the ELU, and
    each crop's windows of that at stride p from its corner."""
    top = r.min()
    x = one[:, top : r.max() + side]
    y = elu.infer(nc.window_max(conv.infer(x[..., None]), p))  # [phases, h, w, C]
    span = p * ((side - conv.k + 1) // p - 1) + 1
    windows = sliding_window_view(y, (span, span), axis=(1, 2))  # [..., C, span, span]
    return windows.transpose(0, 1, 2, 4, 5, 3)[..., ::p, ::p, :][phase, r - top, c]


def _batch_codes(fn, held, pooled):
    """fn of each whole EMBED_ROWS-row batch of the `held` rows followed by
    `pooled`'s, and a copy of the rows left over, so `pooled` can go."""
    batches = []
    if len(held):
        need = EMBED_ROWS - len(held)
        held, pooled = np.concatenate([held, pooled[:need]]), pooled[need:]
        if len(held) == EMBED_ROWS:
            batches, held = [held], held[:0]
    whole = len(pooled) - len(pooled) % EMBED_ROWS
    batches += [pooled[start : start + EMBED_ROWS] for start in range(0, whole, EMBED_ROWS)]
    return [fn(batch) for batch in batches], np.concatenate([held, pooled[whole:]])


def _encode_maps(net, maps, corners, side):
    """[len(corners), code_dim] codes of the side x side crops at `corners` of
    `maps`, by `net`'s inference plan: its Conv2D, the MaxPool2D's max and
    then the first ELU once per map, and the layers after them on
    EMBED_ROWS-row batches of the gathered rows, taken in map order."""
    conv, elu, pool, *rest = net.encoder.plan
    tail = nc.Network(rest)
    n = (side - conv.k + 1) // pool.pool
    rows, codes = [np.zeros(0, np.int64)], []
    held = np.zeros((0, n, n, conv.cout), conv.kernels.dtype)  # rows not yet in a batch
    for one, local, map_rows in map_groups(maps, corners, side):
        rows.append(map_rows)
        done, held = _batch_codes(tail.infer, held,
                                  _pooled_windows(conv, pool.pool, elu, one, *local, side))
        codes += done
    if len(held) or not codes:  # a zero-row batch keeps the width
        codes.append(tail.infer(held))
    out = np.empty_like(codes[0], shape=(len(corners), codes[0].shape[1]))
    out[np.concatenate(rows)] = np.concatenate(codes)
    return out


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
    """Train the fusion DAE on frozen concatenated encodings."""
    _check_patch_side(model, dataset)
    if not model.scales_trained:
        raise UsageError("scale encoders must be trained before the fusion DAE")
    clean = _scale_codes(model, dataset)

    def step(idx, step_rng):
        target = clean[idx]
        keep = step_rng.random(target.shape) >= CORRUPTION
        corrupted = target * keep.astype(target.dtype)
        out, tape = model.fusion.forward(corrupted, training=True)
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
    return _batched(model.fusion.encode, _scale_codes(model, dataset))
