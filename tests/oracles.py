"""Independent brute-force oracles used only by the test suite."""

import itertools

import numpy as np

from anomkit.numcore import GradTape, mse, mse_grad, sgd_step


def nu_dual_oracle(X, nu):
    """Exhaustive active-set solution of the nu one-class dual (n <= ~8).

    Enumerates every assignment of each alpha_i to {at 0, at cap, free},
    solves the equality-constrained KKT system on the free set, keeps the
    feasible KKT points, and returns the one with minimum objective as
    (alpha, rho, objective).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    cap = 1.0 / (nu * n)
    Q = X @ X.T
    tol = 1e-9
    best = None

    for assign in itertools.product((0, 1, 2), repeat=n):
        at_cap = [i for i, a in enumerate(assign) if a == 1]
        free = [i for i, a in enumerate(assign) if a == 2]
        alpha = np.zeros(n)
        alpha[at_cap] = cap
        fixed = cap * len(at_cap)

        if free:
            f = len(free)
            kkt = np.zeros((f + 1, f + 1))
            kkt[:f, :f] = Q[np.ix_(free, free)]
            kkt[:f, f] = -1.0
            kkt[f, :f] = 1.0
            rhs = np.zeros(f + 1)
            rhs[:f] = -Q[np.ix_(free, at_cap)] @ alpha[at_cap] if at_cap else 0.0
            rhs[f] = 1.0 - fixed
            try:
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            except np.linalg.LinAlgError:
                continue
            if np.abs(kkt @ sol - rhs).max() > tol:
                continue
            alpha[free] = sol[:f]
            rho = sol[f]
            if np.any(alpha[free] < -tol) or np.any(alpha[free] > cap + tol):
                continue
        else:
            if abs(fixed - 1.0) > tol:
                continue
            g = Q @ alpha
            lo = g[at_cap].max() if at_cap else -np.inf
            zeros = [i for i in range(n) if i not in at_cap]
            hi = g[zeros].min() if zeros else np.inf
            if lo > hi + tol:
                continue
            rho = 0.5 * (max(lo, -1e18) + min(hi, 1e18)) if zeros and at_cap else (lo if at_cap else hi)

        if abs(alpha.sum() - 1.0) > 1e-7:
            continue
        g = Q @ alpha
        ok = True
        for i in range(n):
            if alpha[i] <= tol:  # at zero: g >= rho
                ok &= g[i] >= rho - 1e-7
            elif alpha[i] >= cap - tol:  # at cap: g <= rho
                ok &= g[i] <= rho + 1e-7
            else:  # free: g == rho
                ok &= abs(g[i] - rho) <= 1e-7
        if not ok:
            continue
        obj = 0.5 * float(alpha @ Q @ alpha)
        if best is None or obj < best[2] - 1e-15:
            best = (alpha.copy(), float(rho), obj)

    if best is None:
        raise RuntimeError("oracle found no KKT point (should not happen for feasible nu)")
    return best


def davies_bouldin_oracle(points, labels, centroids):
    """Literal Davies-Bouldin re-implementation on cosine distance."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    k = centroids.shape[0]

    def cosdist(a, b):
        na = a / np.linalg.norm(a)
        nb = b / np.linalg.norm(b)
        return 1.0 - float(na @ nb)

    sigma = []
    for i in range(k):
        members = points[np.asarray(labels) == i]
        sigma.append(np.mean([cosdist(p, centroids[i]) for p in members]))

    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            d = cosdist(centroids[i], centroids[j])
            ratio = np.inf if d == 0 else (sigma[i] + sigma[j]) / d
            worst = max(worst, ratio)
        total += worst
    return total / k


def pair_oracle(slice_img, center, side):
    """Literal (scale1, scale2) crop of one pair: clipped index crops, so
    rows and columns past the border repeat the edge, then a 1x4 mean over
    the 4x-wide crop."""
    img = np.asarray(slice_img)
    r, c = int(center[0]), int(center[1])

    def crop(r0, c0, height, width):
        rows = np.clip(np.arange(r0, r0 + height), 0, img.shape[0] - 1)
        cols = np.clip(np.arange(c0, c0 + width), 0, img.shape[1] - 1)
        return img[np.ix_(rows, cols)]

    scale1 = crop(r - side // 2, c - side // 2, side, side)
    wide = crop(r - side // 2, c - 2 * side, side, 4 * side)
    scale2 = wide.reshape(side, side, 4).mean(axis=2)
    return scale1.astype(np.float32), scale2.astype(np.float32)


# The DCAE as it was written before its autoencoders became Networks and its
# two training loops one: layer loops on a bare tape and two literal
# momentum-SGD loops. The model code must reproduce them bit for bit.
SCALE_ENCODER_LAYERS = 11  # conv, elu, dropout, pool, reshape, 2 x (dense, elu, dropout)
FUSION_ENCODER_LAYERS = 2  # dense, elu


def encode_oracle(layers, batch):
    """Inference-mode pass of `batch` through `layers`, one layer at a time."""
    x = batch
    tape = GradTape(owner=None)
    for layer in layers:
        x = layer.forward(x, tape, False, None)
    return x


def _scale_codes_oracle(model, scale1, scale2):
    z1 = encode_oracle(model.scale1.layers[:SCALE_ENCODER_LAYERS], scale1[..., None])
    z2 = encode_oracle(model.scale2.layers[:SCALE_ENCODER_LAYERS], scale2[..., None])
    return np.concatenate([z1, z2], axis=1)


def embed_oracle(model, scale1, scale2, batch=512):
    """Fusion hidden layer over per-batch concatenated scale codes."""
    outs = []
    for start in range(0, len(scale1), batch):
        codes = _scale_codes_oracle(model, scale1[start : start + batch],
                                    scale2[start : start + batch])
        outs.append(encode_oracle(model.fusion.layers[:FUSION_ENCODER_LAYERS], codes))
    return np.concatenate(outs, axis=0)


def train_scales_oracle(model, dataset, hyper, rng):
    """Joint momentum SGD of both scale nets; returns the (epoch, mean loss) log."""
    n = len(dataset)
    x1 = dataset.scale1[..., None]
    x2 = dataset.scale2[..., None]
    params = model.scale1.params() + model.scale2.params()
    velocity = None
    bs = hyper.batch_size
    log = []
    for epoch in range(hyper.epochs):
        order = rng.derive(1000 + epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, bs)):
            idx = order[start : start + bs]
            step_rng = rng.derive(epoch * 100_000 + bi)
            b1, b2 = x1[idx], x2[idx]
            out1, tape1 = model.scale1.forward(b1, True, step_rng.derive(1))
            out2, tape2 = model.scale2.forward(b2, True, step_rng.derive(2))
            loss1, loss2 = mse(b1, out1), mse(b2, out2)
            g1 = model.scale1.backward(tape1, mse_grad(b1, out1))
            g2 = model.scale2.backward(tape2, mse_grad(b2, out2))
            new_params, velocity = sgd_step(params, g1 + g2, hyper.lr, hyper.momentum,
                                            velocity)
            for p, q in zip(params, new_params):
                p[...] = q
            losses.append(0.5 * (loss1 + loss2))
        log.append((epoch, float(np.mean(losses))))
    return log


def train_fusion_oracle(model, dataset, hyper, rng):
    """Masking-noise momentum SGD of the fusion net on frozen scale codes;
    returns the (epoch, mean loss) log."""
    clean = np.concatenate(
        [_scale_codes_oracle(model, dataset.scale1[start : start + 512],
                             dataset.scale2[start : start + 512])
         for start in range(0, len(dataset), 512)], axis=0).astype(np.float32)
    n = clean.shape[0]
    params = model.fusion.params()
    velocity = None
    bs = hyper.batch_size
    log = []
    for epoch in range(hyper.fusion_epochs):
        order = rng.derive(2_000_000 + epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, bs)):
            target = clean[order[start : start + bs]]
            step_rng = rng.derive(3_000_000 + epoch * 100_000 + bi)
            if hyper.corruption > 0:
                keep = step_rng.random(target.shape) >= hyper.corruption
                corrupted = target * keep.astype(target.dtype)
            else:
                corrupted = target
            out, tape = model.fusion.forward(corrupted, training=True)
            grads = model.fusion.backward(tape, mse_grad(target, out))
            new_params, velocity = sgd_step(params, grads, hyper.lr, hyper.momentum, velocity)
            for p, q in zip(params, new_params):
                p[...] = q
            losses.append(mse(target, out))
        log.append((epoch, float(np.mean(losses))))
    return log
