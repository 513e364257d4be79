"""Independent brute-force oracles used only by the test suite.

The tests compare the code with these oracles by `np.array_equal`. Which of
those equalities hold depends on OpenBLAS's sgemm kernel, which the CI job
prints:
- On every kernel, the equalities whose two sides run sgemm on the same
  operands: the crops (`pair_oracle`); the pool, unpool, ELU, dropout and
  im2col kernels; `window_max` against `maxpool`; the encoders' inference
  plan against their inference forward; the scale autoencoders' training
  against `train_scales_oracle`; the fusion DAE's training against
  `train_fusion_oracle` fed the map path's codes; and every stage that calls
  no sgemm.
- Only on an sgemm whose row results depend neither on the row's place in
  the batch nor on the batch's row count: `dcae.embed_dataset` and its codes
  against `embed_oracle` and `scale_codes_oracle`, and the fusion DAE's
  training against `train_fusion_oracle` on the crops' codes. The encoder
  convolves a whole slice map where the oracle convolves each crop, and the
  oracle batches the Dense layers by its own `batch`.
  OpenBLAS's SkylakeX kernel meets both conditions for batches of more than
  6 rows at the desk preset's 1,152-wide Dense input, and of more than 1 row
  at 128 inputs or fewer. Its Haswell (AVX2) kernel gives a row other low
  bits unless the batch's row count is a multiple of 12.

`sgemm_rows_independent` probes the running kernel for both conditions at
given widths and row counts. Where it fails,
`tests/test_dcae.py::test_matches_the_written_out_loops` asserts the
every-kernel equalities and compares the codes and z with the crops' within
a bound derived from float32 rounding (`test_dcae._float32_bound`).
"""

import itertools

import numpy as np
from scipy import ndimage, sparse
from scipy.interpolate import CubicSpline
from scipy.sparse.csgraph import connected_components

from anomkit import cluster, dcae, phantom, preprocess
from anomkit.errors import DimensionError, GenerationError, ParameterError, SegmentationError
from anomkit.numcore import GradTape, mse, mse_grad
from anomkit.numcore.ops import PoolSwitches
from anomkit.rng import Rng

from helpers import one_record


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


def superpixel_records_oracle(labels, slice_index, surfaces):
    """`Superpixel` records of one slice's [H, W] label map, as they were built
    one slice at a time: id order, raster-order pixels, in-retina at the
    half-to-even rounded centroid column. Each record reads a table of its own."""
    w = labels.shape[1]
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_lab = flat[order]
    ids, starts, counts = np.unique(sorted_lab, return_index=True, return_counts=True)
    rows, cols = order // w, order % w
    centroid_r = np.bincount(sorted_lab, weights=rows)[ids] / counts
    centroid_c = np.bincount(sorted_lab, weights=cols)[ids] / counts
    col = np.clip(np.rint(centroid_c), 0, w - 1).astype(np.int64)
    in_retina = ((surfaces.top[slice_index, col] <= centroid_r)
                 & (centroid_r <= surfaces.bottom[slice_index, col]))
    return [
        one_record(rows[a:b], cols[a:b], id=lab, slice_index=slice_index, centroid=(r, c),
                   shape=labels.shape, in_retina=inside)
        for lab, a, b, r, c, inside in zip(
            ids.tolist(), starts.tolist(), (starts + counts).tolist(),
            centroid_r.tolist(), centroid_c.tolist(), in_retina.tolist())
    ]


def _min_cost_path_oracle(cost, bound):
    """One slice's min-cost left-to-right path, one DP column at a time; ties
    go to the smallest row offset, then the smallest row."""
    h, w = cost.shape
    dist = np.empty((h, w))
    dist[:, 0] = cost[:, 0]
    back = np.zeros((h, w), dtype=np.int8)
    offsets = list(range(-bound, bound + 1))
    stack = np.empty((len(offsets), h))
    for c in range(1, w):
        prev = dist[:, c - 1]
        stack.fill(np.inf)
        for oi, dr in enumerate(offsets):
            if dr > 0:
                stack[oi, : h - dr] = prev[dr:]
            elif dr < 0:
                stack[oi, -dr:] = prev[:dr]
            else:
                stack[oi] = prev
        best = np.argmin(stack, axis=0)
        dist[:, c] = cost[:, c] + stack[best, np.arange(h)]
        back[:, c] = np.asarray(offsets, dtype=np.int8)[best]
        if not np.isfinite(dist[:, c]).any():
            raise SegmentationError(f"no path within smoothness bound at column {c}")
    if not np.isfinite(dist[:, -1]).any():
        raise SegmentationError("no finite-cost path")
    path = np.empty(w, dtype=np.int64)
    r = int(np.argmin(dist[:, -1]))
    path[-1] = r
    for c in range(w - 1, 0, -1):
        r = r + int(back[r, c])
        path[c - 1] = r
    return path


def segment_surfaces_oracle(volume_data):
    """Top and bottom surfaces found one slice at a time, as `segment_surfaces`
    did before it searched the whole volume at once."""
    vol = np.asarray(volume_data, dtype=np.float64)
    if vol.ndim != 3:
        raise DimensionError(f"volume must be [slices, H, W], got {vol.shape}")
    n_slices, h, w = vol.shape
    if h < 8:
        raise DimensionError(f"need at least 8 rows per column, got {h}")
    top = np.empty((n_slices, w), dtype=np.int64)
    bottom = np.empty((n_slices, w), dtype=np.int64)
    for s in range(n_slices):
        img = ndimage.uniform_filter(vol[s], size=preprocess.SMOOTH_WINDOW, mode="nearest")
        grad = np.gradient(img, axis=0)
        if np.abs(grad).max() < 1e-9:
            raise SegmentationError(f"slice {s}: no gradient evidence (constant image)")
        top[s] = _min_cost_path_oracle(-grad, preprocess.SMOOTHNESS)
        cost_bottom = grad.copy()
        cost_bottom[np.arange(h)[:, None] < top[s][None, :] + preprocess.MIN_GAP] = np.inf
        bottom[s] = _min_cost_path_oracle(cost_bottom, preprocess.SMOOTHNESS)
    return preprocess.SurfacePair(top=top, bottom=bottom)


def connected_regions_oracle(labels):
    """(count, map) of the 4-connected same-label components, from a sparse
    pixel graph and scipy's `connected_components`, which numbers them in
    raster order of their first pixel as `_connected_regions` does with
    numpy alone. The oracles keep scipy; the package does not import it."""
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    edges_r = labels[:, :-1] == labels[:, 1:]
    edges_d = labels[:-1, :] == labels[1:, :]
    src = np.concatenate([idx[:, :-1][edges_r].ravel(), idx[:-1, :][edges_d].ravel()])
    dst = np.concatenate([idx[:, 1:][edges_r].ravel(), idx[1:, :][edges_d].ravel()])
    graph = sparse.coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(h * w, h * w)
    )
    n_comp, comp = connected_components(graph, directed=False)
    return n_comp, comp.reshape(h, w)


def slic_oracle(slice_img):
    """`slic_superpixels` as it was, recomputing each pixel's candidate centres
    and their validity in every iteration."""
    img = np.asarray(slice_img, dtype=np.float64)
    h, w = img.shape
    step = preprocess.STEP
    if h <= step or w <= step:
        return np.zeros((h, w), dtype=np.int64)
    grid_rows = np.arange(step // 2, h, step)
    grid_cols = np.arange(step // 2, w, step)
    gr, gc = len(grid_rows), len(grid_cols)
    c_row = np.repeat(grid_rows, gc).astype(np.float64)
    c_col = np.tile(grid_cols, gr).astype(np.float64)
    c_int = img[c_row.astype(int), c_col.astype(int)].copy()
    rr, cc = np.mgrid[0:h, 0:w]
    cell_r = np.clip(rr // step, 0, gr - 1)
    cell_c = np.clip(cc // step, 0, gc - 1)
    spatial_w = (preprocess.COMPACTNESS / step) ** 2
    labels = (cell_r * gc + cell_c).astype(np.int64)
    offsets = [(0, 0)] + [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    for _ in range(preprocess.N_ITER):
        best_d = np.full((h, w), np.inf)
        best_l = labels.copy()
        for dr, dc in offsets:
            nr = cell_r + dr
            nc = cell_c + dc
            ok = (nr >= 0) & (nr < gr) & (nc >= 0) & (nc < gc)
            cand = np.where(ok, nr * gc + nc, 0)
            d = (img - c_int[cand]) ** 2 + spatial_w * (
                (rr - c_row[cand]) ** 2 + (cc - c_col[cand]) ** 2
            )
            d = np.where(ok, d, np.inf)
            better = d < best_d
            best_d = np.where(better, d, best_d)
            best_l = np.where(better, cand, best_l)
        labels = best_l
        counts = np.bincount(labels.ravel(), minlength=gr * gc)
        sums_i = np.bincount(labels.ravel(), weights=img.ravel(), minlength=gr * gc)
        sums_r = np.bincount(labels.ravel(), weights=rr.ravel(), minlength=gr * gc)
        sums_c = np.bincount(labels.ravel(), weights=cc.ravel(), minlength=gr * gc)
        nz = counts > 0
        c_int[nz] = sums_i[nz] / counts[nz]
        c_row[nz] = sums_r[nz] / counts[nz]
        c_col[nz] = sums_c[nz] / counts[nz]
    return preprocess._enforce_connectivity(labels)


# The DCAE as it was written before its autoencoders became Networks and its
# two training loops one: layer loops on a bare tape and two literal
# momentum-SGD loops, whose step is the out-of-place one that allocated new
# velocity and parameter arrays and copied them back. The model code must
# reproduce them bit for bit.
SCALE_ENCODER_LAYERS = 11  # conv, elu, dropout, pool, reshape, 2 x (dense, elu, dropout)
FUSION_ENCODER_LAYERS = 2  # dense, elu


def encode_oracle(layers, batch):
    """Inference-mode pass of `batch` through `layers`, one layer at a time."""
    x = batch
    tape = GradTape(owner=None)
    for layer in layers:
        x = layer.forward(x, tape, False, None)
    return x


def scale_codes_oracle(model, scale1, scale2):
    """[n, 2 * code_dim] scale-1 then scale-2 codes of the crops, in one batch."""
    z1 = encode_oracle(model.scale1.layers[:SCALE_ENCODER_LAYERS], scale1[..., None])
    z2 = encode_oracle(model.scale2.layers[:SCALE_ENCODER_LAYERS], scale2[..., None])
    return np.concatenate([z1, z2], axis=1)


def embed_oracle(model, scale1, scale2, batch=512):
    """Fusion hidden layer over per-batch concatenated scale codes."""
    outs = []
    for start in range(0, len(scale1), batch):
        codes = scale_codes_oracle(model, scale1[start : start + batch],
                                   scale2[start : start + batch])
        outs.append(encode_oracle(model.fusion.layers[:FUSION_ENCODER_LAYERS], codes))
    return np.concatenate(outs, axis=0)


def sgemm_rows_independent(widths, row_counts, places=32):
    """Whether float32 matmul gives every row the same bits whatever the
    batch's row count and the row's place in it, at each (inputs, outputs)
    width pair of `widths` and each row count of `row_counts`.

    Each batch of m rows, starting at each of the first `places` rows of one
    random matrix, must equal the same rows of that whole matrix's product.
    The matrix has max(row_counts) + places rows, so the whole product is a
    further row count, and a batch's row i sits at place i in it and at place
    start + i in the whole product.
    """
    rng = np.random.default_rng(0)
    rows = max(row_counts) + places
    for inputs, outputs in widths:
        a = rng.standard_normal((rows, inputs), dtype=np.float32)
        w = rng.standard_normal((inputs, outputs), dtype=np.float32)
        whole = a @ w
        for m in row_counts:
            for start in range(places):
                if not np.array_equal(a[start : start + m] @ w, whole[start : start + m]):
                    return False
    return True


def backward_oracle(net, tape, grad_out):
    """Backward through every layer; returns the parameter gradients in
    params() order."""
    grad = grad_out
    for layer in reversed(net.layers):
        grad = layer.backward(grad, tape)
    return [g for layer in net.layers for g in tape.grads.get(id(layer), ())]


def momentum_step_oracle(params, grads, lr, momentum, velocity):
    """The out-of-place momentum step: new velocity momentum*v - lr*g cast to
    the parameter dtype, copied into each parameter as p + v. Returns the
    new velocity list; `velocity` None starts from zeros."""
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    new_velocity = []
    for p, g, v in zip(params, grads, velocity):
        v = (momentum * v - lr * g).astype(p.dtype, copy=False)
        new_velocity.append(v)
        p[...] = p + v
    return new_velocity


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
            out1, tape1 = model.scale1.forward(b1, step_rng.derive(1))
            out2, tape2 = model.scale2.forward(b2, step_rng.derive(2))
            loss1, loss2 = mse(b1, out1), mse(b2, out2)
            g1 = backward_oracle(model.scale1, tape1, mse_grad(b1, out1))
            g2 = backward_oracle(model.scale2, tape2, mse_grad(b2, out2))
            velocity = momentum_step_oracle(params, g1 + g2, hyper.lr, dcae.MOMENTUM,
                                            velocity)
            losses.append(0.5 * (loss1 + loss2))
        log.append((epoch, float(np.mean(losses))))
    return log


def train_fusion_oracle(model, dataset, hyper, rng, codes=None):
    """Masking-noise momentum SGD of the fusion net on frozen scale codes;
    returns the (epoch, mean loss) log. The codes are `codes` when given,
    else the crops' codes in 512-row batches."""
    if codes is None:
        codes = np.concatenate(
            [scale_codes_oracle(model, dataset.scale1[start : start + 512],
                                dataset.scale2[start : start + 512])
             for start in range(0, len(dataset), 512)], axis=0)
    clean = np.asarray(codes, dtype=np.float32)
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
            keep = step_rng.random(target.shape) >= dcae.CORRUPTION
            corrupted = target * keep.astype(target.dtype)
            out, tape = model.fusion.forward(corrupted)
            grads = backward_oracle(model.fusion, tape, mse_grad(target, out))
            velocity = momentum_step_oracle(params, grads, hyper.lr, dcae.MOMENTUM, velocity)
            losses.append(mse(target, out))
        log.append((epoch, float(np.mean(losses))))
    return log


# The pooling and ELU kernels as they were before they became branch-free:
# argmax over a transposed copy, put/take_along_axis on a zero-filled window
# buffer, and np.where. The kernels must match them value for value.


def maxpool_oracle(x, p):
    """p*p max pooling with stride p; trailing rows/cols beyond p*(dim//p) drop.

    Returns (pooled, switches). Ties break to the lowest flat in-window index.
    """
    if p < 1:
        raise ParameterError(f"pool size must be >= 1, got {p}")
    xb = np.asarray(x)
    n, h, w, c = xb.shape
    if h < p or w < p:
        raise DimensionError(f"input {h}x{w} smaller than pool {p}")
    h2, w2 = h // p, w // p
    win = xb[:, : h2 * p, : w2 * p, :].reshape(n, h2, p, w2, p, c)
    win = win.transpose(0, 1, 3, 2, 4, 5).reshape(n, h2, w2, p * p, c)
    idx = win.argmax(axis=3)  # first max -> lowest flat index
    out = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, PoolSwitches(index=idx, pool=p, in_shape=(h, w, c))


def unpool_oracle(x, switches):
    """Place each value at its recorded argmax position; zeros elsewhere."""
    xb, idx = np.asarray(x), switches.index
    if xb.shape != idx.shape:
        raise DimensionError(f"input {xb.shape} does not match switches {idx.shape}")
    p = switches.pool
    h, w, c = switches.in_shape
    n, h2, w2, _ = xb.shape
    if (h2, w2) != (h // p, w // p):
        raise DimensionError(f"input {h2}x{w2} inconsistent with pooled {h}x{w} / {p}")
    win = np.zeros((n, h2, w2, p * p, c), dtype=xb.dtype)
    np.put_along_axis(win, idx[:, :, :, None, :], xb[:, :, :, None, :], axis=3)
    out = np.zeros((n, h, w, c), dtype=xb.dtype)
    blocks = win.reshape(n, h2, w2, p, p, c).transpose(0, 1, 3, 2, 4, 5)
    out[:, : h2 * p, : w2 * p, :] = blocks.reshape(n, h2 * p, w2 * p, c)
    return out


def unpool_backward_oracle(grad_out, switches):
    """Gather the gradient sitting at each recorded argmax position."""
    gb, idx = np.asarray(grad_out), switches.index
    p = switches.pool
    h, w, c = switches.in_shape
    n = gb.shape[0]
    h2, w2 = h // p, w // p
    win = np.zeros((n, h2, w2, p, p, c), dtype=gb.dtype)
    win[...] = (
        gb[:, : h2 * p, : w2 * p, :].reshape(n, h2, p, w2, p, c).transpose(0, 1, 3, 2, 4, 5)
    )
    win = win.reshape(n, h2, w2, p * p, c)
    return np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]


def elu_oracle(x):
    """Exponential linear unit: v if v > 0 else exp(v) - 1."""
    x = np.asarray(x)
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)).astype(x.dtype))


def elu_backward_oracle(grad_out, x):
    """ELU gradient: 1 where v > 0, exp(v) elsewhere."""
    x = np.asarray(x)
    deriv = np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
    return (grad_out * deriv).astype(np.asarray(grad_out).dtype)


# The conv layers' gradient ops as they were before Deconv2D's gradients
# became Conv2D's ops: a two-output conv parameter gradient and a dedicated
# deconv backward, on their own im2col view. The layers must reproduce them
# bit for bit.


def _im2col_oracle(x, k):
    """[N,H,W,C] -> [N, H-k+1, W-k+1, k*k*C] sliding-window view."""
    n, h, w, c = x.shape
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, (n, h - k + 1, w - k + 1, k, k, c), (s[0], s[1], s[2], s[1], s[2], s[3]),
        writeable=False,
    )
    return view.reshape(n, h - k + 1, w - k + 1, k * k * c)


def conv2d_param_grads_oracle(grad_out, x, kernels):
    """(grad_kernels, grad_bias) of conv2d_forward."""
    xb, gb = np.asarray(x), np.asarray(grad_out)
    k, _, cin, cout = kernels.shape
    cols = _im2col_oracle(xb, k).reshape(-1, k * k * cin)
    gflat = gb.reshape(-1, cout)
    return (cols.T @ gflat).reshape(kernels.shape), gflat.sum(axis=0)


def deconv2d_backward_oracle(grad_out, x, kernels):
    """Gradients of deconv2d: returns (grad_x, grad_kernels)."""
    xb, gb = np.asarray(x), np.asarray(grad_out)
    k, _, cin, cout = kernels.shape
    grad_x = _im2col_oracle(gb, k) @ kernels.reshape(-1, cout)  # conv2d_forward(gb, K, 0)[0]
    grad_x += np.zeros(cout, dtype=kernels.dtype)
    # grad_K[a,b,c,o] = sum_{n,i,j} x[n,i,j,o] * grad_out[n,i+a,j+b,c]
    cols = _im2col_oracle(gb, k).reshape(-1, k * k * cin)  # positions align with x
    grad_k = (cols.T @ xb.reshape(-1, cout)).reshape(k, k, cin, cout)
    return grad_x, grad_k


# The phantom renderer as it was written before it became whole-volume
# arrays: slice-by-slice layers, column-by-column deformation labels, fluid
# lifts and lenses, and the ellipse grid rebuilt on each cyst attempt. It
# reads the module constants that replaced the config's appearance fields.
# The renderer must reproduce it bit for bit, errors included.


def _smooth_curve_oracle(rng, length, n_ctrl, amplitude):
    xs = np.linspace(0, length - 1, n_ctrl)
    ys = rng.uniform(-amplitude, amplitude, size=n_ctrl)
    return CubicSpline(xs, ys)(np.arange(length))


def phantom_oracle(config):
    """(Volume, GroundTruth) of `config`, rendered one slice and column at a time."""
    P = phantom
    config.validate()
    rng = Rng(config.seed)
    w, h, s = config.width, config.height, config.n_slices
    u_top = _smooth_curve_oracle(rng, w, P.BOUNDARY_CONTROL_POINTS, P.BOUNDARY_AMPLITUDE)
    u_bot = _smooth_curve_oracle(rng, w, P.BOUNDARY_CONTROL_POINTS, P.BOUNDARY_AMPLITUDE)
    drift_top = _smooth_curve_oracle(rng, s, min(s, 4), P.SLICE_DRIFT) if s > 1 else np.zeros(s)
    drift_bot = _smooth_curve_oracle(rng, s, min(s, 4), P.SLICE_DRIFT) if s > 1 else np.zeros(s)
    top = P.TOP_FRAC * h + u_top[None, :] + drift_top[:, None]
    bottom = P.BOTTOM_FRAC * h + u_bot[None, :] + drift_bot[:, None]
    top = np.clip(np.round(top), 2, h - 10).astype(np.int64)
    bottom = np.clip(np.round(bottom), 0, h - 3).astype(np.int64)
    min_band = max(12, int(0.25 * (P.BOTTOM_FRAC - P.TOP_FRAC) * h))
    bottom = np.maximum(bottom, top + min_band)
    for sl in range(s):
        for c in range(w):
            if bottom[sl, c] >= h:
                raise GenerationError(f"retina band reaches row {bottom.max()}, below a volume "
                                      f"of height {h}")
    labels = np.zeros((s, h, w), dtype=np.uint8)

    specs = []
    for spec in config.anomalies:
        n = int(rng.integers(spec.count[0], spec.count[1] + 1))
        specs.extend([spec] * n)
    pre_top = top.copy()
    deform_jobs = [sp for sp in specs if sp.kind == "surface_deformation"]
    fluid_jobs = [sp for sp in specs if sp.kind == "subsurface_fluid"]
    cyst_specs = [sp for sp in specs if sp.kind == "cyst_blob"]
    claimed = np.zeros((s, w), dtype=bool)

    def place_window(spec):
        size = int(rng.integers(spec.size[0], spec.size[1] + 1))
        for _ in range(60):
            ext = int(rng.integers(2, max(3, s // 2) + 1)) if s > 2 else s
            s0 = int(rng.integers(0, max(1, s - ext + 1)))
            c0 = int(rng.integers(2, max(3, w - size - 2)))
            if not claimed[s0 : s0 + ext, max(0, c0 - 2) : c0 + size + 2].any():
                claimed[s0 : s0 + ext, c0 : c0 + size] = True
                return s0, ext, c0, size
        raise GenerationError(f"could not place {spec.kind} (size range {spec.size})")

    for spec in deform_jobs:
        s0, ext, c0, size = place_window(spec)
        height_b = max(3, size // 3)
        cs = np.arange(c0, c0 + size)
        bump = np.round(height_b * np.cos(np.pi * (cs - (c0 + size / 2)) / size) ** 2).astype(int)
        for si in range(s0, s0 + ext):
            new_top = np.maximum(top[si, cs] - bump, 2)
            for c, nt, bp in zip(cs, new_top, bump):
                if nt < pre_top[si, c]:
                    lo_end = min(pre_top[si, c] + bp // 2, bottom[si, c])
                    labels[si, nt:lo_end, c] = P.TYPE_DEFORMATION
            top[si, cs] = new_top

    fluid_regions = []
    for spec in fluid_jobs:
        s0, ext, c0, size = place_window(spec)
        h0 = max(3, size // 3)
        cs = np.arange(c0, c0 + size)
        rel = 2.0 * (cs - (c0 + size / 2.0)) / size
        lift = np.round(h0 * np.sqrt(np.maximum(0.0, 1.0 - rel**2))).astype(int)
        fluid_regions.append((s0, ext, cs, lift))

    fractions = np.asarray(P.LAYER_FRACTIONS, dtype=np.float64)
    cum = np.cumsum(fractions) / fractions.sum()
    vol = np.empty((s, h, w), dtype=np.float64)
    rows = np.arange(h)[:, None]
    for si in range(s):
        t, b = top[si][None, :], bottom[si][None, :]
        img = np.full((h, w), P.VITREOUS_INTENSITY)
        img[rows.repeat(w, 1) > b.repeat(h, 0)] = P.BELOW_INTENSITY
        bounds = [t]
        for f in cum[:-1]:
            bounds.append(np.round(t + f * (b - t)).astype(int))
        bounds.append(b + 1)
        for (fs0, fext, cs, lift) in fluid_regions:
            if fs0 <= si < fs0 + fext:
                for k, f in enumerate(cum[:-1], start=1):
                    bounds[k][0, cs] = np.maximum(
                        bounds[k][0, cs] - np.round(lift * f).astype(int), t[0, cs] + 1
                    )
        for k, inten in enumerate(P.LAYER_INTENSITIES):
            m = (rows >= bounds[k]) & (rows < bounds[k + 1])
            img[m] = inten
        vol[si] = img

    for (fs0, fext, cs, lift) in fluid_regions:
        for si in range(fs0, fs0 + fext):
            for c, lf in zip(cs, lift):
                if lf < 1:
                    continue
                r1 = bottom[si, c] - 2
                r0 = max(top[si, c] + 1, r1 - lf)
                if r0 < r1:
                    vol[si, r0:r1, c] = P.FLUID_INTENSITY
                    r_displaced = max(top[si, c] + 1, r0 - lf)
                    labels[si, r_displaced:r1, c] = P.TYPE_FLUID

    for spec in cyst_specs:
        size = int(rng.integers(spec.size[0], spec.size[1] + 1))
        a, b_ax = max(3, size // 2), max(2, size // 4)
        placed = False
        for _ in range(60):
            ext = int(rng.integers(2, max(3, s // 2) + 1)) if s > 2 else s
            s0 = int(rng.integers(0, max(1, s - ext + 1)))
            c_mid = int(rng.integers(a + 2, w - a - 2))
            t_here = int(top[s0 : s0 + ext, c_mid].max())
            b_here = int(bottom[s0 : s0 + ext, c_mid].min())
            band = b_here - t_here
            lo = t_here + max(b_ax + 2, int(0.25 * band))
            hi = min(t_here + int(0.80 * band), b_here - b_ax - 2)
            if hi <= lo:
                continue
            r_mid = int(rng.integers(lo, hi + 1))
            rr, cc = np.mgrid[0:h, 0:w]
            ell = ((rr - r_mid) / b_ax) ** 2 + ((cc - c_mid) / a) ** 2 <= 1.0
            if labels[s0 : s0 + ext][:, ell].any():
                continue
            for si in range(s0, s0 + ext):
                vol[si][ell] = P.CYST_INTENSITY
                labels[si][ell] = P.TYPE_CYST
            placed = True
            break
        if not placed:
            raise GenerationError(f"could not place cyst_blob (size range {spec.size})")

    vol *= 1.0 + rng.uniform(-P.SPECKLE, P.SPECKLE, size=vol.shape)
    return (P.Volume(data=vol.astype(np.float32)),
            P.GroundTruth(labels=labels, top=top, bottom=bottom))


# The fitting stages as they were written with per-row and per-cluster loops:
# k-means centroid sums by `np.add.at`, empty clusters re-seeded one at a
# time, Davies-Bouldin as a double loop with a running sum, and PCA's sign
# rule applied component by component. The array code must reproduce them
# bit for bit.


def _unit_rows_oracle(x):
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=-1)[..., None]


def spherical_kmeans_oracle(features, k, rng, restarts=5, max_iter=100):
    """(centroids, assignment, objective) of best-of-restarts spherical k-means."""
    xu = _unit_rows_oracle(features)
    n = xu.shape[0]
    best = None
    for r in range(restarts):
        cents = cluster._kmeanspp_init(xu, k, rng.derive(r))
        assignment = None
        for _ in range(max_iter):
            sims = xu @ cents.T
            new_assign = np.argmax(sims, axis=1)
            own = sims[np.arange(n), new_assign]
            counts = np.bincount(new_assign, minlength=k)
            if np.any(counts == 0):
                own_mut = own.copy()
                for c in np.nonzero(counts == 0)[0]:
                    worst = int(np.argmin(own_mut))
                    cents[c] = xu[worst]
                    own_mut[worst] = np.inf
                sims = xu @ cents.T
                new_assign = np.argmax(sims, axis=1)
                own = sims[np.arange(n), new_assign]
            objective = float(own.sum())
            if assignment is not None and np.array_equal(new_assign, assignment):
                assignment = new_assign
                break
            assignment = new_assign
            sums = np.zeros_like(cents)
            np.add.at(sums, assignment, xu)
            norms = np.linalg.norm(sums, axis=1)
            nz = norms > 1e-15
            cents[nz] = sums[nz] / norms[nz, None]
        if best is None or objective > best[2] + 1e-12:
            best = (cents, assignment, objective)
    return best


def davies_bouldin_loop_oracle(features, assignment, centroids):
    """Davies-Bouldin under cosine distance, summed over clusters in order."""
    xu = _unit_rows_oracle(features)
    cu = _unit_rows_oracle(centroids)
    assignment = np.asarray(assignment)
    k = cu.shape[0]
    counts = np.bincount(assignment, minlength=k)
    dist_to_own = 1.0 - np.einsum("ij,ij->i", xu, cu[assignment])
    sigma = np.bincount(assignment, weights=dist_to_own, minlength=k) / counts
    sep = 1.0 - cu @ cu.T
    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            if sep[i, j] < 1e-12:
                ratio = np.inf
            else:
                ratio = (sigma[i] + sigma[j]) / sep[i, j]
            worst = max(worst, ratio)
        total += worst
    return float(total / k)


def pca_fit_oracle(data, k):
    """(mean, components) of PCA: every eigenvector signed, then the top k kept."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, np.argsort(eigvals)[::-1]].T.copy()
    for i, v in enumerate(components):
        scale = np.abs(v).max()
        if scale == 0:
            continue
        nz = np.nonzero(np.abs(v) > 1e-12 * scale)[0]
        if nz.size and v[nz[0]] < 0:
            components[i] = -v
    return mean, components[:k]
