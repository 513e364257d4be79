"""Linear one-class SVM (nu formulation) for healthy-distribution boundaries.

The dual

    minimize    1/2 * sum_ij alpha_i alpha_j <x_i, x_j>
    subject to  0 <= alpha_i <= 1/(nu*n),  sum_i alpha_i = 1

is solved by coordinate-pair descent on the maximal violating pair, keeping
the equality constraint satisfied at every step. With the linear kernel,
every step recomputes the weight vector w = sum_i alpha_i x_i and the scores
X w from alpha, two O(n*d) products, so the stopping test reads the scores
of the alpha it returns. The solution carries those scores, and `fit_ocsvm`
takes rho and the degenerate-fit check from them.

Features are standardized by per-dimension scale (1/std) before fitting.
The scale-only choice is deliberate: dividing by the spread removes kernel
scale sensitivity, while subtracting the mean would centre the training
cloud on the origin and collapse the origin-separating boundary to w = 0.
A correct nu-solution flags at most nu*n training vectors plus about d free
support vectors, so a fit that flags more than nu + d/n of its training set
is degenerate (a cloud around the origin) and raises FittingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConvergenceError, DimensionError, FittingError, InputError, UsageError

@dataclass
class DualSolution:
    alpha: np.ndarray  # [n]
    w: np.ndarray  # [d] = X^T alpha
    scores: np.ndarray  # [n] = X w, the scores the last stopping test read
    kkt_violation: float
    n_iter: int


def solve_nu_dual(X, nu, tol=1e-8, max_iter=200_000) -> DualSolution:
    """Solve the nu one-class dual on raw row vectors X [n, d]."""
    X = as_feature_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 training vectors, got {n}")
    if not 0.0 < nu <= 1.0:
        raise InputError(f"nu must be in (0, 1], got {nu}")

    cap = 1.0 / (nu * n)
    alpha = np.full(n, 1.0 / n)

    violation = np.inf  # reported when max_iter < 1
    for it in range(1, max_iter + 1):
        w = X.T @ alpha
        g = X @ w
        gi = np.where(alpha < cap * (1.0 - 1e-12), g, np.inf)  # room to grow
        gj = np.where(alpha > cap * 1e-12, g, -np.inf)  # room to shrink
        i = int(np.argmin(gi))
        j = int(np.argmax(gj))
        # below 0: strictly optimal; 0 also when no alpha can grow (nu = 1)
        violation = max(float(gj[j] - gi[i]), 0.0)
        if violation <= tol:
            break
        diff = X[i] - X[j]
        denom = float(diff @ diff)
        if denom > 1e-300:
            step = violation / denom
        else:
            step = np.inf  # duplicate points: slide to a bound
        step = min(step, cap - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
    else:
        raise ConvergenceError(
            f"nu-dual did not reach tol={tol} in {max_iter} iterations "
            f"(final KKT violation {violation:.3e})"
        )

    return DualSolution(alpha=alpha, w=w, scores=g, kkt_violation=violation, n_iter=it)


def _rho(g, alpha, nu):
    """(rho, number of free support vectors) from the training scores g = X w.
    rho is the median of g over the free support vectors, else in [max g at the
    cap, min g at zero], where the primal objective's slope in rho is
    k/(nu*n) - 1 for k alphas at the cap: the lower end when k > nu*n, the
    upper end when k < nu*n, the midpoint when k = nu*n."""
    n = g.shape[0]
    cap = 1.0 / (nu * n)
    margin = cap * 1e-8
    free = (alpha > margin) & (alpha < cap - margin)
    if free.any():
        return float(np.median(g[free])), int(np.count_nonzero(free))
    at_cap = alpha >= cap - margin
    at_zero = alpha <= margin
    k = int(np.count_nonzero(at_cap))
    candidates = []
    if k and k >= nu * n:
        candidates.append(float(g[at_cap].max()))
    if at_zero.any() and k <= nu * n:
        candidates.append(float(g[at_zero].min()))
    return float(np.mean(candidates)), 0


@dataclass
class OcSvmModel:
    """Linear boundary w.x' - rho on standardized features x' = (x - offset)/scale.

    offset is zero except on zero-variance dimensions, which are shifted to
    exactly 0 (and get scale 1) so constant feature dims contribute nothing.
    """

    w: np.ndarray  # [d]
    rho: float
    nu: float
    offset: np.ndarray  # [d]
    scale: np.ndarray  # [d] per-dimension divisor
    kkt_violation: float = 0.0
    n_iter: int = 0
    free_support_vectors: int = 0  # 0: rho came from the bound candidates

    def standardize(self, x):
        return (np.asarray(x, dtype=np.float64) - self.offset) / self.scale


def as_feature_matrix(features):
    """The [n, d] float64 matrix of `features`."""
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionError(f"features must form an [n, d] matrix, got {mat.shape}")
    return mat


def fit_ocsvm(features, nu=0.1, tol=1e-8, max_iter=200_000) -> OcSvmModel:
    """Fit the boundary on healthy-training features."""
    X = as_feature_matrix(features)
    n, d = X.shape
    if n < 2:
        raise InputError(f"need at least 2 training features, got {n}")
    if not np.all(np.isfinite(X)):
        raise InputError("training features contain non-finite values")

    scale = X.std(axis=0)
    mean = X.mean(axis=0)
    constant = scale <= 1e-12 * np.maximum(1.0, np.abs(mean))
    scale[constant] = 1.0
    offset = np.where(constant, mean, 0.0)
    Xs = (X - offset) / scale

    sol = solve_nu_dual(Xs, nu, tol=tol, max_iter=max_iter)
    rho, free_support_vectors = _rho(sol.scores, sol.alpha, nu)
    flagged = float(np.mean(sol.scores - rho < 0.0))
    if flagged > nu + d / n:
        raise FittingError(f"degenerate boundary: it flags {flagged:.4f} of the training "
                           f"set, above nu + d/n = {nu + d / n:.4f}")
    return OcSvmModel(
        w=sol.w,
        rho=rho,
        nu=float(nu),
        offset=offset,
        scale=scale,
        kkt_violation=sol.kkt_violation,
        n_iter=sol.n_iter,
        free_support_vectors=free_support_vectors,
    )


def decision_values(model: OcSvmModel, features):
    """Raw scores w.x' - rho of [n, d] feature rows; below 0 is an anomaly."""
    X = as_feature_matrix(features)
    if X.shape[1] != model.w.shape[0]:
        raise UsageError(f"feature dim {X.shape[1]} != model dim {model.w.shape[0]}")
    if not np.all(np.isfinite(X)):
        raise InputError("feature rows contain non-finite values")
    return model.standardize(X) @ model.w - model.rho


@dataclass
class AnomalyMap:
    """Per-superpixel labels plus the expanded per-pixel mask of one volume."""

    superpixel_ids: list  # (slice index, superpixel id) per entry
    scores: np.ndarray  # [n]
    labels: np.ndarray  # [n] bool, True = anomaly
    pixel_mask: np.ndarray  # [slices, H, W] bool, True = anomaly
    cluster_ids: np.ndarray | None = None  # filled by the clustering stage


def segment_volume(model: OcSvmModel, features, superpixels, volume_shape) -> AnomalyMap:
    """Label in-retina superpixels and expand labels to a voxel mask.

    `superpixels` lists the in-retina superpixels of one volume, aligned
    row-for-row with `features`. Pixels outside those superpixels stay False.
    """
    scores = decision_values(model, features)
    if len(scores) != len(superpixels):
        raise UsageError(f"{len(scores)} feature rows for {len(superpixels)} superpixels")
    labels = scores < 0.0
    mask = np.zeros(volume_shape, dtype=bool)
    for sp in compress(superpixels, labels):
        mask[sp.slice_index] |= sp.mask
    return AnomalyMap(
        superpixel_ids=[(sp.slice_index, sp.id) for sp in superpixels],
        scores=scores,
        labels=labels,
        pixel_mask=mask,
    )
