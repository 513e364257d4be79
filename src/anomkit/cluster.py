"""Sub-categorization of anomalous features: spherical k-means with cosine
distance, Davies-Bouldin model selection over a k sweep, nearest-centroid
assignment for unseen vectors.

Every sum has a fixed order, so a fit repeats bit for bit. A k-means step's
centroid sums come from one `np.bincount` on (cluster, column) keys, which
adds each cluster's rows in row order. Empty clusters, in id order, are
re-seeded at the worst-fitting rows (lowest similarity to their centroid),
worst first, ties to the lower row. Davies-Bouldin sums the per-cluster
worst ratios in cluster order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FittingError, InputError, ParameterError, UsageError
from .ocsvm import as_feature_matrix
from .rng import Rng


def _unit_rows(x):
    x = as_feature_matrix(x)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0) or not np.all(np.isfinite(norms)):
        raise InputError("zero or non-finite vector")
    return x / norms[:, None]


def _nearest(xu, cents):
    """Each row's nearest centroid (ties to the lowest id) and its similarity to it."""
    sims = xu @ cents.T
    assign = np.argmax(sims, axis=1)
    return assign, np.take_along_axis(sims, assign[:, None], axis=1)[:, 0]


@dataclass
class KmeansResult:
    centroids: np.ndarray  # [k, d], unit rows
    assignment: np.ndarray  # [n] int
    objective: float  # sum of cosine similarities to own centroid


def _kmeanspp_init(xu, k, rng: Rng):
    """k-means++ style seeding with cosine distance as the weight."""
    n = xu.shape[0]
    first = int(rng.integers(0, n))
    centroids = [xu[first]]
    d = 1.0 - xu @ centroids[0]
    for _ in range(1, k):
        weights = np.maximum(d, 0.0) ** 2
        total = weights.sum()
        if total <= 1e-15:
            idx = int(rng.integers(0, n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids.append(xu[idx])
        d = np.minimum(d, 1.0 - xu @ centroids[-1])
    return np.stack(centroids)


def _run_once(xu, k, rng: Rng, max_iter):
    d = xu.shape[1]
    cents = _kmeanspp_init(xu, k, rng)
    assignment = None
    for _ in range(max_iter):
        new_assign, own = _nearest(xu, cents)
        empty = np.flatnonzero(np.bincount(new_assign, minlength=k) == 0)
        if empty.size:
            cents[empty] = xu[np.argsort(own, kind="stable")[:empty.size]]
            new_assign, own = _nearest(xu, cents)

        objective = float(own.sum())
        if assignment is not None and np.array_equal(new_assign, assignment):
            break
        assignment = new_assign
        keys = assignment[:, None] * d + np.arange(d)
        sums = np.bincount(keys.ravel(), weights=xu.ravel(), minlength=k * d).reshape(k, d)
        norms = np.linalg.norm(sums, axis=1)
        nz = norms > 1e-15
        cents[nz] = sums[nz] / norms[nz, None]
    return KmeansResult(centroids=cents, assignment=assignment, objective=objective)


def spherical_kmeans(features, k, rng: Rng, restarts=5, max_iter=100) -> KmeansResult:
    """Best-of-restarts spherical k-means maximizing cosine similarity."""
    xu = _unit_rows(features)
    n = xu.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, n={n}], got {k}")
    if restarts < 1 or max_iter < 1:
        raise ParameterError(f"restarts and max_iter must be >= 1, got {restarts} and {max_iter}")
    best = None
    for r in range(restarts):
        res = _run_once(xu, k, rng.derive(r), max_iter)
        if best is None or res.objective > best.objective + 1e-12:
            best = res
    return best


def davies_bouldin(features, assignment, centroids) -> float:
    """Davies-Bouldin index under cosine distance (1 - cosine similarity).

    Returns +inf when two centroids coincide; requires every cluster
    nonempty and k >= 2.
    """
    xu = _unit_rows(features)
    cu = _unit_rows(centroids)
    assignment = np.asarray(assignment)
    k = cu.shape[0]
    if k < 2:
        raise InputError(f"Davies-Bouldin needs k >= 2, got {k}")
    if cu.shape[1] != xu.shape[1]:
        raise DimensionError(f"centroid dim {cu.shape[1]} != feature dim {xu.shape[1]}")
    if assignment.shape != (xu.shape[0],) or np.any((assignment < 0) | (assignment >= k)):
        raise InputError(f"the assignment must hold one label in [0, {k}) per feature row")
    counts = np.bincount(assignment, minlength=k)
    if np.any(counts == 0):
        raise InputError("every cluster must be nonempty")

    dist_to_own = 1.0 - np.einsum("ij,ij->i", xu, cu[assignment])
    sigma = np.bincount(assignment, weights=dist_to_own, minlength=k) / counts
    sep = 1.0 - cu @ cu.T
    with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal's sep is ~0
        ratio = np.where(sep < 1e-12, np.inf, (sigma[:, None] + sigma) / sep)
    np.fill_diagonal(ratio, -np.inf)
    # np.sum would add in a different order; accumulate adds in cluster order
    return float(np.add.accumulate(ratio.max(axis=1))[-1] / k)


@dataclass
class ClusterModel:
    centroids: np.ndarray  # [k, d] unit rows
    db_trace: list  # [(k, db index)] over the full sweep

    def __post_init__(self):
        norms = np.linalg.norm(self.centroids, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise InputError(f"centroids must be unit norm, got row norms {norms}")

    @property
    def k(self):
        return len(self.centroids)


def select_k(features, k_range, rng: Rng, restarts=5, max_iter=100) -> ClusterModel:
    """Sweep k, score by Davies-Bouldin on the training features, keep the
    argmin (ties to the smaller k). A k whose k-means leaves a cluster empty
    scores +inf; if every k scores +inf, the sweep raises FittingError.

    Both stages get the raw rows, so each row is normalized once, as a direct
    call of either would normalize it.
    """
    features = as_feature_matrix(features)
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    n = features.shape[0]
    if k_lo < 2:
        raise InputError(f"k range must start at >= 2, got {k_lo}")
    if k_hi < k_lo:
        raise InputError(f"empty k range ({k_lo}, {k_hi})")
    if n <= k_hi:
        raise InputError(f"need more samples than max k: n={n}, k_hi={k_hi}")

    trace = []
    best = None
    for k in range(k_lo, k_hi + 1):
        res = spherical_kmeans(features, k, rng.derive(k), restarts=restarts, max_iter=max_iter)
        filled = np.bincount(res.assignment, minlength=k).all()
        db = davies_bouldin(features, res.assignment, res.centroids) if filled else np.inf
        trace.append((k, db))
        if best is None or db < best[0]:
            best = (db, res)
    db_best, res_best = best
    if db_best == np.inf:
        raise FittingError(f"no k in [{k_lo}, {k_hi}] gives nonempty clusters with distinct "
                           "centroids")
    return ClusterModel(centroids=res_best.centroids, db_trace=trace)


def assign_batch(model: ClusterModel, features):
    xu = _unit_rows(features)
    if xu.shape[1] != model.centroids.shape[1]:
        raise UsageError(f"feature dim {xu.shape[1]} != centroid dim {model.centroids.shape[1]}")
    return _nearest(xu, model.centroids)[0]
