"""Sub-categorization of anomalous features: spherical k-means with cosine
distance, Davies-Bouldin model selection over a k sweep, nearest-centroid
assignment for unseen vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .rng import Rng


def _unit_rows(x, what="feature"):
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms == 0) or not np.all(np.isfinite(norms)):
        raise InputError(f"zero or non-finite {what} vector")
    return x / norms[..., None]


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
    cents = _kmeanspp_init(xu, k, rng)
    assignment = None
    for _ in range(max_iter):
        sims = xu @ cents.T
        new_assign = np.argmax(sims, axis=1)  # ties to the lowest id
        own = sims[np.arange(xu.shape[0]), new_assign]

        # re-seed empty clusters at the worst-fitting point
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            own_mut = own.copy()
            for c in np.nonzero(counts == 0)[0]:
                worst = int(np.argmin(own_mut))
                cents[c] = xu[worst]
                own_mut[worst] = np.inf
            sims = xu @ cents.T
            new_assign = np.argmax(sims, axis=1)
            own = sims[np.arange(xu.shape[0]), new_assign]

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
    cu = _unit_rows(centroids, what="centroid")
    assignment = np.asarray(assignment)
    k = cu.shape[0]
    if k < 2:
        raise InputError(f"Davies-Bouldin needs k >= 2, got {k}")
    counts = np.bincount(assignment, minlength=k)
    if np.any(counts == 0):
        raise InputError("every cluster must be nonempty")

    dist_to_own = 1.0 - np.einsum("ij,ij->i", xu, cu[assignment])
    sigma = np.bincount(assignment, weights=dist_to_own, minlength=k) / counts
    sep = 1.0 - cu @ cu.T
    total = 0.0
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            if sep[i, j] < 1e-12:  # coincident centroids
                ratio = np.inf
            else:
                ratio = (sigma[i] + sigma[j]) / sep[i, j]
            worst = max(worst, ratio)
        total += worst
    return float(total / k)


@dataclass
class ClusterModel:
    centroids: np.ndarray  # [k, d] unit rows
    k: int
    db_trace: list  # [(k, db index)] over the full sweep

    def __post_init__(self):
        norms = np.linalg.norm(self.centroids, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9), "centroids must be unit norm"


def select_k(features, k_range=(2, 30), rng: Rng | None = None, restarts=5,
             max_iter=100) -> ClusterModel:
    """Sweep k, score by Davies-Bouldin on the training features, keep the
    argmin (ties to the smaller k)."""
    if rng is None:
        rng = Rng(0)
    xu = _unit_rows(features)
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    n = xu.shape[0]
    if k_lo < 2:
        raise InputError(f"k range must start at >= 2, got {k_lo}")
    if k_hi < k_lo:
        raise InputError(f"empty k range ({k_lo}, {k_hi})")
    if n <= k_hi:
        raise InputError(f"need more samples than max k: n={n}, k_hi={k_hi}")

    trace = []
    best = None
    for k in range(k_lo, k_hi + 1):
        res = spherical_kmeans(xu, k, rng.derive(k), restarts=restarts, max_iter=max_iter)
        db = davies_bouldin(xu, res.assignment, res.centroids)
        trace.append((k, db))
        if best is None or db < best[0]:
            best = (db, k, res)
    _, k_best, res_best = best
    return ClusterModel(centroids=res_best.centroids, k=k_best, db_trace=trace)


def assign_batch(model: ClusterModel, features):
    xu = _unit_rows(features)
    return np.argmax(xu @ model.centroids.T, axis=1)
