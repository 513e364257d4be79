"""Independent brute-force oracles used only by the test suite."""

import itertools

import numpy as np


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
