"""Spherical k-means, Davies-Bouldin, model selection, assignment."""

import numpy as np
import pytest

from anomkit import cluster
from anomkit.errors import DimensionError, FittingError, InputError, ParameterError, UsageError
from anomkit.rng import Rng

from oracles import davies_bouldin_loop_oracle, davies_bouldin_oracle, spherical_kmeans_oracle


def three_cones(rng, n_per=60, d=5, noise=0.3):
    dirs = np.eye(d)[:3]
    parts = [np.tile(v, (n_per, 1)) * 3 + rng.normal(size=(n_per, d)) * noise for v in dirs]
    return np.concatenate(parts)


FOUR_ROWS = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])

K_OUT_OF_RANGE = {
    "kmeans_k_zero": (lambda: cluster.spherical_kmeans(np.eye(3), 0, Rng(0)),
                      r"k must be in \[1, n=3\], got 0"),
    "kmeans_k_above_n": (lambda: cluster.spherical_kmeans(np.eye(3), 4, Rng(0)),
                         r"k must be in \[1, n=3\], got 4"),
    "davies_bouldin_one_cluster": (
        lambda: cluster.davies_bouldin(FOUR_ROWS, [0, 0, 0, 0], np.eye(2)[:1]),
        r"Davies-Bouldin needs k >= 2, got 1"),
    "davies_bouldin_empty_cluster": (
        lambda: cluster.davies_bouldin(FOUR_ROWS, [0, 0, 0, 0], np.eye(2)),
        r"every cluster must be nonempty"),
    "select_k_from_one": (lambda: cluster.select_k(FOUR_ROWS, k_range=(1, 2), rng=Rng(0)),
                          r"k range must start at >= 2, got 1"),
}


@pytest.mark.parametrize("case", sorted(K_OUT_OF_RANGE))
def test_cluster_counts_out_of_range_rejected(case):
    call, message = K_OUT_OF_RANGE[case]
    with pytest.raises(InputError, match=message):
        call()


class TestSphericalKmeans:
    def test_identical_points_collapse(self):
        X = np.tile([0.6, 0.8], (10, 1))
        res = cluster.spherical_kmeans(X, 3, Rng(1))
        assert np.all(res.assignment == res.assignment[0])
        c = res.centroids[res.assignment[0]]
        assert np.allclose(c, [0.6, 0.8], atol=1e-9)
        assert res.objective == pytest.approx(10.0, abs=1e-9)

    def test_two_direction_groups(self):
        rng = Rng(2)
        g1 = np.tile([1.0, 0.0], (50, 1)) + rng.normal(size=(50, 2)) * 0.05
        g2 = np.tile([0.0, 1.0], (50, 1)) + rng.normal(size=(50, 2)) * 0.05
        res = cluster.spherical_kmeans(np.concatenate([g1, g2]), 2, Rng(3))
        angles = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            best = max(float(np.abs(res.centroids @ e).max()), -1.0)
            angles.append(np.degrees(np.arccos(min(best, 1.0))))
        assert max(angles) <= 5.0

    def test_objective_monotone_per_iteration(self):
        # a run stopped after i iterations reports the objective of iteration i
        rng = Rng(4)
        X = rng.normal(size=(200, 6)) + 0.5
        n_iter = 9  # this draw converges at the ninth iteration
        trace = [cluster.spherical_kmeans(X, 5, Rng(5), restarts=1, max_iter=i).objective
                 for i in range(1, n_iter + 1)]
        full = cluster.spherical_kmeans(X, 5, Rng(5), restarts=1, max_iter=50)
        assert full.objective == trace[-1]
        assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))

    def test_zero_vector_rejected(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            cluster.spherical_kmeans(X, 2, Rng(0))

    @pytest.mark.parametrize("counts", [dict(max_iter=0), dict(restarts=0), dict(restarts=-1)])
    def test_iteration_counts_below_one_rejected(self, counts):
        with pytest.raises(ParameterError):
            cluster.spherical_kmeans(np.eye(3), 2, Rng(0), **counts)

    @pytest.mark.parametrize("shape", [(5,), (4, 3, 2)])
    def test_features_not_a_matrix_rejected(self, shape):
        with pytest.raises(DimensionError):
            cluster.spherical_kmeans(np.ones(shape), 2, Rng(0))

    def test_centroids_unit_norm(self):
        rng = Rng(6)
        X = rng.normal(size=(100, 4)) + 1.0
        res = cluster.spherical_kmeans(X, 4, Rng(7))
        assert np.abs(np.linalg.norm(res.centroids, axis=1) - 1.0).max() <= 1e-9


class TestDaviesBouldin:
    def test_singletons_at_orthogonal_directions(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        db = cluster.davies_bouldin(X, [0, 1], X)
        assert db == 0.0

    def test_hand_computed_two_cluster_geometry(self):
        # cluster 0: unit vectors at +-45deg around e1; cluster 1: at e2
        a = np.sqrt(0.5)
        X = np.array([[a, a], [a, -a], [0.0, 1.0], [a, a]])
        labels = [0, 0, 1, 1]
        cents = np.array([[1.0, 0.0], [0.0, 1.0]])
        # sigma_0 = mean(1 - cos45, 1 - cos45) = 1 - a ; sigma_1 = mean(0, 1 - a)
        s0 = 1.0 - a
        s1 = (0.0 + 1.0 - a) / 2.0
        d01 = 1.0  # orthogonal centroids
        expected = ((s0 + s1) / d01 + (s0 + s1) / d01) / 2.0
        db = cluster.davies_bouldin(X, labels, cents)
        assert abs(db - expected) <= 1e-9

    def test_matches_brute_force_oracle(self):
        rng = Rng(8)
        for trial in range(10):
            n = int(rng.integers(6, 51))
            k = int(rng.integers(2, 5))
            X = rng.normal(size=(n, 4)) + 0.3
            res = cluster.spherical_kmeans(X, k, Rng(trial), restarts=2)
            db = cluster.davies_bouldin(X, res.assignment, res.centroids)
            oracle = davies_bouldin_oracle(X, res.assignment, res.centroids)
            assert abs(db - oracle) <= 1e-9

    def test_coincident_centroids_give_inf(self):
        X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
        cents = np.array([[1.0, 0.0], [1.0, 0.0]])
        db = cluster.davies_bouldin(X, [0, 0, 1, 1], cents)
        assert np.isinf(db)

    @pytest.mark.parametrize("labels", [[0, 0, 2, 1], [0, -1, 1, 1], [0, 0, 1], [0, 0, 1, 1, 1],
                                        [[0, 0], [1, 1]]])
    def test_malformed_assignment_rejected(self, labels):
        X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
        with pytest.raises(InputError):
            cluster.davies_bouldin(X, labels, np.eye(2))

    def test_centroid_width_mismatch_rejected(self):
        X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
        with pytest.raises(DimensionError):
            cluster.davies_bouldin(X, [0, 0, 1, 1], np.eye(3)[:2])

    def test_merging_separated_clusters_increases_db(self):
        rng = Rng(9)
        X = three_cones(rng)
        res3 = cluster.spherical_kmeans(X, 3, Rng(10))
        db3 = cluster.davies_bouldin(X, res3.assignment, res3.centroids)
        res2 = cluster.spherical_kmeans(X, 2, Rng(11))
        db2 = cluster.davies_bouldin(X, res2.assignment, res2.centroids)
        assert db2 > db3


class TestSelectK:
    def test_recovers_three_cones(self):
        X = three_cones(Rng(12))
        model = cluster.select_k(X, k_range=(2, 8), rng=Rng(13))
        assert model.k == 3

    def test_trace_covers_full_range(self):
        rng = Rng(14)
        X = rng.normal(size=(80, 5)) + 0.5
        model = cluster.select_k(X, k_range=(2, 30), rng=Rng(15), restarts=2, max_iter=30)
        assert len(model.db_trace) == 29
        assert [k for k, _ in model.db_trace] == list(range(2, 31))

    def test_selected_k_minimizes_trace(self):
        X = three_cones(Rng(16))
        model = cluster.select_k(X, k_range=(2, 8), rng=Rng(17))
        ks = [k for k, _ in model.db_trace]
        dbs = [v for _, v in model.db_trace]
        assert model.k == ks[int(np.argmin(dbs))]

    def test_deterministic_rerun(self):
        X = three_cones(Rng(18))
        m1 = cluster.select_k(X, k_range=(2, 6), rng=Rng(19))
        m2 = cluster.select_k(X, k_range=(2, 6), rng=Rng(19))
        assert m1.k == m2.k
        assert np.array_equal(m1.centroids, m2.centroids)

    def test_needs_more_samples_than_max_k(self):
        with pytest.raises(InputError):
            cluster.select_k(np.ones((10, 3)), k_range=(2, 10), rng=Rng(0))

    def test_empty_k_range_rejected(self):
        with pytest.raises(InputError, match="empty k range"):
            cluster.select_k(three_cones(Rng(20)), k_range=(5, 3), rng=Rng(0))

    @pytest.mark.parametrize("counts", [dict(max_iter=0), dict(restarts=0)])
    def test_iteration_counts_below_one_rejected(self, counts):
        with pytest.raises(ParameterError):
            cluster.select_k(three_cones(Rng(21)), k_range=(2, 4), rng=Rng(0), **counts)

    def test_features_not_a_matrix_rejected(self):
        with pytest.raises(DimensionError):
            cluster.select_k(np.ones(40), k_range=(2, 4), rng=Rng(0))

    def test_unfillable_k_scores_inf(self):
        # three distinct rows: k-means at k = 4 and 5 ends with an empty cluster
        X = np.repeat(Rng(0).normal(size=(3, 8)), 10, axis=0)
        model = cluster.select_k(X, k_range=(2, 5), rng=Rng(1))
        assert [k for k, _ in model.db_trace] == [2, 3, 4, 5]
        assert all(np.isfinite(db) for k, db in model.db_trace if k <= 3)
        assert all(db == np.inf for k, db in model.db_trace if k >= 4)
        assert model.k == 3

    def test_no_fillable_k_raises_fitting_error(self):
        X = np.repeat(Rng(0).normal(size=(2, 8)), 10, axis=0)
        with pytest.raises(FittingError, match=r"\[3, 5\]"):
            cluster.select_k(X, k_range=(3, 5), rng=Rng(1))


class TestAssign:
    def _model(self):
        X = three_cones(Rng(20))
        return cluster.select_k(X, k_range=(2, 6), rng=Rng(21)), X

    def test_centroid_assigns_to_itself(self):
        model, _ = self._model()
        assert np.array_equal(cluster.assign_batch(model, model.centroids), np.arange(model.k))

    def test_scale_invariance(self):
        model, X = self._model()
        base = cluster.assign_batch(model, X[:20])
        for a in (0.01, 1.0, 250.0):
            assert np.array_equal(cluster.assign_batch(model, a * X[:20]), base)

    def test_zero_vector_rejected(self):
        model, _ = self._model()
        with pytest.raises(InputError):
            cluster.assign_batch(model, np.zeros((1, model.centroids.shape[1])))

    def test_width_mismatch_rejected(self):
        model, _ = self._model()
        with pytest.raises(UsageError):
            cluster.assign_batch(model, np.ones((2, model.centroids.shape[1] + 1)))

    def test_features_not_a_matrix_rejected(self):
        model, _ = self._model()
        with pytest.raises(DimensionError):
            cluster.assign_batch(model, np.ones(model.centroids.shape[1]))

    def test_training_features_replay(self):
        X = three_cones(Rng(22))
        res = cluster.spherical_kmeans(X, 3, Rng(23))
        model = cluster.ClusterModel(centroids=res.centroids, db_trace=[])
        replay = cluster.assign_batch(model, X)
        assert np.array_equal(replay, res.assignment)

    def test_non_unit_centroid_rejected(self):
        centroids = np.eye(3)
        centroids[1] *= 1.5
        with pytest.raises(InputError, match="unit norm"):
            cluster.ClusterModel(centroids=centroids, db_trace=[])


class TestLoopOracles:
    """The array code against its per-row and per-cluster loop formulation,
    compared with == (k up to 12, so the Davies-Bouldin sum has 9 or more
    terms)."""

    @staticmethod
    def _assert_kmeans_matches(X, k, seed, restarts=3):
        res = cluster.spherical_kmeans(X, k, Rng(seed), restarts=restarts)
        cents, assignment, objective = spherical_kmeans_oracle(X, k, Rng(seed), restarts=restarts)
        assert np.array_equal(res.centroids, cents)
        assert np.array_equal(res.assignment, assignment)
        assert res.objective == objective

    @pytest.mark.parametrize("k", range(2, 13))
    def test_random_inputs(self, k):
        rng = Rng(200 + k)
        X = rng.normal(size=(int(rng.integers(3 * k, 90)), int(rng.integers(2, 7)))) + 0.3
        self._assert_kmeans_matches(X, k, seed=k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_duplicated_rows_force_empty_clusters(self, k):
        # fewer distinct rows than clusters: seeding repeats a row, and the
        # repeated centroids leave one to four clusters empty per re-seed
        rng = Rng(300 + k)
        distinct = rng.normal(size=(max(k // 2, 1), 3)) + 0.2
        X = distinct[rng.integers(0, len(distinct), size=4 * k)]
        X[: k // 4] += rng.normal(size=(k // 4, 3)) * 0.05
        self._assert_kmeans_matches(X, k, seed=k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_davies_bouldin_random_labels(self, k):
        rng = Rng(400 + k)
        n = 5 * k
        X = rng.normal(size=(n, 4)) + 0.3
        labels = rng.permutation(np.arange(n) % k)
        cents = rng.normal(size=(k, 4))
        assert (cluster.davies_bouldin(X, labels, cents)
                == davies_bouldin_loop_oracle(X, labels, cents))

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_davies_bouldin_coincident_centroids(self, k):
        rng = Rng(500 + k)
        X = rng.normal(size=(4 * k, 3)) + 0.3
        labels = np.arange(4 * k) % k
        cents = rng.normal(size=(k, 3))
        cents[-1] = 2.0 * cents[0]  # same direction: separation below 1e-12
        db = cluster.davies_bouldin(X, labels, cents)
        assert np.isinf(db)
        assert db == davies_bouldin_loop_oracle(X, labels, cents)

    def test_select_k_matches_loop_oracles(self):
        X = three_cones(Rng(24), n_per=20)
        xu = X / np.linalg.norm(X, axis=1)[:, None]  # unit rows in, as the oracles see them
        model = cluster.select_k(xu, k_range=(2, 11), rng=Rng(25), restarts=2)
        for k, db in model.db_trace:
            cents, assignment, _ = spherical_kmeans_oracle(xu, k, Rng(25).derive(k), restarts=2)
            assert db == davies_bouldin_loop_oracle(xu, assignment, cents)

    def test_select_k_on_raw_rows_matches_loop_oracles(self):
        # select_k normalizes the rows once, as the oracles do
        X = three_cones(Rng(24), n_per=20)
        model = cluster.select_k(X, k_range=(2, 11), rng=Rng(25), restarts=2)
        for k, db in model.db_trace:
            cents, assignment, _ = spherical_kmeans_oracle(X, k, Rng(25).derive(k), restarts=2)
            assert db == davies_bouldin_loop_oracle(X, assignment, cents)
            if k == model.k:
                assert np.array_equal(model.centroids, cents)
