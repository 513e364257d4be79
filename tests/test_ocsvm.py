"""One-class SVM: solver-vs-oracle equivalence, nu-property, scoring rules."""

from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomkit import ocsvm, phantom, preprocess
from anomkit.errors import ConvergenceError, DimensionError, FittingError, InputError, UsageError
from anomkit.rng import Rng

from helpers import one_record
from oracles import nu_dual_oracle


class TestSolverVsOracle:
    def test_objective_matches_exhaustive_oracle(self):
        # the minimum value is unique even when the optimal alpha face is not
        rng = Rng(31)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            nu = float(rng.uniform(0.15, 0.95))
            X = rng.normal(size=(n, d))
            sol = ocsvm.solve_nu_dual(X, nu, tol=1e-12, max_iter=500_000)
            _, _, obj_o = nu_dual_oracle(X, nu)
            assert abs(0.5 * sol.w @ sol.w - obj_o) <= 1e-8

    def test_alpha_and_rho_match_oracle_when_unique(self):
        # with n <= d+1 the dual is strictly convex on the feasible set, so
        # alpha (and hence rho) admit a pointwise comparison
        rng = Rng(32)
        for trial in range(25):
            d = 3
            n = int(rng.integers(2, d + 2))
            nu = float(rng.uniform(0.3, 0.9))
            X = rng.normal(size=(n, d)) + 1.5
            sol = ocsvm.solve_nu_dual(X, nu, tol=1e-13, max_iter=500_000)
            rho, _ = ocsvm._rho(X @ sol.w, sol.alpha, nu)
            alpha_o, rho_o, obj_o = nu_dual_oracle(X, nu)
            assert abs(0.5 * sol.w @ sol.w - obj_o) <= 1e-8
            assert np.abs(sol.alpha - alpha_o).max() <= 1e-6
            assert abs(rho - rho_o) <= 1e-6

    def test_dual_feasibility(self):
        rng = Rng(33)
        X = rng.normal(size=(60, 4)) + 1.0
        nu = 0.2
        sol = ocsvm.solve_nu_dual(X, nu, tol=1e-10)
        assert abs(sol.alpha.sum() - 1.0) <= 1e-8
        cap = 1.0 / (nu * 60)
        assert sol.alpha.min() >= -1e-12
        assert sol.alpha.max() <= cap + 1e-12


def support_share(model, X, tol):
    """Share of training rows with alpha > 0, re-solved on the model's
    standardized features with the tolerance the fit used."""
    alpha = ocsvm.solve_nu_dual(model.standardize(X), model.nu, tol=tol).alpha
    return float(np.mean(alpha > 1e-8 / (model.nu * len(X))))


class TestNuProperty:
    @pytest.mark.parametrize("nu", [0.05, 0.1, 0.5])
    def test_bounds_on_gaussian_data(self, nu):
        # off-origin Gaussian cloud: the boundary is non-degenerate, which is
        # the operating regime of the pipeline's feature spaces
        rng = Rng(34)
        n = 100
        X = rng.normal(size=(n, 32)) + 2.0
        model = ocsvm.fit_ocsvm(X, nu=nu, tol=1e-10)
        scores = ocsvm.decision_values(model, X)
        outlier_fraction = float(np.mean(scores < 0))
        slack = 2.0 / np.sqrt(n)
        assert outlier_fraction <= nu + slack
        assert support_share(model, X, tol=1e-10) >= nu - slack

    def test_exactly_centered_data_raises(self):
        # mean-zero clouds make the origin reachable by capped combinations:
        # the optimum is w = 0, which flags about half the training set
        rng = Rng(39)
        X = rng.normal(size=(500, 8))
        X = X - X.mean(axis=0)
        with pytest.raises(FittingError, match="degenerate"):
            ocsvm.fit_ocsvm(X, nu=0.2, tol=1e-10)

    @pytest.mark.parametrize("shift, fits", [(0.0, False), (0.3, False), (1.0, True)])
    def test_clouds_near_the_origin_raise(self, shift, fits):
        # at shift 0 and 0.3 the boundary flags about 0.50 and 0.13 of the
        # training set, above nu + d/n = 0.116; at shift 1 it flags 0.100
        X = Rng(41).normal(size=(2000, 32)) + shift
        if fits:
            model = ocsvm.fit_ocsvm(X, nu=0.1)
            assert float(np.mean(ocsvm.decision_values(model, X) < 0)) <= 0.1 + 32 / 2000
        else:
            with pytest.raises(FittingError):
                ocsvm.fit_ocsvm(X, nu=0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(40, 300), st.integers(1, 8),
           st.floats(0.05, 0.6), st.floats(4.0, 6.0), st.booleans())
    # nu*n = 23.999999999999993 and no free support vector: all 24 alphas sit
    # at the cap, so rho belongs at the lower end of the bound interval
    @example(seed=0, n=40, d=1, nu=0.5999999999999999, shift=4.0, anisotropic=False)
    # the max-violating pair cycles here at KKT violation 1.26e-7 unless w and
    # the scores are those of the current alphas
    @example(seed=7573, n=292, d=2, nu=0.41015625, shift=4.0, anisotropic=True)
    def test_nu_property_on_shifted_and_anisotropic_clouds(self, seed, n, d, nu, shift,
                                                          anisotropic):
        # nu bounds the share of outliers from above and of support vectors
        # from below (Schoelkopf et al. 2001, Prop. 4); the cloud sits `shift`
        # standard deviations off the origin in every dimension, far enough
        # that no capped combination of its points reaches the origin
        rng = Rng(seed)
        X = rng.normal(size=(n, d))
        if anisotropic:  # correlated dimensions with spreads over two decades
            X = X @ (rng.normal(size=(d, d)) * np.logspace(-1, 1, d)[:, None])
        X += shift * X.std(axis=0) * rng.choice([-1.0, 1.0], size=d)
        model = ocsvm.fit_ocsvm(X, nu=nu, tol=1e-10)
        scores = ocsvm.decision_values(model, X)
        assert float(np.mean(scores < -1e-6)) <= nu
        assert support_share(model, X, tol=1e-10) >= nu - 1.0 / n

    def test_outlier_fraction_near_nu(self):
        # skewed positive-cone features, the regime the pipeline produces
        rng = Rng(35)
        n = 400
        base = rng.normal(size=(n, 16))
        X = np.where(base > 0, base, 0.2 * base) + 2.0
        model = ocsvm.fit_ocsvm(X, nu=0.5, tol=1e-10)
        frac = float(np.mean(ocsvm.decision_values(model, X) < 0))
        assert 0.4 <= frac <= 0.5
        assert model.free_support_vectors == 0  # rho from the bound candidates

    def test_two_identical_points_sit_on_boundary(self):
        X = np.array([[1.5, -2.0], [1.5, -2.0]])
        sp = one_record([0], [0], id=0, slice_index=0, centroid=(0.0, 0.0), shape=(1, 1))
        for nu in (0.3, 0.7, 1.0):
            model = ocsvm.fit_ocsvm(X, nu=nu)
            # at nu = 1 both alphas sit at the cap 1/(nu*n) = 1/2
            assert model.free_support_vectors == (0 if nu == 1.0 else 2)
            (val,) = ocsvm.decision_values(model, X[:1])
            assert abs(val) <= 1e-9
            amap = ocsvm.segment_volume(model, X[:1], [sp], volume_shape=(1, 1, 1))
            assert amap.labels.tolist() == [False]  # boundary counts as normal

    def test_single_point_rejected(self):
        with pytest.raises(InputError):
            ocsvm.fit_ocsvm(np.ones((1, 3)), nu=0.5)

    @pytest.mark.parametrize("X", [np.ones(4), np.ones((2, 2, 2))])
    def test_solver_rejects_a_non_matrix(self, X):
        with pytest.raises(DimensionError):
            ocsvm.solve_nu_dual(X, 0.5)

    @pytest.mark.parametrize("call, message", [
        (lambda: ocsvm.solve_nu_dual(np.ones((1, 3)), 0.5), r"need at least 2 training vectors, got 1"),
        (lambda: ocsvm.solve_nu_dual(np.eye(3), 0.0), r"nu must be in \(0, 1\], got 0\.0"),
        (lambda: ocsvm.solve_nu_dual(np.eye(3), 1.5), r"nu must be in \(0, 1\], got 1\.5"),
        (lambda: ocsvm.fit_ocsvm(np.array([[1.0, 2.0], [np.nan, 1.0], [2.0, 2.0]]), nu=0.5),
         r"training features contain non-finite values"),
        (lambda: ocsvm.fit_ocsvm(np.array([[1.0, 2.0], [np.inf, 1.0], [2.0, 2.0]]), nu=0.5),
         r"training features contain non-finite values"),
    ], ids=["solver_one_row", "nu_zero", "nu_above_one", "fit_nan", "fit_inf"])
    def test_degenerate_inputs_rejected(self, call, message):
        with pytest.raises(InputError, match=message):
            call()

    def test_kkt_violation_is_never_negative(self):
        # at a strictly optimal point the largest gradient among alphas that
        # can shrink lies below the smallest among those that can grow
        X = Rng(7).normal(size=(100, 8)) + 2.0
        model = ocsvm.fit_ocsvm(X, nu=0.3, tol=1e-10)
        assert 0.0 <= model.kkt_violation <= 1e-10
        sol = ocsvm.solve_nu_dual(X, 0.3, tol=1e-10)
        assert 0.0 <= sol.kkt_violation <= 1e-10

    @pytest.mark.parametrize("seed", [2, 3, 11])
    def test_solution_certifies_its_own_alpha(self, seed):
        # w, the scores and the reported violation are those of the alpha
        # returned: the max-violating-pair gap of X (X^T alpha) under the
        # solver's masks
        X = Rng(seed).normal(size=(100, 8)) + 2.0
        nu = 0.3
        sol = ocsvm.solve_nu_dual(X, nu, tol=1e-10)
        w = X.T @ sol.alpha
        assert np.array_equal(sol.w, w)
        cap = 1.0 / (nu * len(X))
        g = X @ w
        assert np.array_equal(sol.scores, X @ sol.w)
        grow = np.where(sol.alpha < cap * (1.0 - 1e-12), g, np.inf).min()
        shrink = np.where(sol.alpha > cap * 1e-12, g, -np.inf).max()
        assert sol.kkt_violation == max(float(shrink - grow), 0.0) <= 1e-10

    def test_iteration_budget_exhausted(self):
        X = Rng(40).normal(size=(100, 8)) + 2.0
        with pytest.raises(ConvergenceError):
            ocsvm.fit_ocsvm(X, nu=0.1, max_iter=5)
        with pytest.raises(ConvergenceError):
            ocsvm.solve_nu_dual(X, 0.1, max_iter=5)
        with pytest.raises(ConvergenceError, match="in 0 iterations .final KKT violation inf"):
            ocsvm.solve_nu_dual(X, 0.1, max_iter=0)


class TestScoring:
    def _model(self):
        rng = Rng(36)
        X = np.abs(rng.normal(size=(200, 8))) + 0.5
        return ocsvm.fit_ocsvm(X, nu=0.1, tol=1e-10), X

    def test_free_support_vector_scores_near_zero(self):
        model, X = self._model()
        n = X.shape[0]
        # recover free SVs: score magnitude at most tol-scaled
        scores = ocsvm.decision_values(model, X)
        near = np.abs(scores) <= 1e-6 * max(1.0, np.linalg.norm(model.w))
        assert near.any()
        assert model.free_support_vectors > 0

    def test_far_along_w_is_normal_and_far_against_is_anomaly(self):
        model, X = self._model()
        z_plus = model.w / np.linalg.norm(model.w) * 1e5 * model.scale
        z_minus = -z_plus
        plus, minus = ocsvm.decision_values(model, np.stack([z_plus, z_minus]))
        assert plus >= 0.0  # normal
        assert minus < 0.0  # anomaly

    def test_dimension_mismatch(self):
        model, _ = self._model()
        with pytest.raises(UsageError):
            ocsvm.decision_values(model, np.ones((1, 5)))

    def test_constant_dimension_contributes_nothing(self):
        rng = Rng(37)
        X = np.abs(rng.normal(size=(150, 6))) + 1.0
        m_base = ocsvm.fit_ocsvm(X, nu=0.2, tol=1e-10)
        X_aug = np.concatenate([X, np.full((150, 1), 7.3)], axis=1)
        m_aug = ocsvm.fit_ocsvm(X_aug, nu=0.2, tol=1e-10)
        assert abs(m_aug.w[-1] * m_aug.standardize(X_aug[0])[-1]) <= 1e-12
        z = np.abs(rng.normal(size=6)) + 1.0
        z_aug = np.concatenate([z, [7.3]])
        base = ocsvm.decision_values(m_base, z[None])[0]
        assert abs(base - ocsvm.decision_values(m_aug, z_aug[None])[0]) <= 1e-9


class TestSegmentVolume:
    def test_mask_covers_only_anomalous_superpixels(self):
        rng = Rng(38)
        healthy = np.abs(rng.normal(size=(300, 4))) + 1.0
        model = ocsvm.fit_ocsvm(healthy, nu=0.1, tol=1e-10)

        sps = [
            one_record([0, 0], [0, 1], id=0, slice_index=0, centroid=(0.0, 0.5), shape=(4, 4)),
            one_record([2], [3], id=1, slice_index=1, centroid=(2.0, 3.0), shape=(4, 4)),
        ]
        feats = np.stack([healthy.mean(axis=0), -50.0 * np.ones(4)])
        amap = ocsvm.segment_volume(model, feats, sps, volume_shape=(2, 4, 4))
        assert amap.labels.tolist() == [False, True]
        assert amap.pixel_mask.sum() == 1
        assert bool(amap.pixel_mask[1, 2, 3])
        assert amap.superpixel_ids == [(0, 0), (1, 1)]
        # every superpixel flagged, then none: ids list them all either way
        for row, labels, pixels in ((feats[1], [True, True], 3), (feats[0], [False, False], 0)):
            amap = ocsvm.segment_volume(model, np.stack([row, row]), sps, volume_shape=(2, 4, 4))
            assert amap.labels.tolist() == labels
            assert amap.pixel_mask.sum() == pixels
            assert amap.pixel_mask[0, 0, :2].all() == amap.pixel_mask[1, 2, 3] == labels[0]
            assert amap.superpixel_ids == [(0, 0), (1, 1)]

    def test_mask_is_the_union_of_the_flagged_records(self):
        """The records of a preprocessed phantom, a random share of them
        flagged: the mask is SLIC's label volume of its normalized slices
        looked up in a table of the flagged (slice, id) pairs."""
        rng = Rng(40)
        healthy = np.abs(rng.normal(size=(300, 4))) + 1.0
        model = ocsvm.fit_ocsvm(healthy, nu=0.1, tol=1e-10)
        vol, _ = phantom.generate_volume(
            phantom.healthy_config(40, n_slices=3, height=48, width=64))
        sps = preprocess.preprocess_volume(vol.data).superpixels
        flag = rng.random(len(sps)) < 0.4
        feats = np.where(flag[:, None], -50.0, healthy.mean(axis=0))
        amap = ocsvm.segment_volume(model, feats, sps, volume_shape=vol.data.shape)
        assert amap.labels.tolist() == flag.tolist() and 0 < flag.sum() < len(sps)
        flat, surf = preprocess.flatten(vol.data, preprocess.segment_surfaces(vol.data))
        labels = preprocess.slic_superpixels(np.stack(
            [preprocess.normalize_slice(img, mask)
             for img, mask in zip(flat, surf.band_mask(flat.shape[1]))]))
        hit = np.zeros((len(labels), labels.max() + 1), dtype=bool)
        hit[tuple(np.transpose([(sp.slice_index, sp.id) for sp in compress(sps, flag)]))] = True
        want = hit[np.arange(len(labels))[:, None, None], labels]
        assert np.array_equal(amap.pixel_mask, want)

    def test_rows_must_match_the_superpixels(self):
        model = ocsvm.fit_ocsvm(np.abs(Rng(39).normal(size=(50, 4))) + 1.0, nu=0.1)
        sps = [one_record([0], [0], id=0, slice_index=0, centroid=(0.0, 0.0), shape=(2, 2))]
        with pytest.raises(UsageError, match="2 feature rows for 1 superpixels"):
            ocsvm.segment_volume(model, np.ones((2, 4)), sps, volume_shape=(1, 2, 2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, value):
        # a nan row used to score nan, and nan < 0 painted it healthy
        model = ocsvm.fit_ocsvm(np.abs(Rng(39).normal(size=(50, 4))) + 1.0, nu=0.1)
        sps = [one_record([0], [c], id=c, slice_index=0, centroid=(0.0, c), shape=(1, 2))
               for c in range(2)]
        feats = np.ones((2, 4))
        feats[1, 2] = value
        with pytest.raises(InputError, match="non-finite"):
            ocsvm.segment_volume(model, feats, sps, volume_shape=(1, 1, 2))

    def test_zero_rows_are_scored_like_any_others(self):
        model = ocsvm.fit_ocsvm(np.abs(Rng(39).normal(size=(50, 4))) + 1.0, nu=0.1)
        with pytest.raises(UsageError, match="feature dim 5 != model dim 4"):
            ocsvm.segment_volume(model, np.zeros((0, 5)), [], volume_shape=(2, 4, 4))
        amap = ocsvm.segment_volume(model, np.zeros((0, 4)), [], volume_shape=(2, 4, 4))
        assert amap.superpixel_ids == []
        assert amap.scores.shape == amap.labels.shape == (0,)
        assert amap.scores.dtype == np.float64 and amap.labels.dtype == bool
        assert not amap.pixel_mask.any() and amap.pixel_mask.shape == (2, 4, 4)
