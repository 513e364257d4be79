"""PCA fitting and projection contracts."""

import tracemalloc

import numpy as np
import pytest

from anomkit.baseline_pca import pca_fit, pca_project
from anomkit.errors import FittingError
from anomkit.rng import Rng

from oracles import pca_fit_oracle


def test_collinear_data_first_component():
    t = np.linspace(-2, 2, 50)
    data = np.stack([t, t], axis=1)  # points on y = x
    model = pca_fit(data, 1)
    c0 = model.components[0]
    assert np.allclose(np.abs(c0), 1 / np.sqrt(2), atol=1e-9)
    assert c0[0] > 0  # sign rule: first nonzero coordinate positive
    assert model.components.shape[0] == 1
    # the one component reconstructs every point
    recon = pca_project(model, data) @ model.components + model.mean
    assert np.allclose(recon, data, atol=1e-9)


def test_orthonormal_components_and_distance_preservation():
    rng = Rng(21)
    data = rng.normal(size=(200, 8))
    model = pca_fit(data, 8)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(8)).max() <= 1e-5
    # full-rank orthonormal projection preserves pairwise distances
    sub = data[:20]
    proj = pca_project(model, sub)
    d_orig = np.linalg.norm(sub[:, None] - sub[None, :], axis=2)
    d_proj = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
    assert np.abs(d_orig - d_proj).max() <= 1e-5


def test_degenerate_zero_variance():
    data = np.ones((10, 5))
    model = pca_fit(data, 1)
    assert model.components.shape[0] == 1
    c0 = model.components[0]
    assert np.all(np.isfinite(c0))
    assert abs(np.linalg.norm(c0) - 1.0) <= 1e-12
    assert c0[np.nonzero(c0)[0][0]] > 0  # sign rule holds on a flat spectrum
    assert np.array_equal(pca_project(model, data), np.zeros((10, 1)))


def test_mean_projects_to_zero():
    rng = Rng(24)
    data = rng.normal(size=(50, 6)) + 3.0
    model = pca_fit(data, 4)
    assert np.allclose(pca_project(model, data.mean(axis=0)), 0.0, atol=1e-9)


def test_preconditions():
    with pytest.raises(FittingError, match=r"need at least 2 samples, got 1"):
        pca_fit(np.zeros((1, 4)), 2)
    with pytest.raises(FittingError, match=r"k must be in \[1, 4\], got 5"):
        pca_fit(np.zeros((10, 4)), 5)
    with pytest.raises(FittingError, match=r"data must be a 2-d matrix, got shape \(4,\)"):
        pca_fit(np.zeros(4), 1)
    with pytest.raises(FittingError, match=r"k=5 exceeds sample count 3"):
        pca_fit(np.zeros((3, 8)), 5)


def test_duplication_invariance():
    rng = Rng(25)
    data = rng.normal(size=(60, 5))
    m1 = pca_fit(data, 3)
    m2 = pca_fit(np.concatenate([data, data]), 3)
    assert np.allclose(m1.components, m2.components, atol=1e-8)


@pytest.mark.parametrize("flat_first", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_matches_loop_oracle_bit_for_bit(seed, flat_first):
    # negative leading coordinates make eigh return components the sign rule
    # flips; a constant first column leaves that coordinate negligible, so the
    # rule must look past it
    rng = Rng(26 + seed)
    data = -np.abs(rng.normal(size=(80, 7))) * rng.uniform(0.5, 3.0, size=7)
    if flat_first:
        data[:, 0] = -1.5
    for k in range(1, 8):
        model = pca_fit(data, k)
        mean, components = pca_fit_oracle(data, k)
        assert np.array_equal(model.mean, mean)
        assert np.array_equal(model.components, components)
        assert np.array_equal(pca_project(model, data), (data - mean) @ components.T)


def _peak_bytes(f, *args):
    """Peak bytes `f(*args)` allocates beyond what is held before the call, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_fit_and_project_hold_one_float64_copy():
    # a float32 [n, d] input: one float64 copy, centred in place, plus what
    # is [d] or [d, d] or [n, k] wide, stays under one and a half copies;
    # a separate centred array would make two
    n, d, k = 2000, 128, 8
    data = Rng(27).normal(size=(n, d)).astype(np.float32)
    model = pca_fit(data, k)
    one_copy = n * d * np.dtype(np.float64).itemsize
    assert _peak_bytes(pca_fit, data, k) < 1.5 * one_copy
    assert _peak_bytes(pca_project, model, data) < 1.5 * one_copy


def test_callers_array_is_not_written():
    float64 = Rng(28).normal(size=(40, 6)) + 2.0
    for data in (float64, float64.astype(np.float32)):
        kept = data.copy()
        model = pca_fit(data, 3)
        pca_project(model, data)
        pca_project(model, data[0])
        assert np.array_equal(data, kept)
