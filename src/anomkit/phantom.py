"""Deterministic synthetic "retina-like" volume generator with ground truth.

A phantom volume is a stack of slices, each showing a band of stacked
layers with smooth undulating boundaries, multiplicative speckle, and
optionally three kinds of anomalies:

  cyst_blob          dark ellipse inside the band
  subsurface_fluid   dark lens sitting on the bottom surface, lifting the
                     layer boundaries above it
  surface_deformation  local upward bump of the top surface

A `PhantomConfig` sets only the shape, the anomalies and the seed; the
appearance (layer intensities and shares, band position, boundary undulation,
speckle, background, cyst and fluid intensities) is the module constants.

Rendering works on whole-volume arrays: [slices, columns] surfaces and one
[slices, rows, columns] mask per layer and per anomaly window. It relies on
the window-fit rule: deformation and fluid windows start at column 2 or
later and keep two columns clear of each other, so no two share a column of
a slice. A window of `size + 2 > width` columns, or a cyst of semi-axis a
with `width <= 2a + 4`, raises `GenerationError`, as does a height too low
to hold the band at its minimum thickness below the top surface.

The surfaces undulate along a not-a-knot cubic spline through a few random
control points (`_smooth_curve`), the spline `scipy.interpolate.CubicSpline`
builds, evaluated here with numpy alone: importing `scipy.interpolate` would
load seven scipy subpackages (interpolate, linalg, optimize, sparse,
spatial, fft and constants) into every process, and the package loads no
scipy module at all. The two splines differ by under 1e-12 and the surfaces
are rounded to rows, so the volumes are those that `CubicSpline` gives;
`tests/oracles.phantom_oracle` keeps `CubicSpline` as the reference.

Generation is a pure function of the config (seed included), so the same
config reproduces bit-identical volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .rng import Rng

TYPE_NONE = 0
TYPE_CYST = 1
TYPE_FLUID = 2
TYPE_DEFORMATION = 3

KIND_TO_TYPE = {
    "cyst_blob": TYPE_CYST,
    "subsurface_fluid": TYPE_FLUID,
    "surface_deformation": TYPE_DEFORMATION,
}


@dataclass
class Volume:
    data: np.ndarray  # [slices, H, W] float32
    volume_id: str = ""


@dataclass
class GroundTruth:
    labels: np.ndarray  # [slices, H, W] uint8, TYPE_* values
    top: np.ndarray  # [slices, W] int true top surface rows
    bottom: np.ndarray  # [slices, W] int true bottom surface rows

    @property
    def mask(self):
        return self.labels != TYPE_NONE


@dataclass
class AnomalySpec:
    kind: str  # one of KIND_TO_TYPE
    count: tuple  # (min, max) inclusive
    size: tuple  # (min, max) major extent in px

    def validate(self):
        if self.kind not in KIND_TO_TYPE:
            raise InputError(f"unknown anomaly kind {self.kind!r}")
        if not (1 <= self.count[0] <= self.count[1]):
            raise InputError(f"bad count range {self.count} for {self.kind}")
        if not (4 <= self.size[0] <= self.size[1]):
            raise InputError(f"bad size range {self.size} for {self.kind}")


LAYER_INTENSITIES = (0.55, 0.65, 0.45, 0.75)  # top to bottom, at least 0.1 apart
LAYER_FRACTIONS = (0.25, 0.30, 0.25, 0.20)  # shares of the band
TOP_FRAC = 0.22  # mean surface rows as fractions of the height
BOTTOM_FRAC = 0.78
BOUNDARY_CONTROL_POINTS = 6  # per surface across the columns
BOUNDARY_AMPLITUDE = 5.0  # px, across the columns
SLICE_DRIFT = 2.0  # px, across the slices
SPECKLE = 0.10  # multiplicative noise is uniform in [1 - SPECKLE, 1 + SPECKLE)
VITREOUS_INTENSITY = 0.04
BELOW_INTENSITY = 0.07
CYST_INTENSITY = 0.12
FLUID_INTENSITY = 0.10


@dataclass
class PhantomConfig:
    width: int = 128
    height: int = 128
    n_slices: int = 8
    anomalies: tuple = ()
    seed: int = 0

    def validate(self):
        if self.width < 2:  # a surface spline needs two columns
            raise InputError(f"width {self.width} is under 2 columns")
        band = (BOTTOM_FRAC - TOP_FRAC) * self.height
        for spec in self.anomalies:
            spec.validate()
            if spec.size[1] > band:
                raise InputError(
                    f"{spec.kind} size {spec.size[1]} exceeds retina band {band:.0f}px"
                )


def _smooth_curve(rng: Rng, length, n_ctrl, amplitude):
    """Smooth 1-d undulation through uniform random control points.

    The not-a-knot cubic spline through `n_ctrl` evenly spaced points across
    `length` samples (`CubicSpline`'s default), on t scaled to [0, 1]. In the
    truncated-power basis {1, t, t^2, t^3} and (t - x_k)^3 for t > x_k, with
    knots x_2 ... x_{n-3}, it is the one interpolant of n basis functions; for
    n <= 4 points it is the interpolating polynomial of degree n - 1. It is
    not `CubicSpline` itself, which would load scipy (module docstring);
    `tests/oracles.phantom_oracle` renders with it.
    """
    xs = np.linspace(0.0, 1.0, n_ctrl)
    ys = rng.uniform(-amplitude, amplitude, size=n_ctrl)

    def basis(t):
        powers = t[:, None] ** np.arange(min(n_ctrl, 4))
        return np.hstack([powers, np.maximum(t[:, None] - xs[2:-2], 0.0) ** 3])

    return basis(np.arange(length) / (length - 1)) @ np.linalg.solve(basis(xs), ys)


def _boundaries(cfg: PhantomConfig, rng: Rng):
    """Top/bottom surface rows per (slice, column), integer valued."""
    w, h, s = cfg.width, cfg.height, cfg.n_slices
    u_top = _smooth_curve(rng, w, BOUNDARY_CONTROL_POINTS, BOUNDARY_AMPLITUDE)
    u_bot = _smooth_curve(rng, w, BOUNDARY_CONTROL_POINTS, BOUNDARY_AMPLITUDE)
    drift_top = _smooth_curve(rng, s, min(s, 4), SLICE_DRIFT) if s > 1 else np.zeros(s)
    drift_bot = _smooth_curve(rng, s, min(s, 4), SLICE_DRIFT) if s > 1 else np.zeros(s)
    top = TOP_FRAC * h + u_top[None, :] + drift_top[:, None]
    bottom = BOTTOM_FRAC * h + u_bot[None, :] + drift_bot[:, None]
    top = np.clip(np.round(top), 2, h - 10).astype(np.int64)
    bottom = np.clip(np.round(bottom), 0, h - 3).astype(np.int64)
    min_band = max(12, int(0.25 * (BOTTOM_FRAC - TOP_FRAC) * h))
    bottom = np.maximum(bottom, top + min_band)
    if bottom.max() >= h:
        raise GenerationError(f"retina band reaches row {bottom.max()}, below a volume "
                              f"of height {h}")
    return top, bottom


def generate_volume(config: PhantomConfig, volume_id=""):
    """Render one volume plus its voxel-wise ground truth."""
    config.validate()
    rng = Rng(config.seed)
    w, h, s = config.width, config.height, config.n_slices
    top, bottom = _boundaries(config, rng)
    labels = np.zeros((s, h, w), dtype=np.uint8)
    rows = np.arange(h)[None, :, None]  # broadcasts against [slices, 1, columns]

    by_kind = {kind: [] for kind in KIND_TO_TYPE}  # each spec as many times as it occurs
    for spec in config.anomalies:
        by_kind[spec.kind] += [spec] * int(rng.integers(spec.count[0], spec.count[1] + 1))

    # columns taken by boundary anomalies: windows keep 2 columns apart, so no
    # two of them share a column of a slice and each is rendered on its own
    claimed = np.zeros((s, w), dtype=bool)

    def _place_window(spec, rng):
        size = int(rng.integers(spec.size[0], spec.size[1] + 1))
        if size + 2 > w:  # windows start at column 2 or later
            raise GenerationError(f"{spec.kind} of size {size} does not fit {w} columns")
        for _ in range(60):
            ext = int(rng.integers(2, max(3, s // 2) + 1)) if s > 2 else s
            s0 = int(rng.integers(0, max(1, s - ext + 1)))
            c0 = int(rng.integers(2, max(3, w - size - 2)))
            if not claimed[s0 : s0 + ext, max(0, c0 - 2) : c0 + size + 2].any():
                claimed[s0 : s0 + ext, c0 : c0 + size] = True
                return np.s_[s0 : s0 + ext], np.s_[c0 : c0 + size], c0, size
        raise GenerationError(f"could not place {spec.kind} (size range {spec.size})")

    # boundary-modifying anomalies first: they reshape the surfaces that the
    # layer render below derives from
    for spec in by_kind["surface_deformation"]:
        sl, cl, c0, size = _place_window(spec, rng)
        height_b = max(3, size // 3)
        cs = np.arange(c0, c0 + size)
        bump = np.round(height_b * np.cos(np.pi * (cs - (c0 + size / 2)) / size) ** 2).astype(int)
        old_top = top[sl, cl]
        new_top = np.maximum(old_top - bump, 2)
        # added tissue plus the curvature-distorted zone just below
        lo_end = np.minimum(old_top + bump // 2, bottom[sl, cl])
        raised = (new_top < old_top)[:, None, :]
        span = (rows >= new_top[:, None, :]) & (rows < lo_end[:, None, :])
        labels[sl, :, cl][raised & span] = TYPE_DEFORMATION
        top[sl, cl] = new_top

    # layer boundaries from the final surfaces; fluid lenses lift the interior
    # ones above them in proportion to their depth
    fractions = np.asarray(LAYER_FRACTIONS, dtype=np.float64)
    cum = np.cumsum(fractions) / fractions.sum()
    bounds = [top] + [np.round(top + f * (bottom - top)).astype(int) for f in cum[:-1]]
    bounds.append(bottom + 1)
    fluid_regions = []
    for spec in by_kind["subsurface_fluid"]:
        sl, cl, c0, size = _place_window(spec, rng)
        h0 = max(3, size // 3)
        rel = 2.0 * (np.arange(c0, c0 + size) - (c0 + size / 2.0)) / size
        lift = np.round(h0 * np.sqrt(np.maximum(0.0, 1.0 - rel**2))).astype(int)
        for k, f in enumerate(cum[:-1], start=1):
            bounds[k][sl, cl] = np.maximum(bounds[k][sl, cl] - np.round(lift * f).astype(int),
                                           top[sl, cl] + 1)
        fluid_regions.append((sl, cl, lift))
    vol = np.full((s, h, w), VITREOUS_INTENSITY)
    vol[rows > bottom[:, None, :]] = BELOW_INTENSITY
    for k, inten in enumerate(LAYER_INTENSITIES):
        vol[(rows >= bounds[k][:, None, :]) & (rows < bounds[k + 1][:, None, :])] = inten

    # paint fluid lenses and mark their ground truth; a bright 3-px remnant of
    # the bottom layer stays below the lens so the bottom edge remains visible.
    # The tissue displaced upward by the lens is part of the anomalous region
    # (its layers are visibly shifted), so the label extends above the fluid.
    for sl, cl, lift in fluid_regions:
        floor = top[sl, cl] + 1
        r1 = bottom[sl, cl] - 2
        r0 = np.maximum(floor, r1 - lift)
        r_displaced = np.maximum(floor, r0 - lift)
        lens = ((lift >= 1) & (r0 < r1))[:, None, :] & (rows < r1[:, None, :])
        vol[sl, :, cl][lens & (rows >= r0[:, None, :])] = FLUID_INTENSITY
        labels[sl, :, cl][lens & (rows >= r_displaced[:, None, :])] = TYPE_FLUID

    # cysts: dark ellipses in the middle of the band (intraretinal fluid does
    # not touch the surfaces), retried until they fit cleanly
    rr, cc = np.ogrid[0:h, 0:w]
    for spec in by_kind["cyst_blob"]:
        size = int(rng.integers(spec.size[0], spec.size[1] + 1))
        a, b_ax = max(3, size // 2), max(2, size // 4)
        if w <= 2 * a + 4:  # the centre column is drawn from [a + 2, w - a - 2)
            raise GenerationError(f"cyst_blob of size {size} does not fit {w} columns")
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
            ell = ((rr - r_mid) / b_ax) ** 2 + ((cc - c_mid) / a) ** 2 <= 1.0
            if labels[s0 : s0 + ext, ell].any():
                continue
            vol[s0 : s0 + ext, ell] = CYST_INTENSITY
            labels[s0 : s0 + ext, ell] = TYPE_CYST
            break
        else:
            raise GenerationError(f"could not place cyst_blob (size range {spec.size})")

    vol *= 1.0 + rng.uniform(-SPECKLE, SPECKLE, size=vol.shape)
    volume = Volume(data=vol.astype(np.float32), volume_id=volume_id)
    gt = GroundTruth(labels=labels, top=top, bottom=bottom)
    return volume, gt


def healthy_config(seed, **overrides) -> PhantomConfig:
    return PhantomConfig(seed=seed, anomalies=(), **overrides)


def anomalous_config(seed, **overrides) -> PhantomConfig:
    specs = (
        AnomalySpec("cyst_blob", count=(1, 2), size=(16, 28)),
        AnomalySpec("subsurface_fluid", count=(1, 2), size=(24, 40)),
        AnomalySpec("surface_deformation", count=(1, 1), size=(16, 28)),
    )
    return PhantomConfig(seed=seed, anomalies=specs, **overrides)


def test_config(seed, **overrides) -> PhantomConfig:
    """Annotated-split config: every anomaly kind occurs, generously sized."""
    specs = (
        AnomalySpec("cyst_blob", count=(2, 3), size=(24, 36)),
        AnomalySpec("subsurface_fluid", count=(2, 2), size=(28, 44)),
        AnomalySpec("surface_deformation", count=(1, 1), size=(18, 28)),
    )
    return PhantomConfig(seed=seed, anomalies=specs, **overrides)


@dataclass
class BenchmarkData:
    healthy: list  # [(Volume, GroundTruth)]
    anomalous: list
    test: list


def generate_benchmark(seed=42, n_healthy=40, n_anomalous=40, n_test=8,
                       shape_overrides=None) -> BenchmarkData:
    """Desk-scale dataset triple with a fixed published seed.

    Sub-seeds derive as seed XOR global volume index, so individual volumes
    can be regenerated independently. Nearby seeds therefore share volumes:
    with 3 healthy, 2 anomalous and 10 test volumes, seeds 1, 2 and 3 share 8
    of their 10 test volumes pairwise.
    """
    overrides = dict(shape_overrides or {})
    splits = ((healthy_config, n_healthy, "healthy"), (anomalous_config, n_anomalous, "anomaly"),
              (test_config, n_test, "test"))
    volumes, idx = [], 0
    for config, count, name in splits:
        volumes.append([generate_volume(config(seed ^ (idx + i), **overrides), f"{name}-{i:03d}")
                        for i in range(count)])
        idx += count
    return BenchmarkData(*volumes)
