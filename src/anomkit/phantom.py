"""Deterministic synthetic "retina-like" volume generator with ground truth.

A phantom volume is a stack of slices, each showing a band of stacked
layers with smooth undulating boundaries, multiplicative speckle, and
optionally three kinds of anomalies:

  cyst_blob          dark ellipse inside the band
  subsurface_fluid   dark lens sitting on the bottom surface, lifting the
                     layer boundaries above it
  surface_deformation  local upward bump of the top surface

Generation is a pure function of the config (seed included), so the same
config reproduces bit-identical volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline

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


@dataclass
class PhantomConfig:
    width: int = 128
    height: int = 128
    n_slices: int = 8
    layer_intensities: tuple = (0.55, 0.65, 0.45, 0.75)
    layer_fractions: tuple = (0.25, 0.30, 0.25, 0.20)
    top_frac: float = 0.22
    bottom_frac: float = 0.78
    boundary_control_points: int = 6
    boundary_amplitude: float = 5.0
    slice_drift: float = 2.0
    speckle: float = 0.10
    vitreous_intensity: float = 0.04
    below_intensity: float = 0.07
    cyst_intensity: float = 0.12
    fluid_intensity: float = 0.10
    anomalies: tuple = ()
    seed: int = 0

    def validate(self):
        ints = self.layer_intensities
        if len(ints) != len(self.layer_fractions):
            raise InputError("layer_intensities and layer_fractions differ in length")
        for i in range(len(ints)):
            for j in range(i + 1, len(ints)):
                if abs(ints[i] - ints[j]) < 0.1 - 1e-9:
                    raise InputError(
                        f"layer intensities {ints[i]} and {ints[j]} closer than 0.1"
                    )
        band = (self.bottom_frac - self.top_frac) * self.height
        for spec in self.anomalies:
            spec.validate()
            if spec.size[1] > band:
                raise InputError(
                    f"{spec.kind} size {spec.size[1]} exceeds retina band {band:.0f}px"
                )
        if not 0 <= self.speckle < 1:
            raise InputError(f"speckle strength must be in [0,1), got {self.speckle}")


def _smooth_curve(rng: Rng, length, n_ctrl, amplitude):
    """Smooth 1-d undulation through uniform random control points."""
    if amplitude == 0 or n_ctrl < 2:
        return np.zeros(length)
    xs = np.linspace(0, length - 1, n_ctrl)
    ys = rng.uniform(-amplitude, amplitude, size=n_ctrl)
    return CubicSpline(xs, ys)(np.arange(length))


def _boundaries(cfg: PhantomConfig, rng: Rng):
    """Top/bottom surface rows per (slice, column), integer valued."""
    w, h, s = cfg.width, cfg.height, cfg.n_slices
    u_top = _smooth_curve(rng, w, cfg.boundary_control_points, cfg.boundary_amplitude)
    u_bot = _smooth_curve(rng, w, cfg.boundary_control_points, cfg.boundary_amplitude)
    drift_top = _smooth_curve(rng, s, min(s, 4), cfg.slice_drift) if s > 1 else np.zeros(s)
    drift_bot = _smooth_curve(rng, s, min(s, 4), cfg.slice_drift) if s > 1 else np.zeros(s)
    top = cfg.top_frac * h + u_top[None, :] + drift_top[:, None]
    bottom = cfg.bottom_frac * h + u_bot[None, :] + drift_bot[:, None]
    top = np.clip(np.round(top), 2, h - 10).astype(np.int64)
    bottom = np.clip(np.round(bottom), 0, h - 3).astype(np.int64)
    min_band = max(12, int(0.25 * (cfg.bottom_frac - cfg.top_frac) * h))
    bottom = np.maximum(bottom, top + min_band)
    return top, bottom


def generate_volume(config: PhantomConfig, volume_id=""):
    """Render one volume plus its voxel-wise ground truth."""
    config.validate()
    rng = Rng(config.seed)
    w, h, s = config.width, config.height, config.n_slices
    top, bottom = _boundaries(config, rng)
    labels = np.zeros((s, h, w), dtype=np.uint8)

    specs = []
    for spec in config.anomalies:
        n = int(rng.integers(spec.count[0], spec.count[1] + 1))
        specs.extend([spec] * n)

    # boundary-modifying anomalies first: they reshape the surfaces that the
    # layer render below derives from
    pre_top = top.copy()
    deform_jobs, fluid_jobs, cyst_specs = [], [], []
    for spec in specs:
        if spec.kind == "surface_deformation":
            deform_jobs.append(spec)
        elif spec.kind == "subsurface_fluid":
            fluid_jobs.append(spec)
        else:
            cyst_specs.append(spec)

    claimed = np.zeros((s, w), dtype=bool)  # columns taken by boundary anomalies

    def _place_window(spec, rng):
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
        s0, ext, c0, size = _place_window(spec, rng)
        height_b = max(3, size // 3)
        cs = np.arange(c0, c0 + size)
        bump = np.round(height_b * np.cos(np.pi * (cs - (c0 + size / 2)) / size) ** 2).astype(int)
        for si in range(s0, s0 + ext):
            new_top = np.maximum(top[si, cs] - bump, 2)
            for c, nt, bp in zip(cs, new_top, bump):
                if nt < pre_top[si, c]:
                    # added tissue plus the curvature-distorted zone just below
                    lo_end = min(pre_top[si, c] + bp // 2, bottom[si, c])
                    labels[si, nt:lo_end, c] = TYPE_DEFORMATION
            top[si, cs] = new_top

    fluid_regions = []
    for spec in fluid_jobs:
        s0, ext, c0, size = _place_window(spec, rng)
        h0 = max(3, size // 3)
        cs = np.arange(c0, c0 + size)
        rel = 2.0 * (cs - (c0 + size / 2.0)) / size
        lift = np.round(h0 * np.sqrt(np.maximum(0.0, 1.0 - rel**2))).astype(int)
        fluid_regions.append((s0, ext, cs, lift))

    # render base layers from the final surfaces
    fractions = np.asarray(config.layer_fractions, dtype=np.float64)
    cum = np.cumsum(fractions) / fractions.sum()
    vol = np.empty((s, h, w), dtype=np.float64)
    rows = np.arange(h)[:, None]
    for si in range(s):
        t, b = top[si][None, :], bottom[si][None, :]
        img = np.full((h, w), config.vitreous_intensity)
        img[rows.repeat(w, 1) > b.repeat(h, 0)] = config.below_intensity
        bounds = [t]
        for f in cum[:-1]:
            bounds.append(np.round(t + f * (b - t)).astype(int))
        bounds.append(b + 1)
        # lift interior boundaries over fluid lenses, proportional to depth
        for (fs0, fext, cs, lift) in fluid_regions:
            if fs0 <= si < fs0 + fext:
                for k, f in enumerate(cum[:-1], start=1):
                    bounds[k][0, cs] = np.maximum(
                        bounds[k][0, cs] - np.round(lift * f).astype(int), t[0, cs] + 1
                    )
        for k, inten in enumerate(config.layer_intensities):
            m = (rows >= bounds[k]) & (rows < bounds[k + 1])
            img[m] = inten
        vol[si] = img

    # paint fluid lenses and mark their ground truth; a bright 3-px remnant of
    # the bottom layer stays below the lens so the bottom edge remains visible.
    # The tissue displaced upward by the lens is part of the anomalous region
    # (its layers are visibly shifted), so the label extends above the fluid.
    for (fs0, fext, cs, lift) in fluid_regions:
        for si in range(fs0, fs0 + fext):
            for c, lf in zip(cs, lift):
                if lf < 1:
                    continue
                r1 = bottom[si, c] - 2
                r0 = max(top[si, c] + 1, r1 - lf)
                if r0 < r1:
                    vol[si, r0:r1, c] = config.fluid_intensity
                    r_displaced = max(top[si, c] + 1, r0 - lf)
                    labels[si, r_displaced:r1, c] = TYPE_FLUID

    # cysts: dark ellipses in the middle of the band (intraretinal fluid does
    # not touch the surfaces), retried until they fit cleanly
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
                vol[si][ell] = config.cyst_intensity
                labels[si][ell] = TYPE_CYST
            placed = True
            break
        if not placed:
            raise GenerationError(f"could not place cyst_blob (size range {spec.size})")

    vol *= 1.0 + rng.uniform(-config.speckle, config.speckle, size=vol.shape)
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
    seed: int = 0


def generate_benchmark(seed=42, n_healthy=40, n_anomalous=40, n_test=8,
                       shape_overrides=None) -> BenchmarkData:
    """Desk-scale dataset triple with a fixed published seed.

    Sub-seeds derive as seed XOR global volume index, so individual volumes
    can be regenerated independently.
    """
    overrides = dict(shape_overrides or {})
    healthy, anomalous, test = [], [], []
    idx = 0
    for i in range(n_healthy):
        cfg = healthy_config(seed ^ idx, **overrides)
        healthy.append(generate_volume(cfg, volume_id=f"healthy-{i:03d}"))
        idx += 1
    for i in range(n_anomalous):
        cfg = anomalous_config(seed ^ idx, **overrides)
        anomalous.append(generate_volume(cfg, volume_id=f"anomaly-{i:03d}"))
        idx += 1
    for i in range(n_test):
        cfg = test_config(seed ^ idx, **overrides)
        test.append(generate_volume(cfg, volume_id=f"test-{i:03d}"))
        idx += 1
    return BenchmarkData(healthy=healthy, anomalous=anomalous, test=test, seed=seed)
