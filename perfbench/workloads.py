"""The benchmark's workloads, driven only through anomkit's public functions.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. An operation is one fit stage or one
scored volume.

  fit       fits the DCAE path, and the PCA comparison on the same pairs, from
            raw volumes; numcore training is most of it
  screen    scores test volumes one at a time with a model fit in set-up;
            numcore runs forward-only inference at batch 512

The workload seed makes the phantom volumes and the cap subsample. Model
initialisation and training draw from MODEL_SEED: across four init seeds on
the same data, mean Dice ranged 0.25-0.42, which would bury any change the
benchmark is meant to show.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from anomkit import baseline_pca, cluster, dcae, metrics, ocsvm, patches, phantom, preprocess
from anomkit.rng import Rng

import checks
from spans import NullTracer, Tracer

MODEL_SEED = 0
NU = 0.1
K_RANGE = (2, 10)
PRESET = "desk"
SETUP_REPEATS = 5
TINY_SHAPE = {"n_slices": 6, "height": 96, "width": 128}


@dataclass(frozen=True)
class Workload:
    name: str
    n_healthy: int
    n_anomalous: int
    n_test: int
    cap: int  # healthy-train pairs kept
    epochs: int
    fusion_epochs: int
    fit_in_setup: bool = False  # screen: the model is set-up, volumes are timed
    shape: dict | None = None  # phantom overrides; None is the desk 8x128x128


WORKLOADS = {
    "fit": Workload("fit", n_healthy=3, n_anomalous=2, n_test=10, cap=4000, epochs=2,
                    fusion_epochs=4),
    "screen": Workload("screen", n_healthy=1, n_anomalous=1, n_test=10, cap=2000, epochs=1,
                       fusion_epochs=2, fit_in_setup=True),
}

# smoke-test sizes: same paths, small volumes
TINY = {
    "fit": Workload("fit", 1, 1, 2, cap=300, epochs=1, fusion_epochs=1, shape=TINY_SHAPE),
    "screen": Workload("screen", 1, 1, 2, cap=300, epochs=1, fusion_epochs=1,
                       fit_in_setup=True, shape=TINY_SHAPE),
}


class Run:
    """Operation and failure counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def stage(self, tr, name, fn, *args, **kwargs):
        self.attempted += 1
        return call(tr, name, fn, *args, **kwargs)

    def fail(self, what, problems):
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def call(tr, name, fn, *args, **kwargs):
    with tr.span(name):
        return fn(*args, **kwargs)


def count_prep(tr, prep):
    tr.add("preprocess.volumes", 1)
    tr.add("preprocess.superpixels", len(prep.superpixels))
    tr.add("preprocess.in_retina", sum(sp.in_retina for sp in prep.superpixels))


@dataclass
class Fitted:
    model: dcae.DcaeModel
    svm: ocsvm.OcSvmModel
    clusters: cluster.ClusterModel
    z_healthy: np.ndarray
    z_anomaly: np.ndarray
    z_pca: np.ndarray  # the PCA comparison's features of the healthy pairs
    anomaly_preps: list
    anomaly_sources: list
    flagged: np.ndarray  # bool per anomaly-train row
    cluster_ids: np.ndarray  # per flagged row


def preprocess_all(run, tr, pairs):
    preps = []
    for volume, _ in pairs:
        prep = run.stage(tr, "preprocess.preprocess_volume", preprocess.preprocess_volume,
                         volume.data)
        count_prep(tr, prep)
        preps.append((volume.volume_id, prep))
    return preps


def fit_model(w, data, seed, run, tr):
    """Raw volumes to a fitted OC-SVM and centroids, as in the paper, plus the
    paper's PCA comparison fit on the same healthy pairs."""
    model_rng = Rng(MODEL_SEED)
    with tr.span("fit"):
        preps = preprocess_all(run, tr, data.healthy)
        ds = run.stage(tr, "patches.build_dataset", patches.build_dataset, preps,
                       "healthy-train", PRESET, rng=Rng(seed), cap=w.cap,
                       ground_truths=[gt for _, gt in data.healthy])
        tr.add("patches.extracted", sum(len(checks.in_retina(p)) for _, p in preps))
        tr.add("patches.pairs", len(ds))
        pca = run.stage(tr, "baseline_pca.fit_pca_baseline", baseline_pca.fit_pca_baseline,
                        ds, "fixed")
        zp = run.stage(tr, "baseline_pca.embed_batches", baseline_pca.embed_batches, pca,
                       ds.scale1, ds.scale2)
        model = run.stage(tr, "dcae.build_model", dcae.build_model, PRESET, model_rng.derive(1))
        hyper = dcae.TrainConfig(epochs=w.epochs, fusion_epochs=w.fusion_epochs)
        run.stage(tr, "dcae.train_dcae", dcae.train_dcae, model, ds, hyper, model_rng.derive(2))
        run.stage(tr, "dcae.train_fusion", dcae.train_fusion, model, ds, hyper,
                  model_rng.derive(3))
        tr.add("dcae.train_pairs", len(ds) * w.epochs)
        tr.set("dcae.final_loss", model.scale_log[-1][1])
        tr.set("dcae.fusion_final_loss", model.fusion_log[-1][1])
        z = run.stage(tr, "dcae.embed_dataset", dcae.embed_dataset, model, ds)
        svm = run.stage(tr, "ocsvm.fit_ocsvm", ocsvm.fit_ocsvm, z, NU)

        apreps = preprocess_all(run, tr, data.anomalous)
        ads = run.stage(tr, "patches.build_dataset", patches.build_dataset, apreps,
                        "anomaly-train", PRESET)
        tr.add("patches.extracted", len(ads))
        tr.add("patches.pairs", len(ads))
        za = run.stage(tr, "dcae.embed_dataset", dcae.embed_dataset, model, ads)
        flagged = run.stage(tr, "ocsvm.decision_values", ocsvm.decision_values, svm, za) < 0.0
        clusters = run.stage(tr, "cluster.select_k", cluster.select_k, za[flagged], K_RANGE,
                             model_rng.derive(4))
        ids = run.stage(tr, "cluster.assign_batch", cluster.assign_batch, clusters, za[flagged])

    tr.set("ocsvm.n_iter", svm.n_iter)
    tr.set("ocsvm.w_norm", float(np.linalg.norm(svm.w)))
    tr.set("ocsvm.kkt_violation", svm.kkt_violation)
    tr.set("ocsvm.train_outlier_frac", float(np.mean(ocsvm.decision_values(svm, z) < 0.0)))
    tr.set("cluster.n_vectors", int(flagged.sum()))
    tr.set("cluster.k", clusters.k)
    tr.set("cluster.db_best", min(db for _, db in clusters.db_trace))
    return Fitted(model, svm, clusters, z, za, zp, [p for _, p in apreps], list(ads.sources),
                  flagged, ids)


def fit_quality(fitted, anomaly_labels):
    """(nu_gap, cluster_purity) of one fit; anomaly_labels are flattened GT."""
    types = []
    for labels, prep in zip(anomaly_labels, fitted.anomaly_preps):
        types.extend(metrics.superpixel_majority_type(sp, labels[sp.slice_index])
                     for sp in checks.in_retina(prep))
    return (checks.nu_gap(fitted.svm, fitted.z_healthy),
            checks.cluster_purity(np.asarray(types)[fitted.flagged], fitted.cluster_ids))


def fit_problems(fitted, quality, first):
    """Failed output checks of one fit, against the first fit of the run."""
    problems = []
    if not all(np.all(np.isfinite(z)) for z in (fitted.z_healthy, fitted.z_anomaly,
                                                   fitted.z_pca)):
        problems.append("non-finite embeddings")
    rows = [(src[0], sp.slice_index, sp.id) for src, sp in zip(
        fitted.anomaly_sources,
        [sp for prep in fitted.anomaly_preps for sp in checks.in_retina(prep)])]
    if rows != fitted.anomaly_sources:
        problems.append("anomaly-train rows are not aligned with the in-retina superpixels")
    if first is not None:
        first_fit, first_quality = first
        same = (quality == first_quality
                and np.array_equal(fitted.svm.w, first_fit.svm.w)
                and fitted.svm.rho == first_fit.svm.rho
                and np.array_equal(fitted.clusters.centroids, first_fit.clusters.centroids))
        if not same:
            problems.append("a second fit with the same seed gave different results")
    return problems


def score_volume(fitted, volume, tr):
    """Screen one raw volume: its anomaly map with cluster ids."""
    with tr.span("screen"):
        prep = call(tr, "preprocess.preprocess_volume", preprocess.preprocess_volume,
                    volume.data)
        count_prep(tr, prep)
        ds = call(tr, "patches.build_dataset", patches.build_dataset,
                  [(volume.volume_id, prep)], "eval", PRESET)
        tr.add("patches.extracted", len(ds))
        tr.add("patches.pairs", len(ds))
        z = call(tr, "dcae.embed_dataset", dcae.embed_dataset, fitted.model, ds)
        amap = call(tr, "ocsvm.segment_volume", ocsvm.segment_volume, fitted.svm, z,
                    checks.in_retina(prep), volume.data.shape)
        amap.cluster_ids = call(tr, "cluster.assign_batch", cluster.assign_batch,
                                fitted.clusters, z[amap.labels]) if amap.labels.any() \
            else np.zeros(0, dtype=np.int64)
    return prep, ds, z, amap


@dataclass
class Outcome:
    """What one run measured, before it becomes the printed metrics."""

    setup_s: float
    fit_walls: list
    latencies: list
    dice: list
    nu_gap: float
    purity: float
    setup_tracer: object
    timed_tracer: object
    overhead_frac: float


class Screener:
    """Scores test volumes, checks every map, and compares re-scores."""

    def __init__(self, run, fitted, data):
        self.run, self.fitted, self.data = run, fitted, data
        self.first = {}  # test index -> (dice, mask, cluster ids)
        self.labels = {}

    def score(self, index, tr):
        volume, gt = self.data.test[index]
        self.run.attempted += 1
        t0 = time.perf_counter()
        prep, ds, z, amap = score_volume(self.fitted, volume, tr)
        wall = time.perf_counter() - t0
        problems = checks.volume_problems(volume, prep, ds, z, amap)
        if index not in self.labels:
            self.labels[index] = checks.flat_labels(volume, gt)
        result = (checks.dice(prep, amap, self.labels[index]), amap.pixel_mask,
                  amap.cluster_ids)
        if index in self.first:
            old = self.first[index]
            if not (old[0] == result[0] and np.array_equal(old[1], result[1])
                    and np.array_equal(old[2], result[2])):
                problems.append("re-scoring with the same model gave a different map")
        else:
            self.first[index] = result
        self.run.fail(volume.volume_id, problems)
        return wall

    def dice(self):
        return [self.first[i][0] for i in sorted(self.first)]


def generate(w, seed):
    """The workload's phantoms, generated SETUP_REPEATS times: (data, median
    seconds, whether every generation was identical)."""
    times, arrays = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        data = phantom.generate_benchmark(seed, w.n_healthy, w.n_anomalous, w.n_test,
                                          shape_overrides=w.shape)
        times.append(time.perf_counter() - t0)
        arrays.append([a for v, gt in data.healthy + data.anomalous + data.test
                       for a in (v.data, gt.labels)])
    same = all(np.array_equal(a, b) for other in arrays[1:] for a, b in zip(arrays[0], other))
    return data, statistics.median(times), same


def run_workload(w, seed, seconds, trace, run):
    """Set up, run the timed phase for `seconds`, and check the outputs."""
    data, setup_s, same = generate(w, seed)
    run.fail("set-up", [] if same else ["phantoms differ between generations with one seed"])
    setup_tr = Tracer() if trace else NullTracer()
    timed_tr = Tracer() if trace else NullTracer()
    anomaly_labels = [checks.flat_labels(v, gt) for v, gt in data.anomalous]
    fit_walls, plain, traced = [], [], []
    first = last = None  # (Fitted, quality)

    def one_fit(tr):
        nonlocal first, last
        t0 = time.perf_counter()
        fitted = fit_model(w, data, seed, run, tr)
        wall = time.perf_counter() - t0
        quality = fit_quality(fitted, anomaly_labels)
        run.fail(f"fit {len(fit_walls)}", fit_problems(fitted, quality, first))
        last = (fitted, quality)
        first = first or last
        fit_walls.append(wall)
        return wall

    if w.fit_in_setup:
        setup_s += one_fit(setup_tr)
        screener = Screener(run, last[0], data)
        # a second pass over the volumes checks that re-scoring repeats; when
        # tracing, that pass is the traced one, so both passes score the same volumes
        n, least = 0, 2 * w.n_test if trace else w.n_test + 1
        while n < least or (not trace and sum(plain) < seconds):
            in_trace = trace and n >= w.n_test
            wall = screener.score(n % w.n_test, timed_tr if in_trace else NullTracer())
            (traced if in_trace else plain).append(wall)
            n += 1
        latencies = plain + traced
        overhead = sum(traced) / sum(plain) - 1.0 if trace else 0.0
    else:
        # tracing fits once untraced and once traced, to measure the overhead
        while len(fit_walls) < (2 if trace else 1) or sum(fit_walls) < seconds:
            in_trace = trace and len(fit_walls) % 2 == 1
            wall = one_fit(timed_tr if in_trace else NullTracer())
            (traced if in_trace else plain).append(wall)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if trace else 0.0
        screener = Screener(run, last[0], data)
        # the first volume is scored twice, which checks that re-scoring repeats
        latencies = [screener.score(i % w.n_test, NullTracer()) for i in range(w.n_test + 1)]

    return Outcome(setup_s, fit_walls, latencies, screener.dice(), *last[1],
                        setup_tr, timed_tr, overhead)
