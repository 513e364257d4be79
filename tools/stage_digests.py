"""Print one SHA-256 per stage and seed of a benchmark workload's outputs.

    python3 tools/stage_digests.py --workload fit --seeds 1 2 3 [--tiny]

Run from the repository root. For each seed it fits the workload's model
once through `perfbench/workloads.fit_model` and scores each test volume
once through `score_volume`, with the benchmark's sizes (`--tiny`: its
smoke-test sizes) and its one BLAS thread. Two trees, or two settings of one
tree, keep a stage's outputs bit-identical where they print the same line
for it. Lines are `<seed> <stage> <sha256>`:

  phantoms                 every volume and its ground truth
  prep:<volume id>         each fitted volume's preprocessed data and
                           surfaces
  superpixels:<volume id>  each fitted volume's superpixel table
  dataset:<split>          the healthy-train and anomaly-train maps, corners
                           and sources
  params:<network>         scale1, scale2 and fusion's trained parameters
  loss-logs                the scale and fusion loss logs
  z:<rows>                 z of the healthy and anomaly-train pairs, and the
                           PCA comparison's features of the healthy pairs
  ocsvm                    the OC-SVM's w and rho
  clusters                 the centroids and the flagged rows' cluster ids
  screen:<volume id>       each test volume's pixel mask, scores and
                           cluster ids

Each array is hashed after its dtype and shape, each list or tuple after its
length, and each scalar after its type name and the length of its repr, so
no two different outputs feed the hash the same bytes (a list and a tuple of
the same items count as one output).

The first line names OpenBLAS's sgemm core and numpy's enabled SIMD
targets: from training on, the digests depend on both.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import BLAS_THREADS  # noqa: E402  perfbench's run.py imports no numpy

# before numpy loads, so that its BLAS starts with the benchmark's thread count
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def kernels():
    """The OpenBLAS core name and numpy's enabled SIMD targets."""
    corename = getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
    core = corename().decode() if corename is not None else "unknown"
    features = _multiarray_umath.__cpu_features__
    simd = _multiarray_umath.__cpu_baseline__ + [
        t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    return f"openblas-core={core} numpy-simd={','.join(simd)}"


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:  # str, int, float, None
        # framed by type and length: bare reprs run together, and (1, 23)
        # would feed the hash the bytes of (12, 3)
        r = repr(obj).encode()
        h.update(f"{type(obj).__name__}:{len(r)}:".encode() + r)


def digest(*parts):
    h = hashlib.sha256()
    _feed(h, parts)
    return h.hexdigest()


class Recorder(workloads.Run):
    """A benchmark run that keeps each stage's output, by stage name."""

    def __init__(self):
        super().__init__()
        self.outputs = {}

    def stage(self, tr, name, fn, *args, **kwargs):
        out = super().stage(tr, name, fn, *args, **kwargs)
        self.outputs.setdefault(name, []).append(out)
        return out


def stage_digests(w, seed):
    """(stage, digest) pairs of one fit and one score of each test volume."""
    data, _, _ = workloads.generate(w, seed)
    volumes = data.healthy + data.anomalous + data.test
    yield "phantoms", digest([(v.volume_id, v.data, gt.labels, gt.top, gt.bottom)
                              for v, gt in volumes])
    run = Recorder()
    fitted = workloads.fit_model(w, data, seed, run, NullTracer())
    preps = run.outputs["preprocess.preprocess_volume"]
    for (volume, _), prep in zip(data.healthy + data.anomalous, preps, strict=True):
        yield f"prep:{volume.volume_id}", digest(prep.data, prep.surfaces.top,
                                                 prep.surfaces.bottom)
        yield f"superpixels:{volume.volume_id}", digest(prep.table)
    for ds in run.outputs["patches.build_dataset"]:
        yield f"dataset:{ds.split}", digest(ds.maps, ds.sources)
    model = fitted.model
    for name in ("scale1", "scale2", "fusion"):
        yield f"params:{name}", digest(getattr(model, name).params())
    yield "loss-logs", digest(model.scale_log, model.fusion_log)
    yield "z:healthy-train", digest(fitted.z_healthy)
    yield "z:anomaly-train", digest(fitted.z_anomaly)
    yield "z:pca", digest(fitted.z_pca)
    yield "ocsvm", digest(fitted.svm.w, fitted.svm.rho)
    yield "clusters", digest(fitted.clusters.centroids, fitted.cluster_ids)
    for volume, _ in data.test:
        amap = workloads.score_volume(fitted, volume, NullTracer())[3]
        yield f"screen:{volume.volume_id}", digest(amap.pixel_mask, amap.scores,
                                                   amap.cluster_ids)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "screen"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    w = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    print(f"# {args.workload}{' --tiny' if args.tiny else ''} {kernels()}", flush=True)
    for seed in args.seeds:
        for stage, value in stage_digests(w, seed):
            print(seed, stage, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
