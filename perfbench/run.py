"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 15 --trace 0

Run from the repository root. With `--trace 0` the last line of standard
output is the end-to-end metrics of an untraced run; with `--trace 1` it is
the per-layer metrics of a traced run plus the numcore layer microbench.
Earlier lines record the environment and the raw samples. Exits 1 when an
operation or an output check fails, and 2 when the anomkit sources are missing.
`--tiny` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one thread: the box is shared, and a second gained under 10%
MIN_COVERAGE = 0.9  # share of the traced timed phase that layer spans must cover

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "screen_vol_per_s": "volumes/s", "screen_p50_s": "s",
    "dice_mean": "ratio", "nu_gap": "ratio", "cluster_purity": "ratio", "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(run, out):
    return {
        "setup_s": out.setup_s,
        "fit_s": statistics.median(out.fit_walls),
        "screen_vol_per_s": len(out.latencies) / sum(out.latencies),
        "screen_p50_s": statistics.median(out.latencies),
        "dice_mean": statistics.fmean(out.dice),
        "nu_gap": out.nu_gap,
        "cluster_purity": out.purity,
        "ok_frac": 1.0 - len(run.failures) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(out, layers):
    """Layer metrics from the traced timed phase, or from the traced set-up
    for a layer that runs only there (DCAE training on `screen`)."""
    timed, setup = out.timed_tracer, out.setup_tracer

    def pick(name):
        return timed if timed.has(name) else setup

    def total(name):
        return pick(name).total(name)

    def count(name):
        return pick(name).counts.get(name, 0)

    def gauge(name):
        return float(pick(name).gauges.get(name, 0.0))

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    train_s, embed_s, fit_s = (total("dcae.train_dcae"), total("dcae.embed_dataset"),
                               total("ocsvm.fit_ocsvm"))
    m = {
        "preprocess.busy_s": (total("preprocess.preprocess_volume"), "s"),
        "preprocess.volumes": (count("preprocess.volumes"), "count"),
        "preprocess.superpixels": (count("preprocess.superpixels"), "count"),
        "preprocess.in_retina_frac": (rate(count("preprocess.in_retina"),
                                           count("preprocess.superpixels")), "ratio"),
        "patches.busy_s": (total("patches.build_dataset"), "s"),
        "patches.pairs": (count("patches.pairs"), "count"),
        "patches.kept_frac": (rate(count("patches.pairs"), count("patches.extracted")), "ratio"),
        "dcae.train_s": (train_s, "s"),
        "dcae.train_pairs_per_s": (rate(count("dcae.train_pairs"), train_s), "1/s"),
        "dcae.fusion_s": (total("dcae.train_fusion"), "s"),
        "dcae.final_loss": (gauge("dcae.final_loss"), "mse"),
        "dcae.fusion_final_loss": (gauge("dcae.fusion_final_loss"), "mse"),
        "dcae.embed_s": (embed_s, "s"),
        # every built pair is embedded once
        "dcae.embed_pairs_per_s": (rate(count("patches.pairs"), embed_s), "1/s"),
        "ocsvm.fit_s": (fit_s, "s"),
        "ocsvm.n_iter": (gauge("ocsvm.n_iter"), "count"),
        "ocsvm.iters_per_s": (rate(gauge("ocsvm.n_iter"), fit_s), "1/s"),
        "ocsvm.w_norm": (gauge("ocsvm.w_norm"), "norm"),
        "ocsvm.kkt_violation": (gauge("ocsvm.kkt_violation"), "score"),
        "ocsvm.train_outlier_frac": (gauge("ocsvm.train_outlier_frac"), "ratio"),
        "ocsvm.score_s": (total("ocsvm.decision_values") + total("ocsvm.segment_volume"), "s"),
        "cluster.select_k_s": (total("cluster.select_k"), "s"),
        "cluster.n_vectors": (gauge("cluster.n_vectors"), "count"),
        "cluster.k": (gauge("cluster.k"), "count"),
        "cluster.db_best": (gauge("cluster.db_best"), "index"),
        "cluster.assign_s": (total("cluster.assign_batch"), "s"),
        "baseline_pca.fit_s": (total("baseline_pca.fit_pca_baseline"), "s"),
        "baseline_pca.embed_s": (total("baseline_pca.embed_batches"), "s"),
        "trace.overhead_frac": (out.overhead_frac, "ratio"),
        "trace.coverage_frac": (timed.coverage("screen" if timed.has("screen") else "fit"),
                                "ratio"),
    }
    m.update({name: (ms, "ms") for name, ms in layers.items()})
    return m


def environment(args, sizes):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "sizes": sizes,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "anomkit" / "__init__.py").is_file():
        print(f"perfbench: no anomkit sources under {src}", file=sys.stderr)
        return 2
    # before numpy loads, so that its BLAS starts with this many threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    from anomkit.errors import AnomkitError

    import layerbench
    import workloads

    w = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    print(json.dumps({"env": environment(args, dataclasses.asdict(w))}), flush=True)
    run = workloads.Run()
    try:
        out = workloads.run_workload(w, args.seed, args.seconds, bool(args.trace), run)
    except AnomkitError as err:
        run.failures.append(f"{type(err).__name__}: {err}")
        print(f"perfbench: {run.failures[-1]}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": len(run.failures), "metrics": {}}))
        return 1

    if args.trace:
        metrics = per_layer(out, layerbench.run_layers(tiny=args.tiny))
        coverage = metrics["trace.coverage_frac"][0]
        if coverage < MIN_COVERAGE:
            run.failures.append(f"layer spans cover {coverage:.3f} of the timed phase")
        trace_dir = ROOT / ".bench_build" / "perfbench"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"setup": out.setup_tracer.records(),
                       "timed": out.timed_tracer.records()}, fh)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(run, out).items()}
    for message in run.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"samples": {"fit_s": out.fit_walls, "screen_s": out.latencies,
                                  "dice": out.dice}}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
