"""The benchmark's own tests: GT mapping, quality helpers, and a tiny smoke run.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from anomkit import ocsvm, phantom, preprocess  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    script = Path(cwd) / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_flat_labels_keep_every_voxel_the_shift_keeps_in_frame():
    cfg = phantom.test_config(5, n_slices=4, height=96, width=128)
    volume, gt = phantom.generate_volume(cfg)
    flat = checks.flat_labels(volume, gt)
    bottom = preprocess.segment_surfaces(volume.data).bottom
    shift = bottom.max() - bottom
    s, r, c = np.nonzero(gt.labels)
    moved = r + shift[s, c]
    in_frame = moved < gt.labels.shape[1]
    assert in_frame.any()
    np.testing.assert_array_equal(flat[s[in_frame], moved[in_frame], c[in_frame]],
                                  gt.labels[s[in_frame], r[in_frame], c[in_frame]])
    assert np.count_nonzero(flat) == in_frame.sum()


def test_nu_gap_reads_the_free_vector_slack_as_d_over_n():
    # decision value = first feature, so the sign pattern sets the outlier share
    svm = ocsvm.OcSvmModel(w=np.r_[1.0, 0.0], rho=0.0, nu=0.1, offset=np.zeros(2),
                           scale=np.ones(2))
    sign = lambda k: np.c_[np.r_[-np.ones(k), np.ones(100 - k)], np.zeros(100)]
    assert checks.nu_gap(svm, sign(10)) == pytest.approx(0.02)  # gap 0
    assert checks.nu_gap(svm, sign(11)) == pytest.approx(0.02)  # inside the slack
    assert checks.nu_gap(svm, sign(50)) == pytest.approx(0.4)


def test_cluster_purity_counts_members_of_each_cluster_majority():
    types = [0, 0, 1, 1, 1, 2]
    ids = [0, 0, 0, 1, 1, 1]
    assert checks.cluster_purity(types, ids) == pytest.approx(4 / 6)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_two_runs_with_one_seed_give_identical_quality_numbers():
    quality = []
    for _ in range(2):
        proc = run_bench(ROOT, "fit", 0)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        quality.append([metrics[k]["value"] for k in ("dice_mean", "nu_gap", "cluster_purity")])
    assert quality[0] == quality[1]


def test_exits_nonzero_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "fit", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
