"""The benchmark's own test, on tiny inputs:

    python3 -m pytest bench/test_bench.py

Every workload runs untraced once and traced twice. Each run must pass its
correctness gates and print every metric BENCHMARK.json names, with its
unit; the exact counts of the two traced runs must agree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

EXACT_SUFFIXES = (".calls", "_per_step", "_per_batch", ".bytes")


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, done.stderr
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out["metrics"]


def check_names(metrics: dict, declared: list) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result(bench(workload, trace=0))
    check_names(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_report_every_layer_metric_and_repeat_exact_counts(workload):
    first = result(bench(workload, trace=1))
    second = result(bench(workload, trace=1))
    check_names(first, SPEC["per_layer"])
    exact = [name for name in first if name.endswith(EXACT_SUFFIXES)]
    assert {name: first[name]["value"] for name in exact} == {
        name: second[name]["value"] for name in exact
    }
    assert first["numcore.primitive_calls_per_batch"]["value"] > 0
    assert first["model.encode_batch.self_ms"]["value"] > 0
    assert first["train.save_checkpoint.bytes"]["value"] > 0
    trains = workload.startswith("fit")
    assert (first["numcore.tape_records_per_step"]["value"] > 0) == trains
    assert (first["train.adam_step.calls"]["value"] > 0) == trains
    assert (first["cli.unmix.calls"]["value"] > 0) == (not trains)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("fit_standard", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_fit_gate_counts_epochs_that_leave_the_reference(tmp_path):
    import run

    wl = workloads.make("fit_smallbatch", run.import_program(), 1, tmp_path, tiny=True)
    try:
        wl.prepare()
        wl.cycle()
        assert (wl.attempted, wl.failed) == (workloads.FIT_EPOCHS, 0)
        wl.reference = [value * (1 + 1e-6) for value in wl.reference]
        wl.cycle()
        assert wl.failed == workloads.FIT_EPOCHS
    finally:
        wl.close()


def test_unmix_gates_reject_broken_outputs(tmp_path):
    base = tmp_path / "maps"
    maps = np.full((3, 2, 2), 1 / 3, dtype="<f4")
    Path(str(base) + ".json").write_text(
        json.dumps({"height": 2, "width": 2, "bands": 3, "dtype": "f32", "interleave": "bsq"})
    )
    maps.tofile(str(base) + ".bsq")
    assert workloads._check_simplex(base, (2, 2, 3)) is None
    maps[0, 0, 0] += 1e-4
    maps.tofile(str(base) + ".bsq")
    assert "simplex" in workloads._check_simplex(base, (2, 2, 3))

    csv = tmp_path / "metrics.csv"
    csv.write_text("endmember,sad_rad,rmse\nem0,0.1,0.2\nem1,0.3,0.4\naverage,0.2,0.3\n")
    assert workloads._check_metrics_csv(csv, 2) is None
    csv.write_text("endmember,sad_rad,rmse\nem0,0.1,0.2\nem1,0.3,0.4\naverage,0.2,0.31\n")
    assert "recompute" in workloads._check_metrics_csv(csv, 2)
