"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root (about a minute):

    python -m pytest -q perfbench/smoke.py

The file name keeps it out of the default test collection, so the tier-1
run does not pick it up.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look the module up by name
_spec.loader.exec_module(bench)


# Tiny sizes; dynamic_detail keeps 5 s segments, because a shorter segment
# can pass with no transmission at w_star = 512 ms and its row is NaN.
SCALE = {"dynamic_detail": 0.5}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", str(SCALE.get(workload, 0.1))],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((bench.RESULTS_DIR /
                         f"{workload}_seed3_trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_end_to_end_metrics(workload):
    result, record = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert record["points_failed"] == 0
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "nproc", "git_sha", "workload_seed"):
        assert key in env
    assert len(record["digest"]) == 64


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_per_layer_metrics(workload):
    result, record = _run(workload, 1)
    assert result["correct"] and record["points_failed"] == 0
    for m in BENCHMARK["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] is not None, got
    again, _ = _run(workload, 1)
    for name in ("traffic.arrivals", "engine.packets", "engine.cycles",
                 "controller.updates", "controller.clamp_low",
                 "controller.clamp_high"):
        assert again["metrics"][name]["value"] == result["metrics"][name]["value"]


def test_check_flags_bad_points():
    wl = bench.make_workload("static_sparse", 1)
    point = wl.grid()[1]  # standard policy at rate 0.1
    good = [5, 5, 2, 1.5, 0.5, 1.0]
    rec = {"point": bench._point_key(point), "runs": [[6, 5, 2, 1.5, 0.5, 1.0]],
           "rows": []}
    assert any("served 6 > arrivals 5" in e
               for e in bench.check_point(wl, point, rec, None))
    rec["runs"] = [good]
    assert bench.check_point(wl, point, rec, None) == []
    ref = {"point": rec["point"], "rows": [],
           "runs": [[5, 5, 2, 1.5 * (1 + 1e-11), 0.5, 1.0]]}
    assert any("reference" in e for e in bench.check_point(wl, point, rec, ref))


def test_failed_point_exits_nonzero():
    # 200 ms segments: some pass with no transmission, so a row is NaN.
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "dynamic_detail", "--seed", "3", "--seconds", "0.5", "--trace", "0",
         "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["points_ok"]["value"] < 1


def test_missing_hook_is_reported_absent():
    stats = {k: [2, 0.5, 0.1] for k in (
        "engine.make_arrivals", "engine.simulate", "engine.confidence_interval",
        "engine.slice_stats", "controller.update_threshold", "cli.parse_spec",
        "cli.run_experiment", "cli.emit_csv")}
    counts = {"arrivals": 10, "validate_s": 0.01, "packets": 10, "cycles": 2,
              "clamp_low": 0, "clamp_high": 1}
    values, absent = bench.layer_values({"stats": stats, "counts": counts}, 4)
    assert "_lambda_hat_series" in absent["traffic.ema_s"]
    assert "traffic.ema_calls" in absent and "traffic.ema_s" not in values
    assert values["engine.packets"] == 10 and values["cli.points"] == 4


def test_fails_without_sources():
    bare = bench.RESULTS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
