"""Checks the benchmark itself on the smoke size of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
WORKLOADS = ("fem-ladder", "distortion-sweep", "chart-ode")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in spec["end_to_end"]) for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    res = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--size", "smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    res = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--size", "smoke", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(run.per_layer_metrics())
    assert 0.0 <= metrics["trace.uncovered_frac"] < 0.1
    if workload == "fem-ladder":
        assert metrics["fem.quad_nodes"] == 3 * (80 + 320)
    if workload == "distortion-sweep":
        assert metrics["harness.position_probe_failed"] >= 1
    if workload == "chart-ode":
        assert metrics["integrate.nfev"] > 0


def test_reference_mismatch_fails_the_task():
    import workloads
    task = workloads.Task("t", 0.1, {"x": [1.0, 2.0]})
    workloads.compare_reference([task], [{"x": [1.0, 2.1]}], 1e-6, 1e-10)
    assert not task.ok


def test_tracer_restores_the_library():
    from spans import Tracer
    from karcher import barycentric, fem, manifolds
    before = (fem.differential, barycentric.karcher_mean, manifolds.Sphere.__dict__.get("log"))
    tracer = Tracer()
    tracer.install()
    assert fem.differential is not before[0]
    tracer.uninstall()
    assert (fem.differential, barycentric.karcher_mean,
            manifolds.Sphere.__dict__.get("log")) == before
    assert "hess_half_dist_sq" not in manifolds.Sphere.__dict__


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "chart-ode", "--seed", "0", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
