"""Tiny-size smoke test of the benchmark harness. It asserts no timings.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs for one second on a small corpus, untraced and traced.
The test checks that the result line names every metric of BENCHMARK.json
with its unit, that the report gives the timings as measured beside those at
reference speed, that the outputs were correct, that one seed gives identical
inputs and stores, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    report, result = parse(run(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["fail_ratio"] == 0
    assert {"op_ms.p50", "op_ms.p90", "ops_per_s", "setup_s"} <= set(report["raw"])
    assert report["speed"]["slices"] > 0
    if trace:
        assert set(report["tracing"]["traced_over_untraced"]) == {"op_ms.p50", "op_ms.p90", "ops_per_s"}
        assert (ROOT / report["tracing"]["spans_file"]).is_file()


def test_one_seed_gives_identical_inputs_and_stores():
    first, _ = parse(run("cli", seed=7))
    second, _ = parse(run("cli", seed=7))
    other, _ = parse(run("cli", seed=8))
    assert first["digests"] == second["digests"]
    assert first["digests"]["inputs"] != other["digests"]["inputs"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("ingest", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
