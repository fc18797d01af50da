"""End to end through the parent: samples, verdicts, compare, quick set."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from bench import compare, harness, workloads
from bench.harness import ROOT


@pytest.mark.parametrize("name", [w.name for w in workloads.QUICK])
def test_traced_run_gives_the_untraced_digest(name):
    result = harness.measure(name, 7, 0.0, traced=True, quick=True)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] == 2
    layer = {k: m["value"] for k, m in result["metrics"].items()}
    shares = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert shares == pytest.approx(layer["trace.total_s"], rel=0.01)


def test_verdicts_against_the_bound():
    def m(value, spread=0.0):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2)}

    assert compare.verdict(m(10), m(10.5), 0.1, "lower")[1] == "same"
    assert compare.verdict(m(10), m(12), 0.1, "lower")[1] == "worse"
    assert compare.verdict(m(10), m(8), 0.1, "lower")[1] == "better"
    assert compare.verdict(m(10), m(8), 0.1, "higher")[1] == "worse"
    assert compare.verdict(m(10, 0.3), m(10), 0.1, "lower")[1] == "unresolved"


def test_quick_set_runs_every_workload_and_compares_same(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.perf_counter() - t0 < 30
    data = json.loads(out.read_text())
    spec = harness.spec()
    assert set(data["workloads"]) == {w["name"] for w in spec["workloads"]}
    for runs in data["workloads"].values():
        assert set(runs["timed"]["metrics"]) == {
            m["name"] for m in spec["end_to_end"]
        }
        assert set(runs["traced"]["metrics"]) == {
            m["name"] for m in spec["per_layer"]
        }
    lines, _ = compare.compare(data, data)
    assert not any("DIFFER" in line or "differs" in line for line in lines)


def test_measure_prints_one_verdict_line():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "cluster_10k",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0
    assert verdict["attempted"] >= harness.MIN_SAMPLES


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "week_64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
