"""The parent process: launches samples one at a time and summarises them.

Every sample is a fresh interpreter (``python -m bench.child``) with one
BLAS thread and a fixed hash seed, started only after the previous one
ends. A run takes samples while less than ``seconds`` have passed, and at
least :data:`MIN_SAMPLES`, then reports each end-to-end metric as the
median over the samples that passed. A traced run takes one untraced and
one traced sample of the same input and reports the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Fewest samples a timed run takes, so its median survives one slow outlier.
MIN_SAMPLES = 3
#: No run may outlive this, whatever its samples do.
RUN_DEADLINE_S = 170.0

_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(ROOT / "src"),
}


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: metric units, bounds and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit(name: str) -> str:
    return next(
        m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]
        if m["name"] == name
    )


def source_present() -> bool:
    """Whether the program's source tree sits beside the benchmark."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile, and count."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _sample(
    workload: str, sim_seed: int, traced: bool, quick: bool, timeout: float
) -> dict:
    """One child run; a crash, hang or failed check comes back as an error."""
    cmd = [sys.executable, "-m", "bench.child", workload, str(sim_seed),
           str(int(traced)), str(int(quick))]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **_ENV}, capture_output=True,
            text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"error": "no result line"}
    out = json.loads(lines[-1])
    if out["failed_checks"]:
        out["error"] = "; ".join(out["failed_checks"])
    return out


def _judge(samples: List[dict]) -> List[dict]:
    """Mark samples whose digest differs from the most common one."""
    digests = Counter(s["digest"] for s in samples if "error" not in s)
    if digests:
        common = digests.most_common(1)[0][0]
        for s in samples:
            if "error" not in s and s["digest"] != common:
                s["error"] = f"sim_digest {s['digest'][:12]} != {common[:12]}"
    return [s for s in samples if "error" not in s]


def measure(
    workload: str, sim_seed: int, seconds: float, traced: bool,
    quick: bool = False,
) -> dict:
    """One run of ``workload``: its samples, verdict and metrics."""
    start = time.perf_counter()

    def left() -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    samples: List[dict] = []
    if traced:
        for flag in (False, True):
            samples.append(_sample(workload, sim_seed, flag, quick, left()))
    else:
        while len(samples) < MIN_SAMPLES or (
            time.perf_counter() - start < seconds
        ):
            if left() <= 0:
                break
            samples.append(_sample(workload, sim_seed, False, quick, left()))
    passed = _judge(samples)
    result = {
        "workload": workload,
        "sim_seed": sim_seed,
        "traced": traced,
        "attempted": len(samples),
        "failed": len(samples) - len(passed),
        "errors": [s["error"] for s in samples if "error" in s],
        "digest": passed[0]["digest"] if passed else None,
        "metrics": {},
    }
    if traced:
        if len(passed) == 2:
            layer = dict(passed[1]["layers"])
            layer["trace.overhead_pct"] = 100.0 * (
                layer["trace.total_s"] / passed[0]["wall_s"] - 1.0
            )
            result["metrics"] = {
                name: {"value": layer[name], "unit": unit(name)}
                for name in sorted(layer)
            }
    elif passed:
        columns = {
            "wall_s": [s["wall_s"] for s in passed],
            "sim_s_per_wall_s": [s["sim_s"] / s["wall_s"] for s in passed],
            "setup_s": [s["setup_s"] for s in passed],
            "peak_rss_mb": [s["peak_rss_mb"] for s in passed],
        }
        result["metrics"] = {
            name: {**quartiles(values), "unit": unit(name)}
            for name, values in columns.items()
        }
    return result


def verdict_line(result: dict) -> str:
    """The last stdout line the driver reads: verdict, counts, metrics."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    })


def describe(result: dict) -> str:
    """Human-readable lines for one run."""
    lines = [
        f"{result['workload']}: {result['attempted'] - result['failed']}/"
        f"{result['attempted']} samples passed, sim_digest "
        f"{(result['digest'] or '-')[:16]}"
    ]
    lines += [f"  FAILED: {e}" for e in result["errors"]]
    for name, m in result["metrics"].items():
        spread = (f"  [q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, n={m['n']}]"
                  if "q1" in m else "")
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{spread}")
    return "\n".join(lines)


def machine() -> Dict[str, object]:
    """What the numbers were measured on."""
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_set(sim_seed: int, quick: bool) -> dict:
    """Every workload: one timed run, then one traced run."""
    from bench import workloads

    seconds = 0.0 if quick else spec()["run_seconds"]
    out: Dict[str, object] = {
        "machine": machine(), "sim_seed": sim_seed, "quick": quick,
        "workloads": {},
    }
    for wl in workloads.WORKLOADS:
        timed = measure(wl.name, sim_seed, seconds, False, quick)
        print(describe(timed), flush=True)
        traced = measure(wl.name, sim_seed, 0.0, True, quick)
        print(describe(traced), flush=True)
        out["workloads"][wl.name] = {"timed": timed, "traced": traced}
    return out
