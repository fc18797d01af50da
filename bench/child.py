"""One sample in a fresh interpreter: ``python -m bench.child W SEED TRACE QUICK``.

Prints one JSON line: set-up and run times, peak RSS, the simulated
horizon, the ``sim_digest`` of the result tree and any failed check. With
TRACE=1 the run is wrapped by :mod:`bench.layers` and the line also holds
the per-layer metrics; the span file goes to ``bench/out/<W>.trace.json``.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports included

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def digest(tree) -> str:
    """sha256 of the canonical JSON of a result tree."""
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sample(name: str, seed: int, traced: bool, quick: bool) -> dict:
    wl = workloads.get(name, quick)
    inputs = wl.setup()
    setup_s = time.perf_counter() - T0
    if traced:
        from bench import layers
        from bench.trace import LayerTrace

        with LayerTrace() as trace:
            work = layers.instrument(trace)
            t0 = time.perf_counter()
            result = trace.run(layers.ROOT_LAYER, wl.name, wl.run, inputs, seed)
            wall_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        result = wl.run(inputs, seed)
        wall_s = time.perf_counter() - t0
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim_s": wl.sim_seconds(inputs, result),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(wl.tree(result)),
        "failed_checks": wl.check(inputs, result),
    }
    if traced:
        out["layers"] = layers.metrics(trace, work)
        trace.write_chrome(OUT / f"{name}.trace.json")
    return out


if __name__ == "__main__":
    name, seed, traced, quick = sys.argv[1:5]
    print(json.dumps(sample(name, int(seed), traced == "1", quick == "1")))
