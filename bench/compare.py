"""``python -m bench compare A B``: two benchmark sets, metric by metric.

For every workload and end-to-end metric it prints both medians with their
quartiles, the change, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread is wider than the bound,
* ``worse`` / ``better`` — the median moved the wrong / right way by more
  than the bound,
* ``same`` — otherwise.

It also reports whether the ``sim_digest``s match and lists every
per-layer count that differs. A set is a file written by ``run``; a file
holding ``{"sets": [...]}`` is indexed as ``FILE:N``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from bench.harness import spec


def load(arg: str) -> dict:
    path, _, index = arg.rpartition(":")
    if not (path and index.isdigit()):
        path, index = arg, ""
    data = json.loads(Path(path).read_text())
    if "sets" in data:
        return data["sets"][int(index or 0)]
    if index:
        raise SystemExit(f"{path} holds one set; drop the :{index}")
    return data


def _spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(a: dict, b: dict, bound: float, better: str) -> Tuple[float, str]:
    """Relative change from ``a`` to ``b`` and its verdict."""
    delta = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    gain = -delta if better == "lower" else delta
    if max(_spread(a), _spread(b)) > bound:
        return delta, "unresolved"
    if gain < -bound:
        return delta, "worse"
    if gain > bound:
        return delta, "better"
    return delta, "same"


def _counts(run: dict) -> Dict[str, float]:
    return {
        name: m["value"] for name, m in run["metrics"].items()
        if m["unit"] == "count"
    }


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether B is no worse than A and digests match."""
    lines: List[str] = []
    ok = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name}: missing from B")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"{name}")
        for metric in spec()["end_to_end"]:
            key = metric["name"]
            ma = wa["timed"]["metrics"].get(key)
            mb = wb["timed"]["metrics"].get(key)
            if ma is None or mb is None:
                lines.append(f"  {key:<18} missing")
                ok = False
                continue
            delta, word = verdict(ma, mb, metric["bound"], metric["better"])
            ok &= word != "worse"
            lines.append(
                f"  {key:<18} A {ma['value']:.4g} "
                f"[{ma['q1']:.4g}, {ma['q3']:.4g}]  B {mb['value']:.4g} "
                f"[{mb['q1']:.4g}, {mb['q3']:.4g}] {metric['unit']}  "
                f"{delta:+.1%}  bound {metric['bound']:.0%}  {word}"
            )
        digests = {wa["timed"]["digest"], wa["traced"]["digest"],
                   wb["timed"]["digest"], wb["traced"]["digest"]}
        same = len(digests) == 1 and None not in digests
        ok &= same
        lines.append(f"  sim_digest {'match' if same else 'DIFFER'}")
        ca, cb = _counts(wa["traced"]), _counts(wb["traced"])
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                lines.append(
                    f"  count {key} differs: A {ca.get(key)} B {cb.get(key)}"
                )
    return lines, ok
