"""Outside-in layer tracer: self time, call counts, and a bounded span export.

The benchmark observes the program from outside. It replaces chosen entry
points (methods, module-level functions, subscribed callbacks) with
wrappers that time each call. A call's *self time* is its duration minus
the time its traced callees took, so the per-layer self times partition
the traced total exactly, re-entry into the same layer included.

Only *kept* calls become spans in the exported Chrome ``trace_event``
file. Every other call is folded into its nearest kept ancestor as a
per-layer count and self time, so the file grows with the number of coarse
boundaries (one scheduler run per tick), never with the number of gauge
writes or solver calls.

Nothing here imports the program; :mod:`bench.layers` says what to wrap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

_MISSING = object()


class LayerTrace:
    """Per-layer self time and calls for every wrapped callable.

    Use as a context manager: patches installed with :meth:`patch` or
    :meth:`replace` are undone on exit, in reverse order.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Duration of the last :meth:`run` (the traced total).
        self.total_s = 0.0
        #: Chrome trace_event "X" records of kept spans, in end order.
        self.events: List[Dict[str, Any]] = []
        self._origin = clock()
        # Child-time accumulator of every open call, innermost last.
        self._stack: List[List[float]] = []
        # Per-layer [calls, self_s] folds of every open kept span.
        self._kept: List[Dict[str, List[float]]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callbacks: Dict[Tuple[str, Callable], Callable] = {}

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self, layer: str, fn: Callable, keep: bool = False, name: str = ""
    ) -> Callable:
        """``fn`` timed as one call of ``layer``; ``keep`` exports a span."""
        name = name or getattr(fn, "__qualname__", repr(fn))
        clock = self.clock
        stack = self._stack
        kept = self._kept
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            acc = [0.0]
            stack.append(acc)
            if keep:
                fold: Dict[str, List[float]] = {}
                kept.append(fold)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - acc[0]
                self_s[layer] += own
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dur
                if keep:
                    kept.pop()
                    self._emit(name, layer, t0, dur, fold)
                elif kept:
                    into = kept[-1].get(layer)
                    if into is None:
                        kept[-1][layer] = [1, own]
                    else:
                        into[0] += 1
                        into[1] += own

        return traced

    def run(self, layer: str, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` as the root span; its duration is the total."""
        t0 = self.clock()
        try:
            return self.wrap(layer, fn, keep=True, name=name)(*args)
        finally:
            self.total_s = self.clock() - t0

    def callback(self, layer: str, fn: Callable) -> Callable:
        """The one wrapper for ``fn``, so an unsubscribe finds what was
        subscribed (bound methods compare equal per instance and function)."""
        key = (layer, fn)
        traced = self._callbacks.get(key)
        if traced is None:
            traced = self._callbacks[key] = self.wrap(layer, fn)
        return traced

    # -- patching ------------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`; inherited attributes
        are shadowed on ``owner`` and the shadow removed afterwards."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, layer: str, keep: bool = False) -> None:
        """Wrap ``owner.attr`` (a class method or module function)."""
        prefix = getattr(owner, "__qualname__", None) or owner.__name__
        self.replace(
            owner, attr,
            self.wrap(layer, getattr(owner, attr), keep, f"{prefix}.{attr}"),
        )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- export --------------------------------------------------------------

    def _emit(
        self, name: str, layer: str, t0: float, dur: float,
        fold: Dict[str, List[float]],
    ) -> None:
        args: Dict[str, float] = {}
        for sub, (n, s) in sorted(fold.items()):
            args[f"{sub}.calls"] = n
            args[f"{sub}.self_s"] = s
        self.events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (t0 - self._origin) * 1e6, "dur": dur * 1e6, "args": args,
        })

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as a Chrome/Perfetto ``trace_event`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = sorted(self.events, key=lambda e: e["ts"])
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))
