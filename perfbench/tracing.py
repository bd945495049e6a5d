"""The traced run's instruments: boundary spans, profiler layers, GC.

Nothing here imports ``repro``; the adapter names what to wrap.  The
spans are host-time intervals recorded by the benchmark's own
wrappers around public calls, kept in memory and written out once at
the end (``Boundary.dump``).
"""

from __future__ import annotations

import gc
import json
import os
import pstats
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers reported as ``<layer>.self_s``: a ``repro`` package, or a
#: ``package.module`` split out of its package.
LAYERS = ("sim", "net", "net.transport", "node", "concurrency", "sessions",
          "groups", "obs", "faults", "analysis")
#: Self time in ``repro`` modules outside :data:`LAYERS`.
MISC = "misc"
#: Self time outside ``repro``: the standard library and this benchmark.
OTHER = "host.other"
#: Spans kept in memory; later ones are counted, not kept.
SPAN_CAP = 200_000


class Boundary:
    """Counts, host time and spans at the wrapped public calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.instances: List[Any] = []
        #: (name, start_s, end_s, parent span id or -1, case id)
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.started = 0
        self._stack: List[int] = []
        self._case = ""
        self._origin = time.perf_counter()

    def _open(self) -> Tuple[int, int]:
        span_id = self.started
        self.started += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, name: str, span_id: int, parent: int,
               start: float, end: float) -> None:
        self._stack.pop()
        if span_id < SPAN_CAP:
            self.spans.append((name, start - self._origin,
                               end - self._origin, parent, self._case))

    def case(self, case_id: str, run: Callable[[], Any]) -> Any:
        """Run one case under a root span named after it."""
        self._case = case_id
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            return run()
        finally:
            self._close("case", span_id, parent, start, time.perf_counter())

    def spanned(self, name: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: count, time and span a call that completes."""
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                span_id, parent = self._open()
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.seconds[name] += end - start
                    self._close(name, span_id, parent, start, end)
            return wrapper
        return make

    def timed(self, name: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: count and time a call too frequent to span."""
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds[name] += time.perf_counter() - start
            return wrapper
        return make

    def counted(self, name: str) -> Callable[[Callable], Callable]:
        """Wrapper factory: count a call whose work runs later."""
        self.calls.setdefault(name, 0)

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def factory(self, name: str, mode: str) -> Callable[[Callable], Callable]:
        """The wrapper factory for one of the adapter's wrap modes."""
        return {"span": self.spanned, "time": self.timed,
                "count": self.counted}[mode](name)

    def collector(self, original: Callable) -> Callable:
        """``__init__`` wrapper keeping each new instance for counting."""
        def wrapper(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            self.instances.append(obj)
        return wrapper

    def take_instances(self) -> List[Any]:
        taken, self.instances = self.instances, []
        return taken

    def dump(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w") as out:
            for name, start, end, parent, case in self.spans:
                out.write(json.dumps({"name": name, "start_s": start,
                                      "end_s": end, "parent": parent,
                                      "case": case}) + "\n")
        return len(self.spans)


class GcClock:
    """Host time spent in the cyclic garbage collector."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self)


def layer_of(filename: str, package_root: str) -> str:
    """The layer a source file belongs to (see :data:`LAYERS`)."""
    if not filename.startswith(package_root):
        return OTHER
    parts = os.path.relpath(filename, package_root).split(os.sep)
    if len(parts) == 1:
        return MISC
    module = parts[0] + "." + os.path.splitext(parts[1])[0]
    if module in LAYERS:
        return module
    return parts[0] if parts[0] in LAYERS else MISC


def layer_self_times(profiler: Any, package_root: str) -> Dict[str, float]:
    """Profiler self time per layer.

    A C builtin has no file of its own; its self time is charged to the
    layer of each caller, in the share that caller accounts for.
    """
    package_root = os.path.join(os.path.abspath(package_root), "")
    totals = dict.fromkeys(LAYERS + (MISC, OTHER), 0.0)
    for (filename, _, _), (_, _, self_s, _, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename != "~":
            totals[layer_of(filename, package_root)] += self_s
            continue
        charged = 0.0
        for (caller_file, _, _), entry in callers.items():
            if caller_file != "~":
                totals[layer_of(caller_file, package_root)] += entry[2]
                charged += entry[2]
        totals[OTHER] += max(0.0, self_s - charged)
    return totals
