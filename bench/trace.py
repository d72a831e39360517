"""Spans recorded from the benchmark's side of each layer boundary.

For the traced pass only, and in this process only, the public methods
in :data:`TARGETS` are replaced with timing wrappers; the harness wraps
its own ``toss`` call as the root.  Each call appends one
``(name, start, end, parent, coin)`` tuple to an in-memory list —
``parent`` is the index of the span that caused it, ``coin`` the index
of the toss it served — and the list is written out when the run ends.
Below ``net.run`` nothing is visible from outside the program; those
layers are measured as rungs (:mod:`bench.rungs`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

from repro.core.dprbg import DPRBG, SharedCoinSystem
from repro.net.async_runtime import AsyncRuntime
from repro.net.simulator import SynchronousNetwork

#: (class, public method, span name)
TARGETS = (
    (DPRBG, "stretch", "core.stretch"),
    (SharedCoinSystem, "expose_many", "core.expose"),
    (SynchronousNetwork, "run", "net.run"),
    (AsyncRuntime, "run", "net.run"),
)

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._coin = 0

    def reset(self) -> None:
        self.spans.clear()
        self._coin = 0

    def wrap(self, name: str, call):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._coin)
                if parent < 0:
                    self._coin += 1

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; put every method back on the way out."""
        saved = []
        try:
            for cls, method, name in TARGETS:
                # remember whether the class defined the method itself
                # (SynchronousNetwork inherits run), to restore exactly
                saved.append((cls, method, cls.__dict__.get(method, _MISSING)))
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
            yield self
        finally:
            for cls, method, original in saved:
                if original is _MISSING:
                    delattr(cls, method)
                else:
                    setattr(cls, method, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, coin in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "coin": coin}
                ) + "\n")


def summarize(spans: List[tuple]) -> Dict[str, dict]:
    """Per span name: count, durations, inclusive and self seconds.

    A layer's self time is its span minus the part its children cover.
    ``net.run`` is also split by the span that caused it, as
    ``net.run<core.stretch`` and ``net.run<core.expose``.  A name that
    never occurred reads as an empty row.
    """
    covered = defaultdict(float)
    for name, start, end, parent, _coin in spans:
        if parent >= 0:
            covered[parent] += end - start
    summary: Dict[str, dict] = defaultdict(
        lambda: {"count": 0, "durations": [], "total": 0.0, "self": 0.0}
    )
    for index, (name, start, end, parent, _coin) in enumerate(spans):
        keys = [name]
        if parent >= 0:
            keys.append(f"{name}<{spans[parent][0]}")
        for key in keys:
            row = summary[key]
            row["count"] += 1
            row["durations"].append(end - start)
            row["total"] += end - start
            row["self"] += end - start - covered[index]
    return summary
