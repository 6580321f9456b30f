"""In-memory spans recorded from the benchmark side of each layer call.

A span is ``[name, trace, parent, start, end]``: ``trace`` is shared by the
spans of one unit, ``parent`` is the span that caused it.
Spans stay in memory and are written out once, as chrome-trace JSON, when
the benchmark ends.  A layer's self time is its spans' durations minus the
parts covered by their child spans.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List


class Tracer:
    """Spans are lists, and ``parent`` is the parent span itself: a probe
    sample can add a span from a signal handler at any point, so no span
    may be found again by its position."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[list] = []
        self.epoch = perf_counter()

    def begin(self, name: str, trace: str) -> list:
        span = [name, trace, self._open[-1] if self._open else None,
                perf_counter(), None]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = perf_counter()
        self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A closed span inside whichever span is open (probe samples)."""
        parent = self._open[-1] if self._open else None
        trace = parent[1] if parent is not None else ""
        self.spans.append([name, trace, parent, start, end])

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name."""
        child: Dict[int, float] = {}
        for __, __, parent, start, end in self.spans:
            if parent is not None:
                child[id(parent)] = child.get(id(parent), 0.0) + end - start
        out: Dict[str, float] = {}
        for span in self.spans:
            name, __, __, start, end = span
            out[name] = (out.get(name, 0.0) + (end - start)
                         - child.get(id(span), 0.0))
        return out

    def total_seconds(self, name: str) -> float:
        return sum(end - start for n, __, __, start, end in self.spans
                   if n == name)

    def write_chrome(self, path: str) -> None:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        events = []
        for index, (name, trace, parent, start, end) in enumerate(
                self.spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"id": index, "trace": trace,
                         "parent": None if parent is None
                         else ids[id(parent)]},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out,
                      separators=(",", ":"))
