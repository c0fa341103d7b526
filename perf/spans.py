"""In-memory spans recorded by the harness around calls into each layer.

A span is ``(id, name, start, end, parent)``; the parent is whichever span
was open when this one started.  Spans live in a list until the run ends
and are then written out as one JSON file.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.

Hooks that fire tens of thousands of times per rep (clock ``on_send``,
clock-host ``envelope``) are not spans: they go through :meth:`Tracer.add`,
which keeps a call count and a busy-time total per name, and byte or frame
counts taken at the same boundaries go through :meth:`Tracer.count`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Records spans and per-name tallies; one instance per traced run."""

    enabled = True

    def __init__(self) -> None:
        #: ``[id, name, start, end, parent]`` — parent is a span id or None
        self.spans: List[list] = []
        self._open: List[int] = []
        #: name -> [calls, busy seconds]
        self.tallies: Dict[str, List[float]] = {}
        #: name -> plain count (bytes, frames) taken at the same boundaries
        self.counts: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, seconds: float) -> None:
        tally = self.tallies.setdefault(name, [0, 0.0])
        tally[0] += 1
        tally[1] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path, **header) -> None:
        doc = dict(header)
        doc["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans
        ]
        doc["tallies"] = {
            name: {"calls": int(t[0]), "busy_s": t[1]}
            for name, t in sorted(self.tallies.items())
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def add(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[list]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Overlapping children are counted once (their union is subtracted), and
    a child running past its parent's end only counts up to that end.
    """
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for _sid, _name, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent in spans
    }


def self_time_by_name(spans: List[list]) -> Dict[str, List[float]]:
    """``name -> [self time of each span of that name]``, in start order."""
    own = self_times(spans)
    out: Dict[str, List[float]] = {}
    for sid, name, _start, _end, _parent in spans:
        out.setdefault(name, []).append(own[sid])
    return out
