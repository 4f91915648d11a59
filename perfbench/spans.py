"""Spans kept in memory around calls into the engine, exact counters, and the
per-layer self times derived from them.

A span is [name, start, end, parent]: perf_counter seconds and the index of
the enclosing span (None at the top).  A span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.index)
        tr.spans.append([self.name, time.perf_counter(), None, parent])

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class NullTracer:
    """Records nothing; used for the untraced, end-to-end runs."""

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start) - covered
    return dict(out)
