"""In-memory spans around calls into wallachkit, and the statistics rules.

A span records (name, start, end, parent, case).  Spans are opened only by
the benchmark's own code, around public calls into each layer; the program
itself is not instrumented.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the root
    case: str


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, case: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, case))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span], key=lambda s: s.name) -> dict:
    """Total self time per key (the span name by default): each span's
    duration minus its direct children's durations."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict = {}
    for s, inner in zip(spans, child_time):
        k = key(s)
        out[k] = out.get(k, 0.0) + (s.end - s.start) - inner
    return out


def percentile(values: list[float], q: float) -> float:
    """q-quantile by linear interpolation between the closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
