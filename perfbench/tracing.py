"""Spans and counts recorded around the benchmark's calls into the program.

A span is one call into a layer: its name (``<layer>.<function>``), an
optional tag (the policy or scenario it served), start and end times, the
index of the enclosing span and the id of the operation it belongs to.
Spans are kept in memory and written out when the run ends. With tracing
off, ``call`` is a plain call and nothing is recorded.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

# Operation id for calls made outside any timed operation: set-up, and
# the probes a traced run adds after its operations.
OUTSIDE = -1


@dataclass
class Span:
    name: str
    tag: str | None
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.request = OUTSIDE
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, tag: str | None = None) -> Any:
        """Call ``fn(*args)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args)
        with self.span(name, tag):
            return fn(*args)

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, tag, perf_counter(), 0.0, parent, self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    def recorded(self) -> set[tuple[str, str | None]]:
        """(name, tag) of every span recorded so far, plus (name, None)."""
        seen = set()
        for s in self.spans:
            seen.add((s.name, s.tag))
            seen.add((s.name, None))
        return seen

    # -- reporting -------------------------------------------------------

    def durations_ms(self, name: str, tag: str | None = None) -> list[float]:
        return [
            (s.end - s.start) * 1e3
            for s in self.spans
            if s.name == name and (tag is None or s.tag == tag)
        ]

    def median_ms(self, name: str, tag: str | None = None) -> float:
        values = self.durations_ms(name, tag)
        return statistics.median(values) if values else 0.0

    def median_count(self, name: str) -> float:
        values = self.counts.get(name)
        return statistics.median(values) if values else 0.0

    def self_shares(self) -> dict[str, float]:
        """Each layer's self time inside operations, as a share of the
        operations' total time. Time an operation spends outside any
        program call is the benchmark's own (``harness``)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        op_time = 0.0
        for i, s in enumerate(self.spans):
            if s.request == OUTSIDE:
                continue
            own = s.end - s.start - child_time[i]
            if s.name == "op":
                op_time += s.end - s.start
                totals["harness"] += own
            else:
                totals[s.name.split(".", 1)[0]] += own
        return {layer: t / op_time for layer, t in totals.items()} if op_time else {}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s.__dict__) + "\n")
