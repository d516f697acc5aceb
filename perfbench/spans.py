"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: its name, its parent span and its
start and end on the ``perf_counter_ns`` clock.  Spans stay in memory while
the workload runs and are written out once, by ``dump``, when it ends.  A
span's self time is its duration minus the durations of its child spans,
so a parent that only loops over its children reports the loop's own cost
and nothing of the work below it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans on one thread; ``span`` is the only hot path."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        rec = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start_ns=self._clock(),
            end_ns=-1,
        )
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end_ns = self._clock()

    def dump(self, path: Path, **meta) -> None:
        """Write every span, with its self time, as one JSON document."""
        own = self_times_ns(self.spans)
        doc = dict(meta)
        doc["spans"] = [dict(asdict(s), self_ns=own[s.id]) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def self_times_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the summed durations of its children.

    ``SpanRecorder`` nests spans on one thread, so a span's children never
    overlap each other and never leave its interval.
    """
    spans = list(spans)
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration_ns
    return {s.id: s.duration_ns - covered[s.id] for s in spans}


def self_seconds_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    own = self_times_ns(spans)
    total: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += own[s.id]
    return {name: ns / 1e9 for name, ns in total.items()}


def descendants(spans: Iterable[Span], root: int) -> list[Span]:
    """The spans below ``root`` (not including it), in recording order."""
    spans = list(spans)
    below = {root}
    out = []
    for s in spans:  # parents are always recorded before their children
        if s.parent in below:
            below.add(s.id)
            out.append(s)
    return out
