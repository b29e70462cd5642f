"""In-memory span tracer used by the traced (``--trace 1``) runs.

A span records one call into a layer: its name, start and end on the
monotonic nanosecond clock, and the id of the span that was open when it
began (its parent).  Spans stay in memory while the workload runs and
are written out once at exit.  A span's *self time* is its duration
minus the durations of its direct children, so the self times of a
properly nested tree add up to the wall time its roots cover.

Spans are opened only from the benchmark's own code, around calls into
the program's public functions; :meth:`Tracer.wrap` puts a span around a
method of one object so calls the program makes through that object are
timed too, without editing the program.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Span", "Tracer", "covered_ns", "self_times"]

# (id, parent id or -1, name, start ns, end ns)
Span = Tuple[int, int, str, int, int]


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as one span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counts[name] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, obj: object, attr: str, name: str) -> Callable[[], None]:
        """Shadow ``obj.attr`` with a spanned version; returns an undo."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)
        return lambda: delattr(obj, attr)

    def self_times(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (self ns, calls)}`` over every recorded span."""
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        """Write spans and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                }
            )
        )


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, int]]:
    """Per-name self time and call count.

    Self time of a span = its duration minus its direct children's
    durations; the totals are summed per span name.
    """
    child_ns: Dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for span_id, _, name, start, end in spans:
        entry = totals[name]
        entry[0] += end - start - child_ns.get(span_id, 0)
        entry[1] += 1
    return {name: (ns, calls) for name, (ns, calls) in totals.items()}


def covered_ns(spans: List[Span], start: int, end: int) -> int:
    """Wall time inside ``[start, end]`` covered by root spans."""
    return sum(
        e - s for _, parent, _, s, e in spans
        if parent < 0 and s >= start and e <= end
    )
