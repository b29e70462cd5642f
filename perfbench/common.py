"""Pieces every workload shares: the cyclic input stream, the open-loop
query schedule, latency summaries, set-up timing and resource figures.

Every timed figure is read from a :class:`perfbench.clock.Clock` and
scaled by its host-speed factor (see that module)."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .clock import PROBE_WINDOW, REFERENCE_S, Clock

__all__ = [
    "Metrics",
    "Phase",
    "QuerySchedule",
    "RunContext",
    "SliceMeter",
    "Stream",
    "drive",
    "freeze_inputs",
    "latency_summary",
    "peak_rss_mb",
    "per_unit",
    "put_latency",
    "put_load_layer",
    "timed_setups",
]

#: percentiles tried, highest first, for the tail figure
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass
class RunContext:
    """What a workload needs from the command line and the runner."""

    seed: int
    seconds: float
    trace: bool
    tiny: bool
    ledger: object  # reap.ProcessLedger
    root: object  # checkout root (Path)
    work_dir: object  # scratch directory inside the checkout (Path)
    log: Callable[[str], None] = print


class Metrics:
    """Named values with units, plus the run's correctness ledger."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.record: Dict[str, object] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations the load generator issued / saw fail."""
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed check counts as a
        failed operation."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class Stream:
    """A finite packet trace replayed cyclically in contiguous batches.

    Batches never straddle the end of a pass, so a pass boundary is
    always a batch boundary: after the timed phase the run finishes the
    current pass, which makes the final window the trace's last ``W``
    packets whatever the throughput was.
    """

    def __init__(self, packets: Sequence, batch: int) -> None:
        if not packets:
            raise ValueError("empty stream")
        self.packets = packets
        self.length = len(packets)
        self.batch = int(batch)
        # sliced once, before any timing, so the timed loop hands out
        # ready batches instead of copying slices
        self._batches = [
            packets[start:start + self.batch]
            for start in range(0, self.length, self.batch)
        ]
        self.rewind()

    def rewind(self) -> None:
        """Start over from the first packet."""
        self.position = 0  # packets handed out so far
        self._next = 0

    def next_batch(self) -> Sequence:
        batch = self._batches[self._next]
        self._next = (self._next + 1) % len(self._batches)
        self.position += len(batch)
        return batch

    @property
    def at_pass_end(self) -> bool:
        return self.position % self.length == 0

    @property
    def passes(self) -> float:
        return self.position / self.length


@dataclass
class QuerySchedule:
    """Open-loop query cadence: one query due every ``period`` seconds.

    Each query is timed from when it was *due*, so a stall delays and
    counts against every query behind it; ``lateness`` records how late
    the generator issued each one.  ``latencies`` are divided by the
    host-speed factor at completion, ``raw_latencies`` are not.
    """

    period: float
    start: float
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    failures: int = 0

    def __post_init__(self) -> None:
        self.next_due = self.start + self.period

    def due(self, now: float) -> Optional[float]:
        """The due time of the next query if it is due at ``now``."""
        return self.next_due if now >= self.next_due else None

    def done(self, due: float, issued: float, finished: float, factor: float, ok: bool = True) -> None:
        self.lateness.append(issued - due)
        self.raw_latencies.append(finished - due)
        self.latencies.append((finished - due) / factor)
        if not ok:
            self.failures += 1
        self.next_due = due + self.period


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median, and the highest percentile with at least ten samples
    beyond it, in milliseconds."""
    values = sorted(latencies_s)
    n = len(values)
    if n == 0:
        raise ValueError("no latency samples")
    tail_pct = 50.0
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            tail_pct = pct
            break
    # nearest-rank percentile
    rank = min(n - 1, max(0, math.ceil(tail_pct / 100.0 * n) - 1))
    return {
        "p50_ms": statistics.median(values) * 1e3,
        "tail_ms": values[rank] * 1e3,
        "tail_pct": tail_pct,
        "samples": float(n),
    }


def freeze_inputs() -> None:
    """Move every object alive now, the interpreter's modules and the
    run's generated inputs, out of the garbage collector's sight.

    The inputs are millions of list slots that a deployment would not
    hold.  Left tracked, every full collection during the timed phase
    walks them (about 70 ms on a 2M-packet trace), and the program is
    charged for the benchmark's own memory.  Objects made afterwards,
    the engines among them, are collected as usual.
    """
    gc.collect()
    gc.freeze()


def timed_setups(
    reps: int,
    setup: Callable[[], object],
    teardown: Callable[[object], None],
    clock: Clock,
) -> Tuple[object, List[float]]:
    """Run ``setup`` ``reps`` times, tearing down all but the last.

    Returns the last system and every set-up time on ``clock``, divided
    by the host-speed factor measured just before it.  ``setup`` covers
    the span from spec to first batch accepted.
    """
    times: List[float] = []
    system = None
    for rep in range(reps):
        # every set-up starts from the same heap: the garbage of the last
        # one would otherwise be collected inside some set-ups and not others
        gc.collect()
        factor = clock.calibrate(PROBE_WINDOW if rep == 0 else 2)
        started = clock()
        system = setup()
        times.append((clock() - started) / factor)
        if rep < reps - 1:
            teardown(system)
            system = None
    return system, times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_unit(ns: float, units: float) -> float:
    """``ns / units`` (0 when nothing was done)."""
    return ns / units if units else 0.0


#: length of the slices whose median rate is a phase's ``pps``
SLICE_S = 0.5


@dataclass
class Phase:
    """What one timed phase measured."""

    packets: int
    elapsed: float  # on the phase's clock
    schedule: QuerySchedule
    final: object  # the flush-consistent query that ends the phase
    meter: "SliceMeter"

    @property
    def pps(self) -> float:
        """Median packets per second over the phase's slices, each
        scaled by its host-speed factor (see :class:`SliceMeter`).

        A median of short slices rather than one total, so a burst of
        interference from outside the run moves it less; a phase too
        short for two slices falls back to the total.
        """
        if len(self.meter.rates) >= 2:
            return statistics.median(self.meter.rates)
        return self.packets / self.elapsed * self.meter.factors[-1]

    @property
    def raw_pps(self) -> float:
        """:attr:`pps` without the host-speed scaling."""
        if len(self.meter.raw_rates) >= 2:
            return statistics.median(self.meter.raw_rates)
        return self.packets / self.elapsed


class SliceMeter:
    """Packets per second over consecutive slices of about ``SLICE_S``
    on ``clock``.  At the end of each slice the clock's probe runs once
    (with the clock stopped) and the slice's rate is scaled by the
    median factor of the probe runs made during the slice, or of the
    last :data:`PROBE_WINDOW` runs if the slice made fewer."""

    def __init__(self, clock: Clock, position: int) -> None:
        self.rates: List[float] = []
        self.raw_rates: List[float] = []
        self.factors: List[float] = [clock.calibrate(PROBE_WINDOW)]
        self._clock = clock
        self._samples = clock.probe.samples
        self._first_sample = len(self._samples)
        self._mark = clock()
        self._position = position

    def tick(self, position: int) -> None:
        now = self._clock()
        if now - self._mark >= SLICE_S:
            rate = (position - self._position) / (now - self._mark)
            self._clock.calibrate()
            first = min(self._first_sample, len(self._samples) - PROBE_WINDOW)
            factor = statistics.median(self._samples[first:]) / REFERENCE_S
            self.raw_rates.append(rate)
            self.rates.append(rate * factor)
            self.factors.append(factor)
            self._first_sample = len(self._samples)
            self._mark = self._clock()
            self._position = position


def drive(
    stream: Stream,
    ingest: Callable[[Sequence], None],
    query: Callable[[], object],
    seconds: float,
    period: float,
    finish_pass: bool,
    clock: Clock,
) -> Phase:
    """One timed phase on the calling thread.

    Ingest is a closed loop (the next batch goes in as soon as the
    previous one is accepted); queries are due on a fixed open-loop
    cadence and run between batches, each timed from its due time.
    Rates, due times and latencies are read from ``clock`` and scaled
    by its host-speed factor (each latency by a spot probe taken right
    after the query); the phase lasts ``seconds`` of wall time.  After
    that it optionally runs on to the end of the current pass, then ends
    with one more (flush-consistent) query.
    """
    first = stream.position
    meter = SliceMeter(clock, first)
    deadline = time.perf_counter() + seconds
    start = clock()
    schedule = QuerySchedule(period, start)
    while True:
        if time.perf_counter() >= deadline and (not finish_pass or stream.at_pass_end):
            break
        ingest(stream.next_batch())
        due = schedule.due(clock())
        while due is not None and time.perf_counter() < deadline:
            issued = clock()
            query()
            finished = clock()
            schedule.done(due, issued, finished, clock.spot())
            due = schedule.due(clock())
        meter.tick(stream.position)
    final = query()
    return Phase(stream.position - first, clock() - start, schedule, final, meter)


def put_latency(m: Metrics, phase) -> None:
    summary = latency_summary(phase.schedule.latencies)
    m.put("query_p50_ms", summary["p50_ms"], "ms")
    m.put("query_tail_ms", summary["tail_ms"], "ms")
    m.record["query_tail_percentile"] = summary["tail_pct"]
    m.record["query_samples"] = summary["samples"]
    m.record["generator_lateness_p50_ms"] = statistics.median(phase.schedule.lateness) * 1e3 if phase.schedule.lateness else 0.0
    raw = latency_summary(phase.schedule.raw_latencies)
    m.record["unscaled"] = {
        "ingest_pps": phase.raw_pps, "query_p50_ms": raw["p50_ms"], "query_tail_ms": raw["tail_ms"],
        "host_speed_factor_p50": statistics.median(phase.meter.factors),
        "host_speed_factor_range": [min(phase.meter.factors), max(phase.meter.factors)],
    }
    m.ops(len(phase.schedule.latencies) + 1, phase.schedule.failures)


def put_load_layer(m: Metrics, phase) -> None:
    summary = latency_summary(phase.schedule.latencies)
    m.put("load.query_samples", summary["samples"], "count")
    m.put("load.tail_percentile", summary["tail_pct"], "pct")
    lateness = phase.schedule.lateness
    m.put("load.lateness_p50_ms", statistics.median(lateness) * 1e3 if lateness else 0.0, "ms")
