"""The clocks every timed figure is read from.

A shared host slows a run down in two ways: it takes the virtual CPUs
away (descheduling and hypervisor steal), and it runs other tenants next
to them, so the same instructions take longer (caches, memory bandwidth,
frequency).  Both come and go over tens of seconds, so two runs of the
same code a minute apart can differ by a third.  A :class:`Clock` takes
both out, so that runs on a busy and on a quiet host read alike:

* its *base* leaves out time the run was not running.  Workloads that
  run entirely on one thread that never waits (``memento-direct``,
  ``hhh-netwide``) use :func:`thread_time`, that thread's CPU time, which
  on a dedicated core advances exactly like wall time.  Work split over
  processes and threads that wait for each other (``memento-service``,
  the sharded phase of a traced ``memento-direct`` run) uses
  :class:`StealFreeClock`, wall time minus the machine's share of
  hypervisor steal.
* its :class:`SpeedProbe` measures how fast the host runs right now.
  The probe times a fixed reference computation (the same on every run
  and every commit: it lives here, not in the program); ``factor`` is its
  recent median CPU time over :data:`REFERENCE_S`, its CPU time on a
  quiet host.  A run scales every rate it measures by ``factor`` and
  divides every duration by it (a query's latency by the factor of a
  probe run right after it), so its figures read as on a quiet host.
  The probe runs with the clock stopped, so it adds nothing to any
  figure; the unscaled figures and the factors go into the run record.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Callable, List

import numpy as np

__all__ = ["Clock", "REFERENCE_S", "SpeedProbe", "StealFreeClock", "steal_seconds", "thread_time"]

#: the calling thread's CPU time (user + system), in seconds
thread_time: Callable[[], float] = time.thread_time

#: CPU seconds of one probe run on a quiet host (a 2-vCPU Xeon VM)
REFERENCE_S = 0.00108
#: probe runs whose median CPU time is the current factor
PROBE_WINDOW = 5

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs since boot (0 where ``/proc/stat`` does not say)."""
    try:
        with open("/proc/stat", "rb") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


class StealFreeClock:
    """Wall time minus the machine's share of host steal, in seconds.

    Steal is time a virtual CPU was ready to run but the hypervisor ran
    another guest; it passes on the wall clock while no work is done.
    The clock reads ``perf_counter() - steal / cpus`` (the steal since
    the clock was made, spread over every CPU of the machine) and
    re-reads ``/proc/stat`` at most every ``refresh_s``.  Steal is
    counted in ticks of 10 ms per CPU, so a single reading can be off by
    that much; medians over many readings are not.
    """

    def __init__(self, refresh_s: float = 0.002) -> None:
        self._refresh_s = refresh_s
        self._cpus = os.cpu_count() or 1
        self._origin = steal_seconds()
        self._steal = 0.0
        self._read_at = time.perf_counter()

    def __call__(self) -> float:
        now = time.perf_counter()
        if now - self._read_at >= self._refresh_s:
            self._steal = (steal_seconds() - self._origin) / self._cpus
            self._read_at = now
        return now - self._steal


class SpeedProbe:
    """How slow the host runs a fixed reference computation right now,
    relative to a quiet host (``factor`` > 1 means slower).

    The reference has the shape of the program's hot path: a dictionary
    increment per packet over a Zipf key column, a ``flatnonzero`` over
    a sampling mask with a list gather, and a ``np.unique`` over the
    column.  Its input is fixed, never drawn from the run's seed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        keys = rng.zipf(1.2, 8192) % 100_000
        self._keys: List[int] = keys.tolist()
        self._column = keys.astype(np.int64)
        self._mask = rng.random(keys.size) < 1 / 16
        self.samples: List[float] = []  # CPU seconds of each run
        self.factor = 1.0

    def _reference(self) -> int:
        keys = self._keys
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        picked = [keys[i] for i in np.flatnonzero(self._mask).tolist()]
        return len(counts) + len(picked) + int(np.unique(self._column).size)

    def run(self) -> float:
        """Run the reference on this thread, once to bring its data back
        into the caches the workload evicted and once timed.  Updates
        ``factor`` (the median of the last :data:`PROBE_WINDOW` runs) and
        returns this run's own factor."""
        self._reference()
        started = time.thread_time()
        self._reference()
        elapsed = time.thread_time() - started
        self.samples.append(elapsed)
        self.factor = statistics.median(self.samples[-PROBE_WINDOW:]) / REFERENCE_S
        return elapsed / REFERENCE_S


class Clock:
    """A run's clock: ``base`` with the probe's runs taken out, never
    running backwards, plus the probe that scales what it measures.

    With the :func:`thread_time` base the clock must be read on the
    thread that made it; with :class:`StealFreeClock` from any thread.
    """

    def __init__(self, base: Callable[[], float]) -> None:
        self._base = base
        self._lock = threading.Lock()
        self._stopped = 0.0  # base seconds spent probing
        self._last = float("-inf")
        self.probe = SpeedProbe()
        #: wall nanoseconds spent probing (left out of the traced
        #: phase's span coverage, as the spans leave the probe out)
        self.probe_wall_ns = 0

    def __call__(self) -> float:
        with self._lock:
            self._last = max(self._last, self._base() - self._stopped)
            return self._last

    @property
    def factor(self) -> float:
        return self.probe.factor

    def calibrate(self, runs: int = 1) -> float:
        """Run the probe ``runs`` times with the clock stopped; return
        the current (median) factor."""
        return self._probe(runs)[1]

    def spot(self) -> float:
        """Run the probe once with the clock stopped; return that run's
        own factor.  A query's latency is scaled by the spot factor taken
        right after it: contention comes in bursts shorter than the
        median's window, and the tail is made of queries that met one."""
        return self._probe(1)[0]

    def _probe(self, runs: int):
        wall = time.perf_counter_ns()
        started = self._base()
        for _ in range(runs):
            spot = self.probe.run()
        with self._lock:
            self._stopped += self._base() - started
            self.probe_wall_ns += time.perf_counter_ns() - wall
        return spot, self.probe.factor
