"""The run clock: stopped while the probe runs, never backwards, steal
taken out, and every rate and duration scaled by the probe's factor."""

from __future__ import annotations

import statistics

import pytest

from perfbench import clock as clock_mod
from perfbench.clock import PROBE_WINDOW, REFERENCE_S, Clock, SpeedProbe, StealFreeClock
from perfbench.common import QuerySchedule, SliceMeter


class FakeBase:
    """A base clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_clock_stops_while_the_probe_runs(monkeypatch):
    base = FakeBase()
    clock = Clock(base)
    monkeypatch.setattr(SpeedProbe, "run", lambda self: setattr(base, "now", base.now + 3.0))
    before = clock()
    clock.calibrate(runs=2)
    assert base.now == before + 6.0
    assert clock() == before  # six base seconds of probing are not counted
    base.now += 1.5
    assert clock() == pytest.approx(before + 1.5)


def test_clock_never_runs_backwards():
    base = FakeBase()
    clock = Clock(base)
    first = clock()
    base.now -= 5.0
    assert clock() == first


def test_probe_factor_is_the_recent_median_over_the_reference():
    probe = SpeedProbe()
    for _ in range(PROBE_WINDOW + 3):
        spot = probe.run()
    assert spot == pytest.approx(probe.samples[-1] / REFERENCE_S)
    assert probe.factor > 0
    assert probe.factor == pytest.approx(statistics.median(probe.samples[-PROBE_WINDOW:]) / REFERENCE_S)


def test_steal_is_spread_over_the_machines_cpus(monkeypatch):
    steal = [10.0]
    monkeypatch.setattr(clock_mod, "steal_seconds", lambda: steal[0])
    monkeypatch.setattr(clock_mod.os, "cpu_count", lambda: 2)
    wall = [50.0]
    monkeypatch.setattr(clock_mod.time, "perf_counter", lambda: wall[0])
    clock = StealFreeClock(refresh_s=0.0)
    assert clock() == 50.0
    wall[0] = 51.0
    steal[0] = 10.4  # 0.4 s stolen from two CPUs: 0.2 s of the machine
    assert clock() == pytest.approx(50.8)


def test_rates_and_latencies_are_scaled_by_the_factor(monkeypatch):
    base = FakeBase()
    clock = Clock(base)
    timings = iter([1.0] * PROBE_WINDOW + [2.0, 2.0, 3.0])

    def run(self):
        self.samples.append(next(timings) * REFERENCE_S)
        self.factor = statistics.median(self.samples[-PROBE_WINDOW:]) / REFERENCE_S
        return self.samples[-1] / REFERENCE_S

    monkeypatch.setattr(SpeedProbe, "run", run)
    meter = SliceMeter(clock, position=0)
    assert clock.spot() == 2.0 and clock.spot() == 2.0  # two queries in the slice
    base.now += 1.0
    meter.tick(position=1000)  # 1000 packets in one clock second
    # the slice's factor is the median of its own three probe runs
    assert meter.raw_rates == [1000.0]
    assert meter.rates == [2000.0]
    schedule = QuerySchedule(period=0.1, start=0.0)
    schedule.done(due=0.1, issued=0.1, finished=0.5, factor=2.0)
    assert schedule.raw_latencies == [pytest.approx(0.4)]
    assert schedule.latencies == [pytest.approx(0.2)]
