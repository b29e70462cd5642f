"""Measurement-point behaviour: batching, byte accounting, aggregation."""

from __future__ import annotations

import pytest

from repro import AggregatingPoint, SamplingPoint, SRC_HIERARCHY
from repro.core.sampling import FixedSampler


class TestSamplingPoint:
    def test_batch_emission_cadence(self):
        point = SamplingPoint(
            point_id=0, tau=1.0, batch_size=3, sampler=FixedSampler()
        )
        reports = [point.observe(i) for i in range(7)]
        emitted = [r for r in reports if r is not None]
        assert len(emitted) == 2
        assert emitted[0].samples == (0, 1, 2)
        assert emitted[0].covered == 3
        assert point.pending_samples == 1
        assert point.pending_covered == 1

    def test_covered_counts_unsampled_packets(self):
        # sample every other packet
        decisions = [True, False] * 10
        point = SamplingPoint(
            point_id=1, tau=0.5, batch_size=2, sampler=FixedSampler(decisions)
        )
        report = None
        seen = 0
        for i in range(20):
            seen += 1
            report = point.observe(i)
            if report:
                break
        assert report is not None
        assert report.covered == seen
        assert len(report.samples) == 2

    def test_byte_accounting(self):
        point = SamplingPoint(
            point_id=2, tau=1.0, batch_size=4, header=64, payload=4,
            sampler=FixedSampler(),
        )
        report = None
        for i in range(4):
            report = point.observe(i)
        assert report.size_bytes == 64 + 4 * 4
        assert point.bytes_sent == report.size_bytes
        assert point.reports_sent == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPoint(point_id=0, tau=0.5, batch_size=0)


class TestAggregatingPoint:
    def test_emits_when_allowance_covers_message(self):
        # budget 10 B/pkt, header 64, payload 4: after 7 packets the
        # allowance (70) covers 64 + 4*distinct
        point = AggregatingPoint(point_id=0, budget=10.0, header=64, payload=4)
        reports = []
        for i in range(20):
            r = point.observe("flow")
            if r:
                reports.append(r)
        assert reports, "allowance should eventually cover a message"
        first = reports[0]
        # the delta covers exactly the packets since the previous report
        assert first.entries == {"flow": first.covered}
        assert first.size_bytes == 64 + 4 * 1

    def test_allowance_carries_over(self):
        point = AggregatingPoint(point_id=0, budget=100.0, header=64, payload=4)
        r1 = point.observe("a")
        assert r1 is not None  # 100 >= 68 immediately
        # residual allowance = 100 - 68 = 32; next message costs 68 again
        r2 = point.observe("b")
        assert r2 is not None  # 32 + 100 = 132 >= 68

    def test_hierarchy_mode_counts_prefixes(self):
        point = AggregatingPoint(
            point_id=0, budget=1000.0, header=64, payload=4,
            hierarchy=SRC_HIERARCHY,
        )
        report = point.observe(0x0A000001)
        assert report is not None
        assert len(report.entries) == 5  # one entry per pattern
        assert report.entries[(0x0A000001, 32)] == 1
        assert report.entries[(0, 0)] == 1

    def test_max_entries_caps_message_and_keeps_heaviest(self):
        point = AggregatingPoint(
            point_id=0, budget=5.0, header=64, payload=4, max_entries=2
        )
        # heavy flows A (x30), B (x20), plus 10 singletons
        reports = []
        stream = ["A"] * 30 + ["B"] * 20 + [f"s{i}" for i in range(10)]
        for item in stream:
            r = point.observe(item)
            if r:
                reports.append(r)
        assert reports
        for report in reports:
            assert len(report.entries) <= 2
            assert report.size_bytes <= 64 + 4 * 2
        # the heaviest flow of some delta must have been shipped
        assert any("A" in r.entries for r in reports)

    def test_delta_resets_after_emit(self):
        point = AggregatingPoint(point_id=0, budget=100.0, header=64, payload=4)
        point.observe("a")
        assert point.pending_entries == 0  # emitted immediately
        point2 = AggregatingPoint(point_id=1, budget=0.1, header=64, payload=4)
        point2.observe("a")
        assert point2.pending_entries == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregatingPoint(point_id=0, budget=0.0)
        with pytest.raises(ValueError):
            AggregatingPoint(point_id=0, budget=1.0, max_entries=0)


class TestObserveMany:
    """Batch delivery must be byte-identical to per-packet observation."""

    def _state(self, point: SamplingPoint):
        return (
            point.packets_seen,
            point.reports_sent,
            point.bytes_sent,
            point.pending_samples,
            point.pending_covered,
            list(point._samples),
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 16])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_matches_scalar_observe(self, batch_size, tau):
        a = SamplingPoint(point_id=0, tau=tau, batch_size=batch_size, seed=5)
        b = SamplingPoint(point_id=0, tau=tau, batch_size=batch_size, seed=5)
        packets = [i % 37 for i in range(2000)]
        want = [r for p in packets if (r := a.observe(p)) is not None]
        got = []
        for start in range(0, len(packets), 687):  # ragged, report-crossing
            got.extend(b.observe_many(packets[start : start + 687]))
        assert [
            (r.point_id, r.samples, r.covered, r.size_bytes) for r in want
        ] == [(r.point_id, r.samples, r.covered, r.size_bytes) for r in got]
        assert self._state(a) == self._state(b)

    @staticmethod
    def _reports(reports):
        return [(r.point_id, r.samples, r.covered, r.size_bytes) for r in reports]

    def test_one_call_fills_several_reports(self):
        a = SamplingPoint(point_id=3, tau=0.5, batch_size=4, seed=9)
        b = SamplingPoint(point_id=3, tau=0.5, batch_size=4, seed=9)
        packets = list(range(100, 160))
        # a pending sample first, so the first report straddles the calls
        a.observe(7)
        b.observe_many([7])
        want = [r for p in packets if (r := a.observe(p)) is not None]
        got = b.observe_many(packets)
        assert len(got) >= 5
        assert self._reports(got) == self._reports(want)
        assert self._state(a) == self._state(b)

    def test_a_call_that_fills_no_report(self):
        a = SamplingPoint(point_id=1, tau=0.25, batch_size=50, seed=4)
        b = SamplingPoint(point_id=1, tau=0.25, batch_size=50, seed=4)
        for chunk in ([1, 2, 3, 4, 5, 6, 7, 8], list(range(40)), [9]):
            want = [r for p in chunk if (r := a.observe(p)) is not None]
            assert want == [] and b.observe_many(chunk) == []
            assert self._state(a) == self._state(b)
        assert b.pending_samples > 0 and b.pending_covered == 49

    def test_empty_batch(self):
        point = SamplingPoint(point_id=0, tau=0.5, batch_size=4, seed=1)
        assert point.observe_many([]) == []
        assert point.packets_seen == 0

    def test_deterministic_sampler_coverage_accounting(self):
        # every 3rd packet sampled, batch of 2: report covers up to the
        # sample that filled it, remainder carries over
        point = SamplingPoint(
            point_id=0,
            tau=0.5,
            batch_size=2,
            sampler=FixedSampler([False, False, True] * 4, default=False),
        )
        reports = point.observe_many(list(range(12)))
        assert len(reports) == 2
        assert reports[0].covered == 6
        assert reports[1].covered == 6
        assert point.pending_covered == 0

    def test_aggregating_point_observe_many(self):
        a = AggregatingPoint(point_id=0, budget=2.0, header=8, payload=4)
        b = AggregatingPoint(point_id=0, budget=2.0, header=8, payload=4)
        packets = [i % 5 for i in range(300)]
        want = [r for p in packets if (r := a.observe(p)) is not None]
        got = b.observe_many(packets)
        assert [(r.entries, r.covered, r.size_bytes) for r in want] == [
            (r.entries, r.covered, r.size_bytes) for r in got
        ]
        assert a.pending_entries == b.pending_entries
        assert a.bytes_sent == b.bytes_sent
