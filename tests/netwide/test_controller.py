"""Controller-side tests: sketch ingestion and idealized aggregation."""

from __future__ import annotations

import pickle
import random

import pytest

from repro import (
    AggregationController,
    HMemento,
    Memento,
    SketchController,
    SRC_HIERARCHY,
)
from repro.engine import SketchSpec, build_engine
from repro.netwide.messages import AggregateReport, BatchReport


def batch_report(samples, covered, point_id=0):
    return BatchReport(
        point_id=point_id,
        samples=tuple(samples),
        covered=covered,
        size_bytes=64 + 4 * len(samples),
    )


def agg_report(entries, covered=100, point_id=0):
    return AggregateReport(
        point_id=point_id,
        entries=dict(entries),
        covered=covered,
        size_bytes=64 + 4 * len(entries),
    )


class TestSketchController:
    def test_full_plus_window_updates(self):
        algorithm = Memento(window=100, counters=10, tau=0.5)
        controller = SketchController(algorithm)
        controller.receive(batch_report(["a", "b"], covered=10))
        assert algorithm.full_updates == 2
        assert algorithm.updates == 10  # 2 full + 8 window
        assert controller.reports_received == 1
        assert controller.samples_ingested == 2
        assert controller.packets_covered == 10

    def test_query_scaling_matches_tau(self):
        algorithm = Memento(window=1000, counters=50, tau=0.5)
        controller = SketchController(algorithm)
        # 50 samples of "x" out of 100 covered packets -> estimate ~100
        for _ in range(10):
            controller.receive(batch_report(["x"] * 5, covered=10))
        est = controller.query_point("x")
        assert 60 <= est <= 140

    def test_hhh_controller_output(self):
        algorithm = HMemento(
            window=1000, hierarchy=SRC_HIERARCHY, counters=200, tau=1.0, seed=1
        )
        controller = SketchController(algorithm)
        pkt = 0x0A000001
        controller.receive(batch_report([pkt] * 100, covered=100))
        assert (pkt, 32) in controller.output(theta=0.05)
        heavy = controller.heavy_prefixes(theta=0.05)
        assert (pkt, 32) in heavy

    def test_candidates_passthrough(self):
        algorithm = Memento(window=100, counters=10, tau=1.0)
        controller = SketchController(algorithm)
        controller.receive(batch_report(["k"] * 30, covered=30))
        assert "k" in set(controller.candidates())


def report_stream(seed=5, count=300):
    """Seeded Batch reports over a small keyspace, with the edge shapes:
    no samples, ``covered == len(samples)``, and single samples."""
    rng = random.Random(seed)
    keys = [0x0A000000 | rng.randrange(1 << 12) for _ in range(40)]
    reports = [
        batch_report([], covered=17),
        batch_report([keys[0]] * 5, covered=5),
        batch_report([keys[1]], covered=1),
        batch_report([keys[2]], covered=30),
        batch_report([], covered=0),
    ]
    while len(reports) < count:
        samples = [rng.choice(keys) for _ in range(rng.choice((0, 1, 1, 3, 20)))]
        covered = len(samples) + rng.choice((0, 0, 1, 7, 60, 250))
        reports.append(batch_report(samples, covered, point_id=rng.randrange(4)))
    return reports


def call_sizes(reports, seed=6):
    """Ragged ``receive_many`` calls over ``reports``, empty calls included."""
    rng = random.Random(seed)
    calls, start = [[]], 0
    while start < len(reports):
        size = rng.choice((0, 1, 2, 9, 40))
        calls.append(reports[start : start + size])
        start += size
    return calls


def memento():
    return Memento(window=400, counters=20, tau=0.25, seed=3)


def h_memento():
    return HMemento(
        window=400, hierarchy=SRC_HIERARCHY, counters=40, tau=0.25, seed=3
    )


def sharded_h_memento():
    return build_engine(
        SketchSpec.from_dict(
            {
                "algorithm": {
                    "family": "h_memento", "window": 400, "counters": 40,
                    "tau": 0.25, "seed": 3,
                },
                "hierarchy": {"kind": "src"},
                "sharding": {"shards": 2, "executor": "serial"},
            }
        )
    )


def state(algorithm) -> bytes:
    snapshot = getattr(algorithm, "snapshot_state", None)
    return pickle.dumps(algorithm if snapshot is None else snapshot())


HOSTED = {
    "memento": memento,
    "h_memento": h_memento,
    "sharded_h_memento": sharded_h_memento,
}


class TestReceiveMany:
    """``receive_many`` compiles a call into one sampled plan; the state it
    leaves must be byte-identical to ``receive`` applied per report."""

    @pytest.mark.parametrize("hosted", sorted(HOSTED))
    def test_matches_per_report_receive(self, hosted):
        batched = SketchController(HOSTED[hosted]())
        reference = SketchController(HOSTED[hosted]())
        reports = report_stream()
        for call in call_sizes(reports):
            batched.receive_many(call)
            for report in call:
                reference.receive(report)
        assert state(batched.algorithm) == state(reference.algorithm)
        for attr in ("reports_received", "samples_ingested", "packets_covered"):
            assert getattr(batched, attr) == getattr(reference, attr)
        assert batched.reports_received == len(reports)
        batched.close()
        reference.close()

    @pytest.mark.parametrize("hosted", sorted(HOSTED))
    def test_malformed_report_applies_nothing(self, hosted):
        controller = SketchController(HOSTED[hosted]())
        controller.receive_many(report_stream(count=40))
        before = state(controller.algorithm)
        bad = batch_report([1, 2, 3], covered=2)
        with pytest.raises(ValueError) as per_report:
            SketchController(HOSTED[hosted]()).receive(bad)
        good = report_stream(seed=9, count=6)
        with pytest.raises(ValueError) as batched:
            controller.receive_many(good[:3] + [bad] + good[3:])
        assert str(batched.value) == str(per_report.value)
        assert state(controller.algorithm) == before
        assert controller.reports_received == 40
        controller.close()


class TestAggregationController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregationController(window=0)

    def test_merges_reports(self):
        controller = AggregationController(window=1000)
        controller.receive(agg_report({"a": 5, "b": 2}), now=10)
        controller.receive(agg_report({"a": 3}), now=20)
        assert controller.query("a") == 8.0
        assert controller.query("b") == 2.0
        assert controller.query("zzz") == 0.0
        assert controller.retained_reports == 2

    def test_window_eviction(self):
        controller = AggregationController(window=100)
        controller.receive(agg_report({"a": 5}), now=10)
        controller.receive(agg_report({"a": 7}), now=90)
        assert controller.query("a") == 12.0
        controller.advance(now=111)  # horizon 11 > 10: first report expires
        assert controller.query("a") == 7.0
        assert controller.retained_reports == 1
        controller.advance(now=200)
        assert controller.query("a") == 0.0

    def test_heavy_hitters_threshold(self):
        controller = AggregationController(window=100)
        controller.receive(agg_report({"hot": 60, "cold": 3}), now=5)
        assert controller.heavy_hitters(theta=0.5) == {"hot": 60.0}
        assert controller.heavy_prefixes(theta=0.5) == {"hot": 60.0}

    def test_hhh_output_with_hierarchy(self):
        controller = AggregationController(window=100, hierarchy=SRC_HIERARCHY)
        entries = {p: 60 for p in SRC_HIERARCHY.all_prefixes(0x0A000001)}
        controller.receive(agg_report(entries), now=5)
        out = controller.output(theta=0.5)
        assert (0x0A000001, 32) in out

    def test_output_without_hierarchy_falls_back(self):
        controller = AggregationController(window=100)
        controller.receive(agg_report({"hot": 80}), now=1)
        assert controller.output(theta=0.5) == {"hot"}

    def test_query_point_equals_query(self):
        controller = AggregationController(window=100)
        controller.receive(agg_report({"a": 5}), now=1)
        assert controller.query_point("a") == controller.query("a")
