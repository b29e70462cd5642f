"""Failure-injection tests: malformed inputs, degenerate configs, abuse,
and crash-recovery of the ingestion daemon (SIGKILL + checkpoint restore)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import (
    AggregationController,
    HMemento,
    Memento,
    NetwideConfig,
    NetwideSystem,
    SRC_HIERARCHY,
    SketchController,
    SpaceSaving,
)
from repro.netwide.messages import AggregateReport, BatchReport


class TestDegenerateConfigurations:
    def test_window_smaller_than_counters(self):
        """W < k inflates the effective window but stays functional."""
        sketch = Memento(window=10, counters=64, tau=1.0)
        assert sketch.effective_window == 64
        for i in range(500):
            sketch.update(i % 3)
        assert sketch.query(0) > 0

    def test_single_counter(self):
        sketch = Memento(window=100, counters=1, tau=1.0)
        for _ in range(300):
            sketch.update("only")
        assert sketch.query("only") >= 100

    def test_window_of_one(self):
        sketch = Memento(window=1, counters=1, tau=1.0)
        sketch.update("a")
        sketch.update("b")
        assert sketch.query("b") >= 1

    def test_space_saving_single_counter_churn(self):
        ss = SpaceSaving(1)
        for i in range(1000):
            ss.add(i)
        assert ss.monitored == 1
        assert ss.query(999) == 1000  # everything merged into one counter

    def test_hmemento_minimum_window(self):
        sketch = HMemento(window=1, hierarchy=SRC_HIERARCHY, counters=5, tau=1.0)
        sketch.update(0x01020304)
        assert sketch.updates == 1


class TestMalformedReports:
    def test_controller_rejects_negative_gap(self):
        controller = SketchController(Memento(window=100, counters=8, tau=0.5))
        bad = BatchReport(
            point_id=0, samples=("a", "b", "c"), covered=1, size_bytes=76
        )
        with pytest.raises(ValueError):
            controller.receive(bad)  # covered < samples -> negative gap

    def test_controller_accepts_empty_batch(self):
        controller = SketchController(Memento(window=100, counters=8, tau=0.5))
        controller.receive(
            BatchReport(point_id=0, samples=(), covered=10, size_bytes=64)
        )
        assert controller.packets_covered == 10

    def test_aggregation_out_of_order_time(self):
        """A stale 'now' must not resurrect evicted reports."""
        controller = AggregationController(window=100)
        controller.receive(
            AggregateReport(point_id=0, entries={"a": 5}, covered=5, size_bytes=68),
            now=50,
        )
        controller.advance(now=500)  # evicts
        assert controller.query("a") == 0.0
        controller.advance(now=60)  # time goes "backwards": harmless no-op
        assert controller.query("a") == 0.0

    def test_aggregation_empty_report(self):
        controller = AggregationController(window=100)
        controller.receive(
            AggregateReport(point_id=0, entries={}, covered=0, size_bytes=64),
            now=1,
        )
        assert controller.retained_reports == 1
        assert controller.heavy_hitters(0.1) == {}


class TestAbuseResistance:
    def test_memento_many_distinct_flows_bounded_state(self):
        """Adversarial all-distinct traffic cannot grow state unboundedly."""
        sketch = Memento(window=1000, counters=32, tau=1.0)
        for i in range(50_000):
            sketch.update(i)
        # B entries are bounded by the queue capacity (k+1 blocks of
        # block_size overflows each, drained continuously)
        assert sketch.overflow_entries <= (sketch.k + 1) * sketch.block_size
        assert sketch._y.monitored <= sketch.k

    def test_queue_drain_keeps_up_under_bursts(self):
        sketch = Memento(window=500, counters=10, tau=1.0)
        for burst in range(100):
            for _ in range(50):
                sketch.update("hot")
            for i in range(50):
                sketch.update(f"noise{i}")
        assert sum(sketch._counts) == len(sketch._fifo)
        assert Counter(sketch._fifo) == sketch._offsets

    def test_netwide_zero_traffic_queries(self):
        system = NetwideSystem(
            NetwideConfig(
                method="batch",
                window=1000,
                points=2,
                hierarchy=SRC_HIERARCHY,
                counters=64,
            )
        )
        # no packets at all: queries must be safe and small
        assert system.query_point((0, 8)) == 0.0
        assert system.detected_subnets(0.5) == set()

    def test_unhashable_packet_raises_cleanly(self):
        sketch = Memento(window=100, counters=8, tau=1.0)
        with pytest.raises(TypeError):
            sketch.update([1, 2, 3])


# ----------------------------------------------------------------------
# daemon crash recovery: SIGKILL mid-stream, restore, replay the tail
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[2]

MEMENTO_ALGO = {
    "family": "memento",
    "window": 4096,
    "counters": 64,
    "tau": 0.25,
    "seed": 7,
}

SHARDED_SECTIONS = {
    "sharding": {"shards": 2, "executor": "persistent", "transport": "shm"},
}


def spec_payload(tmp_path, sharded):
    payload = {
        "algorithm": dict(MEMENTO_ALGO),
        "service": {
            "unix_socket": str(tmp_path / "repro.sock"),
            "checkpoint_dir": str(tmp_path / "checkpoints"),
            "checkpoint_interval": 1_000_000,  # explicit checkpoints only
        },
    }
    if sharded:
        payload.update(SHARDED_SECTIONS)
    return payload


def spawn_daemon(spec_path):
    """Launch ``python -m repro.service SPEC`` and wait for readiness.

    Returns ``(proc, ready)`` where ``ready`` is the decoded
    ``{"event": "listening", ...}`` line the daemon prints on startup.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", str(spec_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    box = {}

    def read_line():
        box["line"] = proc.stdout.readline()

    reader = threading.Thread(target=read_line, daemon=True)
    reader.start()
    reader.join(timeout=30.0)
    line = box.get("line") or b""
    if not line:
        proc.kill()
        proc.wait()
        raise RuntimeError(
            "daemon never became ready: " + proc.stderr.read().decode()
        )
    return proc, json.loads(line)


def sigkill(proc):
    proc.kill()  # SIGKILL: no atexit, no finally blocks, no final checkpoint
    proc.wait(timeout=30.0)
    proc.stdout.close()
    proc.stderr.close()


def wait_for_segment_cleanup(daemon_pid, deadline=30.0):
    """Block until the daemon's shm rings are gone from ``/dev/shm``.

    Orphaned workers notice the re-parenting within a second and exit;
    the shared resource tracker then unlinks the registered segments.
    Segments still present after the deadline mean leaked workers.
    """
    from repro.sharding.shm import leaked_segments

    end = time.monotonic() + deadline
    while time.monotonic() < end:
        leaked = leaked_segments(pid=daemon_pid)
        if not leaked:
            return
        time.sleep(0.2)
    raise AssertionError(
        f"daemon {daemon_pid} leaked shm segments after SIGKILL: {leaked}"
    )


class TestDaemonKillAndRestore:
    """The ISSUE's core acceptance criterion: kill -9 the daemon, restore
    from the newest checkpoint, replay the tail, and land exactly on an
    uninterrupted run — for the plain and the sharded persistent+shm
    engine alike."""

    @pytest.mark.parametrize("sharded", [False, True], ids=["plain", "shm"])
    def test_sigkill_restore_replay_matches_oracle(self, tmp_path, sharded):
        from repro import CheckpointStore, ServiceClient, SketchSpec, build_engine

        payload = spec_payload(tmp_path, sharded)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        stream = [i % 40 for i in range(6000)]

        proc, ready = spawn_daemon(spec_path)
        try:
            assert ready["event"] == "listening"
            assert ready["position"] == 0 and ready["restored"] is False
            with ServiceClient.connect(
                unix_socket=payload["service"]["unix_socket"]
            ) as client:
                client.report(stream[:4000])
                _, position = client.checkpoint()
                assert position == 4000
                # items reported after the checkpoint die with the daemon
                client.report(stream[4000:])
                client.flush()
        finally:
            sigkill(proc)
        if sharded:
            # the orphaned workers must exit and their rings be unlinked
            wait_for_segment_cleanup(proc.pid)

        store = CheckpointStore(payload["service"]["checkpoint_dir"])
        engine, position = store.restore()
        try:
            assert position == 4000
            engine.update_many(stream[position:])
            with build_engine(SketchSpec.from_dict(payload)) as oracle:
                oracle.update_many(stream)
                assert engine.top_k(10) == oracle.top_k(10)
                assert engine.heavy_hitters(0.01) == oracle.heavy_hitters(0.01)
                for key in range(40):
                    assert engine.query(key) == oracle.query(key)
        finally:
            engine.close()

    def test_torn_newest_checkpoint_falls_back(self, tmp_path):
        from repro import CheckpointStore, ServiceClient, SketchSpec, build_engine

        payload = spec_payload(tmp_path, sharded=False)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        stream = [i % 40 for i in range(6000)]

        proc, _ = spawn_daemon(spec_path)
        try:
            with ServiceClient.connect(
                unix_socket=payload["service"]["unix_socket"]
            ) as client:
                client.report(stream[:3000])
                client.checkpoint()
                client.report(stream[3000:4500])
                newest, position = client.checkpoint()
                assert position == 4500
        finally:
            sigkill(proc)

        # tear the newest checkpoint as a crash mid-write would not (the
        # atomic writer can't produce this) but a disk fault could
        torn = Path(newest)
        torn.write_bytes(torn.read_bytes()[:100])

        store = CheckpointStore(payload["service"]["checkpoint_dir"])
        engine, position = store.restore()
        try:
            assert position == 3000  # fell back past the torn file
            engine.update_many(stream[position:])
            with build_engine(SketchSpec.from_dict(payload)) as oracle:
                oracle.update_many(stream)
                assert engine.top_k(10) == oracle.top_k(10)
        finally:
            engine.close()

    def test_restored_daemon_resumes_serving(self, tmp_path):
        """--restore end to end: a second daemon picks up the checkpoint
        and serves the replayed tail with flush-consistent queries."""
        from repro import ServiceClient, SketchSpec, build_engine

        payload = spec_payload(tmp_path, sharded=False)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        stream = [i % 40 for i in range(6000)]

        proc, _ = spawn_daemon(spec_path)
        try:
            with ServiceClient.connect(
                unix_socket=payload["service"]["unix_socket"]
            ) as client:
                client.report(stream[:4000])
                client.checkpoint()
        finally:
            sigkill(proc)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", str(spec_path), "--restore"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["restored"] is True
            assert ready["position"] == 4000
            with ServiceClient.connect(
                unix_socket=payload["service"]["unix_socket"]
            ) as client:
                client.report(stream[4000:])
                assert client.flush() == 6000
                served = client.top_k(10)
            with build_engine(SketchSpec.from_dict(payload)) as oracle:
                oracle.update_many(stream)
                assert served == oracle.top_k(10)
        finally:
            sigkill(proc)
