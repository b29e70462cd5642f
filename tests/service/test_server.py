"""Daemon + client: live queries, backpressure, checkpoints, poison."""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import pickle
import signal
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.engine import SketchSpec, build_engine
from repro.service import (
    AsyncServiceClient,
    CheckpointStore,
    IngestServer,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)
from repro.service import server as server_module
from repro.service.cli import _override_service, build_parser
from repro.service.protocol import encode_frame, encode_report, read_frame_sync
from repro.sharding.shm import leaked_segments

#: seconds a live-daemon case may take before it counts as a hang
DEADLINE = 5.0


def service_spec(**service):
    """An exact-window spec (order-independent) hosting a service."""
    service.setdefault("port", 0)
    return SketchSpec.from_dict(
        {
            "algorithm": {"family": "exact", "window": 100_000},
            "service": service,
        }
    )


def memento_spec(**service):
    service.setdefault("port", 0)
    return SketchSpec.from_dict(
        {
            "algorithm": {
                "family": "memento",
                "window": 4096,
                "counters": 64,
                "tau": 0.25,
                "seed": 7,
            },
            "service": service,
        }
    )


class TestConstruction:
    def test_requires_service_section(self):
        spec = SketchSpec.from_dict(
            {"algorithm": {"family": "exact", "window": 100}}
        )
        with pytest.raises(ValueError, match="no service section"):
            IngestServer(spec)

    def test_rejects_negative_position(self):
        with pytest.raises(ValueError, match="non-negative"):
            IngestServer(service_spec(), position=-1)

    def test_daemon_surfaces_bind_failure(self, tmp_path):
        # a unix-socket path inside a missing directory cannot bind
        spec = service_spec(unix_socket=str(tmp_path / "no" / "dir" / "s"))
        daemon = ServiceDaemon(spec)
        with pytest.raises(RuntimeError, match="failed to start"):
            daemon.start()
        daemon.close()  # engine still released; idempotent


class TestLiveQueries:
    def test_report_flush_query_round_trip(self):
        stream = [i % 20 for i in range(1000)]
        with build_engine(service_spec()) as direct:
            direct.update_many(stream)
            expected_top = direct.top_k(5)
            expected_heavy = direct.heavy_hitters(0.04)
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report(stream[:400])
                client.report(stream[400:])
                assert client.flush() == 1000
                assert client.top_k(5) == expected_top
                assert client.heavy_hitters(0.04) == expected_heavy
                assert client.query(3) == float(stream.count(3))

    def test_queries_are_flush_consistent_without_explicit_flush(self):
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report([7] * 123)
                # no flush(): the query op rides the same ordered queue
                assert client.query(7) == 123.0

    def test_gap_advances_position(self):
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report([1, 2, 3])
                client.gap(97)
                assert client.flush() == 100

    def test_stats_exposes_service_counters(self):
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report([1, 2, 3])
                client.flush()
                stats = client.stats()
        assert stats["position"] == 3
        assert stats["failure"] is None
        assert stats["checkpoints_written"] == 0
        assert stats["inflight_peak_bytes"] > 0
        assert stats["clients"] == 1

    def test_checkpoint_op_without_store_is_an_error(self):
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                with pytest.raises(ServiceError, match="checkpoint_dir"):
                    client.checkpoint()

    def test_unknown_op_gets_error_response(self):
        with ServiceDaemon(service_spec()) as daemon:
            sock = socket.create_connection(("127.0.0.1", daemon.port))
            try:
                sock.sendall(encode_frame({"op": "explode", "id": 1}))
                response = read_frame_sync(sock)
            finally:
                sock.close()
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_json_report_is_not_an_op(self):
        # the repro-wire/1 JSON report lane is gone: refused, not applied
        with ServiceDaemon(service_spec()) as daemon:
            sock = socket.create_connection(("127.0.0.1", daemon.port))
            try:
                sock.sendall(encode_frame({"op": "report", "items": [1, 2]}))
                response = read_frame_sync(sock)
                sock.sendall(encode_frame({"op": "flush", "id": 1}))
                assert read_frame_sync(sock)["position"] == 0
            finally:
                sock.close()
        assert response["ok"] is False
        assert "unknown op 'report'" in response["error"]

    def test_malformed_report_drops_the_client(self):
        # a report column whose count (4) disagrees with its 3 keys
        payload = bytearray(encode_report([1, 2, 3])[4:])
        struct.pack_into("<I", payload, 2, 4)
        with ServiceDaemon(service_spec()) as daemon:
            sock = socket.create_connection(("127.0.0.1", daemon.port))
            try:
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                assert read_frame_sync(sock) is None  # daemon hung up
            finally:
                sock.close()

    def test_client_disconnecting_mid_frame_is_dropped(self):
        half = encode_report(list(range(100)))
        half = half[: len(half) // 2]
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as other:
                sock = socket.create_connection(("127.0.0.1", daemon.port))
                try:
                    sock.sendall(encode_report([1, 2, 3]) + half)
                finally:
                    sock.close()
                deadline = time.monotonic() + DEADLINE
                while other.stats()["clients"] > 1:
                    assert time.monotonic() < deadline, "client never dropped"
                    time.sleep(0.01)
                # the complete frame is in; the partial one is not
                assert other.flush() == 3


class TestReportColumns:
    @pytest.mark.parametrize(
        "keys, error",
        [
            ([1, 2.5], TypeError),
            (["a"], TypeError),
            ([(1, 2)], TypeError),
            ([1, 2**63], OverflowError),
            ([-(2**63) - 1], OverflowError),
        ],
    )
    def test_non_integer_keys_rejected_before_sending(self, keys, error):
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as client:
                with pytest.raises(error, match="repro-wire/2"):
                    client.report(keys)
                # nothing reached the wire: the stream is still in sync
                client.report([1])
                assert client.flush() == 1

    def test_int64_keys_round_trip(self):
        keys = [-1, -(2**63), 2**32, 2**63 - 1, 7, 2**32, -1, -1]
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report(keys)
                assert client.flush() == len(keys)
                for key in set(keys):
                    assert client.query(key) == float(keys.count(key))
                assert client.top_k(2) == [(-1, 3.0), (2**32, 2.0)]

    @pytest.mark.parametrize(
        "offset", [0, -(2**40)], ids=["uint32", "int64"]
    )
    def test_service_fed_state_equals_direct(self, tmp_path, offset):
        stream = [offset + (i * i) % 97 for i in range(3000)]
        spec = memento_spec(checkpoint_dir=str(tmp_path))
        with ServiceDaemon(spec) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                for lo in range(0, len(stream), 32):
                    client.report(stream[lo : lo + 32])
                path, position = client.checkpoint()
        assert position == len(stream)
        with build_engine(spec) as direct:
            direct.update_many(stream)
            blob = pickle.dumps(
                direct.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL
            )
        assert Path(path).read_bytes().endswith(blob)


class TestConcurrentClients:
    def test_two_clients_interleaved_reports_merge_exactly(self):
        evens = [2 * (i % 25) for i in range(800)]
        odds = [2 * (i % 25) + 1 for i in range(600)]
        with build_engine(service_spec()) as direct:
            direct.update_many(evens + odds)
            expected = direct.heavy_hitters(0.01)
        with ServiceDaemon(service_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as a, \
                    ServiceClient.connect(port=daemon.port) as b:
                for lo in range(0, 800, 100):
                    a.report(evens[lo : lo + 100])
                    if lo < 600:
                        b.report(odds[lo : lo + 100])
                # each client barriers its own stream; a flush cannot see
                # frames still sitting in the other client's socket buffer
                b.flush()
                assert a.flush() == len(evens) + len(odds)
                # exact counts are order-independent across clients
                assert b.heavy_hitters(0.01) == expected


class TestBackpressure:
    def test_inflight_peak_is_metered_and_oversize_admitted(self):
        # budget far below one report frame: every frame takes the
        # idle-pipeline oversize admission, so the peak deterministically
        # exceeds the budget and nothing deadlocks
        budget = 64
        with ServiceDaemon(service_spec(max_inflight_bytes=budget)) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                for lo in range(0, 5000, 1000):
                    client.report(list(range(lo, lo + 1000)))
                assert client.flush() == 5000
                stats = client.stats()
        assert stats["max_inflight_bytes"] == budget
        assert stats["inflight_peak_bytes"] > budget
        assert stats["inflight_bytes"] == 0  # all credited back


class TestCheckpoints:
    def test_cadence_checkpoints_and_retention(self, tmp_path):
        spec = service_spec(
            checkpoint_dir=str(tmp_path), checkpoint_interval=100,
            checkpoint_retain=2,
        )
        with ServiceDaemon(spec) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                for _ in range(5):
                    client.report(list(range(100)))
                    # barrier per batch: consecutive report frames would
                    # otherwise merge into one engine hop (one cadence check)
                    client.flush()
                stats = client.stats()
        assert stats["checkpoints_written"] == 5
        assert len(stats["checkpoint_pauses_s"]) == stats["checkpoints_written"]
        store = CheckpointStore(tmp_path, retain=2)
        assert 1 <= len(store.list()) <= 2
        assert store.load_latest().position >= 400

    def test_final_checkpoint_on_clean_shutdown(self, tmp_path):
        spec = service_spec(
            checkpoint_dir=str(tmp_path), checkpoint_interval=10_000
        )
        with ServiceDaemon(spec) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report([1, 2, 3, 4, 5])
                client.flush()
        # cadence never hit; the shutdown path wrote the checkpoint
        assert CheckpointStore(tmp_path).load_latest().position == 5

    def test_explicit_checkpoint_then_restore_into_new_daemon(self, tmp_path):
        stream = [i % 30 for i in range(2000)]
        spec = memento_spec(checkpoint_dir=str(tmp_path))
        with build_engine(spec) as reference:
            reference.update_many(stream)
            expected = reference.top_k(8)
        with ServiceDaemon(spec) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report(stream[:1200])
                path, position = client.checkpoint()
                assert position == 1200
                assert path.endswith("ckpt-000000001200.bin")
        engine, position = CheckpointStore(tmp_path).restore()
        with ServiceDaemon(spec, engine=engine, position=position) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                client.report(stream[position:])
                assert client.flush() == 2000
                assert client.top_k(8) == expected


class TestPoison:
    def test_ingest_failure_poisons_and_surfaces(self, monkeypatch):
        def explode(items):
            raise TypeError("injected engine failure")

        with ServiceDaemon(service_spec()) as daemon:
            monkeypatch.setattr(daemon.server.engine, "update_many", explode)
            with ServiceClient.connect(port=daemon.port) as client:
                client.report([1, 2, 3])
                with pytest.raises(ServiceError, match="poisoned"):
                    client.flush()
                # later reports are consumed-and-dropped, never deadlock
                client.report(list(range(1000)))
                stats = client.stats()  # stats still answers when poisoned
        assert stats["failure"] is not None
        assert "TypeError" in stats["failure"]


class TestUnixSocket:
    def test_unix_socket_round_trip_and_cleanup(self, tmp_path):
        sock_path = tmp_path / "repro.sock"
        spec = service_spec(port=None, unix_socket=str(sock_path))
        with ServiceDaemon(spec) as daemon:
            assert daemon.port is None
            with ServiceClient.connect(unix_socket=str(sock_path)) as client:
                client.report([1, 1, 2])
                assert client.query(1) == 2.0
        assert not sock_path.exists()  # removed on shutdown


class TestAsyncClient:
    def test_async_client_round_trip(self):
        async def scenario(port):
            async with await AsyncServiceClient.connect(port=port) as client:
                with pytest.raises(TypeError, match="repro-wire/2"):
                    await client.report([5, "five"])
                await client.report([5] * 40 + [6] * 10)
                assert await client.flush() == 50
                assert await client.query(5) == 40.0
                # exact family thresholds against the window (100k):
                # 0.0003 * 100_000 = 30 keeps 5 (40 hits), drops 6 (10)
                heavy = await client.heavy_hitters(0.0003)
                assert heavy == {5: 40.0}
                top = await client.top_k(1)
                assert top == [(5, 40.0)]
                stats = await client.stats()
                assert stats["position"] == 50

        with ServiceDaemon(service_spec()) as daemon:
            asyncio.run(scenario(daemon.port))


class TestDaemonLifecycle:
    def test_start_and_close_are_idempotent(self):
        daemon = ServiceDaemon(service_spec())
        try:
            assert daemon.start() is daemon.start()
            assert daemon.port is not None
        finally:
            daemon.close()
            daemon.close()

    def test_close_without_start_releases_engine(self):
        daemon = ServiceDaemon(service_spec())
        daemon.close()  # must not raise or leak the engine


class TestCli:
    def test_parser_round_trip(self):
        args = build_parser().parse_args(
            ["spec.json", "--restore", "--port", "9100",
             "--checkpoint-dir", "ckpts", "--unix-socket", "/tmp/s"]
        )
        assert args.spec == "spec.json"
        assert args.restore is True
        assert args.port == 9100
        assert args.checkpoint_dir == "ckpts"
        assert args.unix_socket == "/tmp/s"

    def test_override_service_replaces_fields(self):
        args = build_parser().parse_args(
            ["spec.json", "--port", "9100", "--checkpoint-dir", "ckpts"]
        )
        spec = _override_service(service_spec(), args)
        assert spec.service.port == 9100
        assert spec.service.checkpoint_dir == "ckpts"
        assert spec.service.host == "127.0.0.1"  # untouched

    def test_override_service_is_identity_without_flags(self):
        args = build_parser().parse_args(["spec.json"])
        spec = service_spec()
        assert _override_service(spec, args) is spec

    def test_override_service_requires_service_section(self):
        args = build_parser().parse_args(["spec.json"])
        spec = SketchSpec.from_dict(
            {"algorithm": {"family": "exact", "window": 100}}
        )
        with pytest.raises(SystemExit, match="no service section"):
            _override_service(spec, args)


class TestDeadShardWorker:
    def test_every_client_flush_names_the_dead_worker(self):
        # a resident shard worker SIGKILLed under a live daemon: every
        # connected client's next flush fails with the named error, and
        # the daemon's teardown leaves no process or segment behind
        spec = SketchSpec.from_dict(
            {
                "algorithm": {
                    "family": "memento",
                    "window": 4096,
                    "counters": 64,
                    "tau": 0.25,
                    "seed": 7,
                },
                "sharding": {"shards": 2, "executor": "persistent"},
                "service": {"port": 0},
            }
        )
        named = r"persistent shard worker 1 died \(exitcode -9\)"
        deadline = time.monotonic() + 10.0
        daemon = ServiceDaemon(spec).start()
        try:
            with ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as first, ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as second:
                first.report(list(range(5000)))
                assert first.flush() == 5000  # workers seeded and fed
                victim = daemon.server.engine.sketch._executor._workers[1]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5)
                for client in (first, second):
                    with pytest.raises(ServiceError, match=named):
                        client.flush()
        finally:
            # the engine's close re-raises the stored failure once the
            # daemon has unwound everything else
            with pytest.raises(RuntimeError, match=named):
                daemon.close()
        assert time.monotonic() < deadline
        assert mp.active_children() == []
        assert leaked_segments() == []


def blocked_in_drain(daemon) -> bool:
    """Whether a task on ``daemon``'s loop is awaiting a stream writer's
    ``drain()`` (asked on that loop)."""

    async def probe():
        for task in asyncio.all_tasks():
            awaiting = task.get_coro()
            while awaiting is not None:
                if getattr(awaiting, "__name__", "") == "drain":
                    return True
                awaiting = getattr(awaiting, "cr_await", None)
        return False

    return asyncio.run_coroutine_threadsafe(probe(), daemon._loop).result(DEADLINE)


def stall(daemon, stuck: socket.socket) -> None:
    """Fill ``daemon`` with 20,000 keys, then send 64 queries on
    ``stuck`` whose ~300 KB replies it never reads, until a handler
    blocks in ``drain()``."""
    with ServiceClient.connect(port=daemon.port, timeout=DEADLINE) as feeder:
        # every key is heavy at this theta
        feeder.report(list(range(20_000)))
        assert feeder.flush() == 20_000
    stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stuck.connect(("127.0.0.1", daemon.port))
    request = {"op": "heavy_hitters", "theta": 1e-9}
    stuck.sendall(b"".join(encode_frame({**request, "id": i}) for i in range(64)))
    deadline = time.monotonic() + DEADLINE
    while not blocked_in_drain(daemon):
        assert time.monotonic() < deadline, "handler never blocked"
        time.sleep(0.01)


class TestClientThatStopsReading:
    """A client that sends requests and never reads the replies blocks
    only its own handler, in ``drain()``: other clients' flushes and
    queries still answer, ``close()`` still unwinds, and past
    ``DRAIN_TIMEOUT`` the client is dropped as stalled."""

    def test_other_clients_and_close_are_not_held_up(self):
        daemon = ServiceDaemon(service_spec()).start()
        stuck = socket.socket()
        try:
            stall(daemon, stuck)
            start = time.monotonic()
            with ServiceClient.connect(port=daemon.port, timeout=DEADLINE) as other:
                other.report([10**9] * 3)
                assert other.flush() == 20_003
                assert other.heavy_hitters(2e-5) == {10**9: 3}
            assert time.monotonic() - start < DEADLINE
            assert blocked_in_drain(daemon)  # still stuck meanwhile
            closer = threading.Thread(target=daemon.close)
            closer.start()
            closer.join(DEADLINE)
            assert not closer.is_alive(), "close() hung behind a stuck client"
        finally:
            stuck.close()
            daemon.close()

    def test_a_stalled_client_is_dropped(self, monkeypatch):
        monkeypatch.setattr(server_module, "DRAIN_TIMEOUT", 0.3)
        with ServiceDaemon(service_spec()) as daemon:
            stuck = socket.socket()
            try:
                stall(daemon, stuck)
                with ServiceClient.connect(
                    port=daemon.port, timeout=DEADLINE
                ) as other:
                    deadline = time.monotonic() + DEADLINE
                    while other.stats()["clients"] > 1:
                        assert time.monotonic() < deadline, "never dropped"
                        time.sleep(0.05)
                    assert other.stats()["stalled_clients"] == 1
                    assert other.flush() == 20_000
            finally:
                stuck.close()
