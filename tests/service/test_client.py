"""The coalescing clients: pending report columns, op ordering, close."""

from __future__ import annotations

import asyncio
import math
import pickle
import random
import socket
import time
from pathlib import Path

import pytest

from repro.engine import SketchSpec, build_engine
from repro.service import (
    AsyncServiceClient,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)
from repro.service import protocol
from repro.service.client import COALESCE_BYTES

#: seconds a live-daemon case may take before it counts as a hang
DEADLINE = 5.0

#: uint32 keys in one full pending column
THRESHOLD_KEYS = COALESCE_BYTES // 4


def memento_spec(**service):
    service.setdefault("port", 0)
    return SketchSpec.from_dict(
        {
            "algorithm": {
                "family": "memento",
                "window": 4096,
                "counters": 64,
                "tau": 1 / 16,
                "seed": 7,
            },
            "service": service,
        }
    )


def state_blob(engine) -> bytes:
    return pickle.dumps(engine.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL)


def random_batch(rng: random.Random, wide: bool) -> list:
    """1 to ~3x a full column of keys; ``wide`` batches need int64."""
    size = int(2 ** rng.uniform(0, math.log2(3 * THRESHOLD_KEYS)))
    keys = [rng.randrange(500) for _ in range(size)]
    if wide:
        keys[rng.randrange(size)] = -(2**40) - rng.randrange(100)
    return keys


def op_stream(seed: int, ops: int = 40):
    """A seeded sequence of ``(op, argument)`` client calls."""
    rng = random.Random(seed)
    stream = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.7:
            stream.append(("report", random_batch(rng, wide=rng.random() < 0.2)))
        elif roll < 0.8:
            stream.append(("gap", rng.randrange(1, 5000)))
        elif roll < 0.9:
            stream.append(("flush", None))
        else:
            stream.append(("query", rng.randrange(500)))
    # a tail left pending for close(): under one column, uint32 then wide
    stream.append(("report", [rng.randrange(500) for _ in range(300)]))
    stream.append(("report", [2**33 + rng.randrange(9) for _ in range(5)]))
    return stream


class TestCoalescingAgainstDirectEngine:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_checkpoint_state_equals_direct_engine(self, tmp_path, seed):
        ops = op_stream(seed)
        spec = memento_spec(checkpoint_dir=str(tmp_path))
        sent = 0
        with build_engine(spec) as direct:
            with ServiceDaemon(spec) as daemon:
                client = ServiceClient.connect(port=daemon.port, timeout=DEADLINE)
                try:
                    for op, arg in ops:
                        if op == "report":
                            client.report(arg)
                            direct.update_many(arg)
                            sent += len(arg)
                        elif op == "gap":
                            client.gap(arg)
                            direct.ingest_gap(arg)
                            sent += arg
                        elif op == "flush":
                            assert client.flush() == sent
                        else:
                            assert client.query(arg) == direct.query(arg)
                finally:
                    client.close()  # the tail is still pending here
                with ServiceClient.connect(
                    port=daemon.port, timeout=DEADLINE
                ) as witness:
                    assert witness.flush() == sent
                    path, position = witness.checkpoint()
            assert position == sent
            assert Path(path).read_bytes().endswith(state_blob(direct))

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([3, 2.5], TypeError),
            (["a"] * (2 * THRESHOLD_KEYS), TypeError),
            ([3, 2**63], OverflowError),
        ],
    )
    def test_rejected_batch_leaves_pending_column_unchanged(
        self, tmp_path, bad, error
    ):
        spec = memento_spec(checkpoint_dir=str(tmp_path))
        good = [[1, 2, 3] * 100, [2**40, 4]]
        with ServiceDaemon(spec) as daemon:
            with ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as client:
                client.report(good[0])
                pending = client._pending._column.tolist()
                with pytest.raises(error, match="repro-wire/2"):
                    client.report(bad)
                assert client._pending._column.tolist() == pending
                client.report(good[1])
                path, position = client.checkpoint()
        assert position == sum(map(len, good))
        with build_engine(spec) as direct:
            for batch in good:
                direct.update_many(batch)
            assert Path(path).read_bytes().endswith(state_blob(direct))

    def test_a_full_column_is_sent_without_another_op(self):
        with ServiceDaemon(memento_spec()) as daemon:
            with ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as sender, ServiceClient.connect(
                port=daemon.port, timeout=DEADLINE
            ) as witness:
                sender.report(list(range(THRESHOLD_KEYS - 1)))
                sender.report([7, 8])  # fills the column: sent now
                deadline = time.monotonic() + DEADLINE
                while witness.flush() != THRESHOLD_KEYS + 1:
                    assert time.monotonic() < deadline, "full column not sent"
                    time.sleep(0.01)
                sender.report([9])  # below the threshold: held back
                assert witness.flush() == THRESHOLD_KEYS + 1
                assert sender.flush() == THRESHOLD_KEYS + 2


class TestUnsentTail:
    """Failures on a client whose daemon end is gone (a socketpair whose
    far end is closed stands in for a daemon that hung up)."""

    @staticmethod
    def hung_up_client():
        near, far = socket.socketpair()
        far.close()
        return ServiceClient(near)

    def test_close_after_hang_up_raises_service_error(self):
        client = self.hung_up_client()
        client.report([1, 2, 3])  # below the threshold: still pending
        with pytest.raises(ServiceError, match="pending reports not sent"):
            client.close()
        assert client._sock.fileno() == -1
        client.close()  # idempotent, and nothing left to send

    def test_exit_keeps_the_exception_leaving_the_block(self):
        client = self.hung_up_client()
        with pytest.raises(KeyError) as raised:
            with client:
                client.report([1, 2, 3])
                raise KeyError("the real failure")
        assert client._sock.fileno() == -1
        notes = getattr(raised.value, "__notes__", None)
        if notes is not None:  # Python 3.11+
            assert "pending reports not sent" in notes[0]

    def test_frame_past_max_frame_leaves_pending_column_unchanged(
        self, monkeypatch
    ):
        near, far = socket.socketpair()
        with near, far, ServiceClient(near) as client:
            client.report([1, 2, 3])
            monkeypatch.setattr(protocol, "MAX_FRAME", COALESCE_BYTES)
            with pytest.raises(protocol.ProtocolError, match="MAX_FRAME"):
                client.report(list(range(THRESHOLD_KEYS)))
            assert client._pending._column.tolist() == [1, 2, 3]
            far.setblocking(False)
            with pytest.raises(BlockingIOError):
                far.recv(1)  # nothing was written


class TestSockets:
    def test_tcp_client_sets_nodelay(self):
        with ServiceDaemon(memento_spec()) as daemon:
            with ServiceClient.connect(port=daemon.port) as client:
                nodelay = client._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                assert nodelay != 0
                client.report([1, 2, 3])
                assert client.flush() == 3

    def test_unix_socket_client_still_connects(self, tmp_path):
        sock_path = str(tmp_path / "repro.sock")
        with ServiceDaemon(memento_spec(port=None, unix_socket=sock_path)):
            with ServiceClient.connect(unix_socket=sock_path) as client:
                assert client._sock.family == socket.AF_UNIX
                client.report([1, 2, 3])
                client.gap(4)
                assert client.flush() == 7

    def test_async_close_delivers_the_pending_tail(self):
        async def drive(port):
            async with await AsyncServiceClient.connect(port=port) as client:
                await client.report([5] * 40)
                assert await client.flush() == 40
                await client.report([6] * 10)  # pending at close
            async with await AsyncServiceClient.connect(port=port) as client:
                return await client.flush()

        with ServiceDaemon(memento_spec()) as daemon:
            assert asyncio.run(drive(daemon.port)) == 50
