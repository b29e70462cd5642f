"""Seeded mutation fuzz of ``repro-wire/2``: the decoder and a live daemon.

Both frame kinds — binary report columns and JSON control frames — are
mutated by truncation, bit flips, hostile length prefixes, hostile
counts, and unknown op/dtype bytes.  The decoder must raise
:class:`ProtocolError` or return well-formed frames.  The live daemon
must end every case by closing the connection, while a second client's
``flush()`` keeps answering within a deadline and no handler dies of an
unnamed exception.  The loops are bounded by iteration count, not time,
so a run is reproducible from ``SEED``.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from array import array

import pytest

from repro.engine import SketchSpec
from repro.service import ServiceClient, ServiceDaemon
from repro.service.protocol import (
    MAX_FRAME,
    ProtocolError,
    encode_frame,
    encode_report,
    split_frames,
)

SEED = 2018
DECODER_CASES = 20_000
LIVE_CASES = 1_200
#: seconds a live case may take before it counts as a hang
DEADLINE = 5.0
WINDOW = 10_000

MUTATIONS = ("truncate", "bitflip", "length", "count", "op", "dtype")


def seed_frame(rng: random.Random) -> bytes:
    """A valid frame of either kind."""
    kind = rng.randrange(4)
    if kind == 0:
        return encode_report([rng.randrange(2**32) for _ in range(rng.randrange(40))])
    if kind == 1:
        return encode_report(
            [rng.randrange(-(2**63), 2**63) for _ in range(rng.randrange(1, 40))]
        )
    if kind == 2:
        return encode_frame({"op": "gap", "count": rng.randrange(100)})
    return encode_frame({"op": rng.choice(["flush", "stats"]), "id": rng.randrange(99)})


def mutate(rng: random.Random, frame: bytes, how: str) -> bytes:
    prefix, payload = bytearray(frame[:4]), bytearray(frame[4:])
    if how == "truncate":
        payload = payload[: rng.randrange(len(payload))]
        if rng.random() < 0.5:  # a complete frame with a short payload
            prefix = bytearray(struct.pack(">I", len(payload)))
    elif how == "bitflip":
        raw = prefix + payload
        for _ in range(rng.randrange(1, 4)):
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        prefix, payload = raw[:4], raw[4:]
    elif how == "length":
        hostile = [0, 1, len(payload) - 1, len(payload) + 1, MAX_FRAME,
                   MAX_FRAME + 1, 2**32 - 1, rng.randrange(2**32)]
        prefix = bytearray(struct.pack(">I", max(0, rng.choice(hostile))))
    elif how == "count":
        if payload[:1] == b"{":  # a JSON frame's count is the gap count
            count = rng.choice([-1, 1.5, "7", None, [3], 2**70])
            payload = bytearray(encode_frame({"op": "gap", "count": count})[4:])
            prefix = bytearray(struct.pack(">I", len(payload)))
        else:
            old = struct.unpack_from("<I", payload, 2)[0]
            new = rng.choice([0, old + 1, max(0, old - 1), 2**32 - 1,
                              rng.randrange(2**32)])
            struct.pack_into("<I", payload, 2, new)
    elif how == "op":
        payload[0] = rng.randrange(256)
    elif how == "dtype" and len(payload) > 1:
        payload[1] = rng.randrange(256)
    return bytes(prefix + payload)


def cases(count: int):
    rng = random.Random(SEED)
    for index in range(count):
        how = MUTATIONS[index % len(MUTATIONS)]
        yield how, mutate(rng, seed_frame(rng), how)


class TestDecoderFuzz:
    def test_every_mutation_raises_protocol_error_or_decodes(self):
        outcomes = {how: {"raised": 0, "decoded": 0, "incomplete": 0}
                    for how in MUTATIONS}
        for how, raw in cases(DECODER_CASES):
            buf = bytearray(raw)
            try:
                frames, used = split_frames(buf)
            except ProtocolError:
                outcomes[how]["raised"] += 1
                continue
            for message, nbytes in frames:
                assert isinstance(message, (dict, array)) and nbytes > 4
            assert sum(nbytes for _, nbytes in frames) == used
            if used < len(buf):
                # what is left must be a frame still waiting for bytes
                del buf[:used]
                assert split_frames(buf) == ([], 0)
                outcomes[how]["incomplete"] += 1
            else:
                outcomes[how]["decoded"] += 1
        # every mutation reached a guard at least once
        for how in MUTATIONS:
            assert outcomes[how]["raised"] > 0, (how, outcomes[how])


@pytest.fixture(scope="module")
def daemon():
    # the exact family; a hostile gap count costs it O(window), as it
    # does Memento (TestHostileGapCount below)
    spec = SketchSpec.from_dict(
        {"algorithm": {"family": "exact", "window": WINDOW},
         "service": {"port": 0}}
    )
    with ServiceDaemon(spec) as running:
        yield running


class TestLiveDaemonFuzz:
    def test_every_mutation_ends_in_a_dropped_client(self, daemon, caplog):
        with ServiceClient.connect(port=daemon.port, timeout=DEADLINE) as witness:
            for how, raw in cases(LIVE_CASES):
                sock = socket.create_connection(
                    ("127.0.0.1", daemon.port), timeout=DEADLINE
                )
                try:
                    sock.sendall(raw)
                    sock.shutdown(socket.SHUT_WR)
                    # replies to any valid request, then the daemon closes
                    while sock.recv(1 << 16):
                        pass
                except socket.timeout:
                    pytest.fail(f"daemon hung on a {how} case: {raw!r}")
                except ConnectionResetError:
                    pass
                finally:
                    sock.close()
                witness.flush()  # the daemon still answers others
            stats = witness.stats()
        assert stats["failure"] is None
        # every handler ended through a named error, none escaped it
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestHostileGapCount:
    def test_huge_gap_does_not_stall_a_memento_daemon(self):
        # Memento.ingest_gap is O(window) in its count, so one hostile
        # gap frame cannot stall the engine thread for other clients
        spec = SketchSpec.from_dict(
            {"algorithm": {"family": "memento", "window": WINDOW,
                           "counters": 64, "tau": 0.25, "seed": 1},
             "service": {"port": 0}}
        )
        count = 10**18
        with ServiceDaemon(spec) as running, ServiceClient.connect(
            port=running.port, timeout=DEADLINE
        ) as sender, ServiceClient.connect(
            port=running.port, timeout=DEADLINE
        ) as witness:
            sender.report(list(range(3000)))
            assert sender.flush() == 3000
            sender.gap(count)
            started = time.perf_counter()
            witness.flush()  # a socket timeout here fails the test
            assert time.perf_counter() - started < DEADLINE
            assert sender.flush() == 3000 + count
            stats = witness.stats()
        assert stats["failure"] is None
        assert stats["updates"] == 3000 + count
