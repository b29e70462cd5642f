"""Shared-memory batch lane: ring mechanics and lanes ≡ serial.

The ring tests pin the one-writer, many-reader slot protocol
(wraparound, per-reader retirement, backpressure, oversize fallback,
teardown).  The differential tests are the lane contract: a sharded
sketch on the persistent executor — whose small batches are pickled
into the worker pipes and whose large integer ones ride the one
shared-memory ring — must finish with **identical state** (complete
structural digest per shard, including sampler RNG state) to
synchronous serial ingestion: results must never depend on how the
batch travelled.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

import numpy as np
import pytest

from repro import (
    ExactWindowCounter,
    Memento,
    PersistentProcessExecutor,
    ShardedSketch,
    SpaceSaving,
)
from repro.sharding.executors import RING_MIN_ITEMS
from repro.sharding.shm import PlanRing, leaked_segments

WINDOW = 96


def memento_factory(i):
    # tau < 1 exercises the sampled lane: each shard draws the coins of
    # its owned-packet plans, identically whichever lane carried them
    return Memento(window=WINDOW, counters=32, tau=0.25, seed=1 + i)


def exact_factory(i):
    return ExactWindowCounter(WINDOW)


#: a batch this size rides the ring (its two columns fill 48 KiB)
RING_CHUNK = 6 * RING_MIN_ITEMS
#: alternating batch sizes: pickled into the pipes, and ring-sized, so
#: every differential run crosses both lanes
MIXED_CHUNKS = (257, RING_CHUNK)


def make_stream(n=3000, universe=40, seed=17):
    rng = random.Random(seed)
    return [rng.randint(0, universe - 1) for _ in range(n)]


def feed(sharded, stream, samples=(), chunks=MIXED_CHUNKS, flush_each=True):
    """Chunked batches + a few scalars + a pre-sampled batch.

    ``flush_each`` applies every batch as it comes, so each chunk is
    the unit that is dispatched and the chunk sizes pick the lanes;
    without it the batches coalesce first.
    """
    start = 0
    for chunk in itertools.cycle(chunks):
        if start >= len(stream):
            break
        sharded.update_many(stream[start : start + chunk])
        if flush_each:
            sharded.flush()
        start += chunk
    for item in stream[:3]:
        sharded.update(item)
    if samples:
        sharded.ingest_samples(list(samples))


def memento_digest(m):
    """Identity-insensitive structural digest of a Memento shard.

    Raw ``pickle.dumps`` bytes are NOT comparable across lanes:
    equal strings that are the *same object* in the parent's queues
    become distinct (equal) objects after a worker round-trip, shifting
    pickle memo references without changing state.  The digest compares
    the complete mutable state by value instead — window bookkeeping,
    queues, the stream-summary chain, and the sampler's RNG state (the
    sampled lane must consume draws identically on every lane).
    """
    chain = []
    bucket = m._y._head
    while bucket is not None:
        chain.append((bucket.value, sorted(bucket.keys.items())))
        bucket = bucket.next
    return (
        m._updates,
        m._full_updates,
        m._countdown,
        m._blocks_into_frame,
        dict(m._offsets),
        list(m._fifo),
        list(m._counts),
        chain,
        sorted(m._y._index),
        m._sampler._rng.bit_generator.state,
    )


def shard_states(sharded):
    """Per-shard state digests (forces the resident sync first)."""
    return [memento_digest(shard) for shard in sharded.shards]


def _boom(shard, *args):
    raise ValueError("boom")


# ----------------------------------------------------------------------
# ring mechanics
# ----------------------------------------------------------------------
class TestPlanRing:
    def test_write_read_retire_round_trip(self):
        ring = PlanRing(slots=4, slot_bytes=4096)
        try:
            cols = [
                np.arange(7, dtype=np.int64),
                np.array([2.5, -1.0]),
                np.array(["ab", "c"], dtype="U2"),
            ]
            slot, layouts = ring.write(cols)
            views = ring.read(slot, layouts)
            for col, view in zip(cols, views):
                assert view.dtype == col.dtype
                assert np.array_equal(view, col)
            assert ring.in_flight() == 1
            ring.retire()
            assert ring.in_flight() == 0
        finally:
            ring.close()

    def test_wraparound_reuses_slots(self):
        ring = PlanRing(slots=2, slot_bytes=1024)
        try:
            for round_ in range(7):
                payload = np.full(16, round_, dtype=np.int64)
                slot, layouts = ring.write([payload])
                assert slot == round_ % 2
                (view,) = ring.read(slot, layouts)
                assert np.array_equal(view, payload)
                del view
                ring.retire()
        finally:
            ring.close()

    def test_attach_sees_writes_and_retires(self):
        ring = PlanRing(slots=2, slot_bytes=1024)
        reader = PlanRing.attach(ring.name, 2, 1024, readers=1, reader=0)
        try:
            slot, layouts = ring.write([np.arange(5, dtype=np.uint64)])
            (view,) = reader.read(slot, layouts)
            assert view.tolist() == [0, 1, 2, 3, 4]
            del view
            assert ring.in_flight() == 1
            reader.retire()  # consumer-side store ...
            assert ring.in_flight() == 0  # ... visible to the producer
        finally:
            reader.close()
            ring.close()

    def test_oversized_payload_returns_none(self):
        ring = PlanRing(slots=2, slot_bytes=64)
        try:
            assert ring.write([np.zeros(1000, dtype=np.int64)]) is None
            # the ring is untouched: a fitting write still lands in slot 0
            slot, _ = ring.write([np.zeros(4, dtype=np.int64)])
            assert slot == 0
        finally:
            ring.close()

    def test_backpressure_blocks_until_retire(self):
        ring = PlanRing(slots=1, slot_bytes=1024)
        try:
            ring.write([np.arange(3)])

            def consume():
                time.sleep(0.05)
                ring.retire()

            thread = threading.Thread(target=consume)
            thread.start()
            # blocks on the full ring until the consumer thread retires
            slot, _ = ring.write([np.arange(3)], timeout=5.0)
            thread.join()
            assert slot == 0 and ring.in_flight() == 1
        finally:
            ring.close()

    def test_backpressure_timeout_raises(self):
        ring = PlanRing(slots=1, slot_bytes=1024)
        try:
            ring.write([np.arange(3)])
            with pytest.raises(RuntimeError, match="full"):
                ring.write([np.arange(3)], timeout=0.05)
        finally:
            ring.close()

    def test_close_unlinks_and_is_idempotent(self):
        ring = PlanRing(slots=1, slot_bytes=256)
        name = ring.name
        assert name in leaked_segments()
        ring.close()
        ring.close()
        assert name not in leaked_segments()
        with pytest.raises(FileNotFoundError):
            PlanRing.attach(name, 1, 256, readers=1, reader=0)

    def test_slot_frees_once_every_reader_retired(self):
        ring = PlanRing(slots=1, slot_bytes=1024, readers=3)
        readers = [
            PlanRing.attach(ring.name, 1, 1024, readers=3, reader=i)
            for i in range(3)
        ]
        try:
            ring.write([np.arange(3)])
            for reader in readers[:2]:
                reader.retire()
                assert ring.in_flight() == 1
            with pytest.raises(RuntimeError, match="full"):
                ring.write([np.arange(3)], timeout=0.05)
            readers[2].retire()
            assert ring.in_flight() == 0
            slot, _ = ring.write([np.arange(3)], timeout=0.05)
            assert slot == 0
        finally:
            for reader in readers:
                reader.close()
            ring.close()

    def test_backpressure_wait_polls(self):
        ring = PlanRing(slots=1, slot_bytes=1024)
        polls = []

        def poll():
            polls.append(1)
            if len(polls) == 3:
                raise RuntimeError("worker gone")

        try:
            ring.write([np.arange(3)])
            with pytest.raises(RuntimeError, match="worker gone"):
                ring.write([np.arange(3)], timeout=5.0, poll=poll)
            assert len(polls) == 3
        finally:
            ring.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="slots"):
            PlanRing(slots=0)
        with pytest.raises(ValueError, match="slot_bytes"):
            PlanRing(slots=1, slot_bytes=0)
        with pytest.raises(ValueError, match="readers"):
            PlanRing(slots=1, readers=0)


# ----------------------------------------------------------------------
# executor plumbing
# ----------------------------------------------------------------------
class TestExecutorTransportKnob:
    """The persistent executor's ring plumbing."""

    def test_validation(self):
        with pytest.raises(ValueError, match="ring_slots"):
            PersistentProcessExecutor(ring_slots=0)
        with pytest.raises(ValueError, match="ring_slot_bytes"):
            PersistentProcessExecutor(ring_slot_bytes=-1)
        with pytest.raises(TypeError):
            PersistentProcessExecutor(transport="shm")  # the knob is gone

    def test_close_unlinks_rings(self):
        executor = PersistentProcessExecutor()
        executor.seed([SpaceSaving(8), SpaceSaving(8)])
        assert len(leaked_segments()) == 1  # one ring for every worker
        executor.close()
        assert leaked_segments() == []

    def test_poisoned_worker_still_retires_slots(self):
        # a failed apply must keep retiring ring slots, or the parent's
        # backpressure wait would deadlock behind a poisoned worker
        executor = PersistentProcessExecutor(
            ring_slots=2, ring_slot_bytes=1 << 16
        )
        column = np.arange(RING_MIN_ITEMS, dtype=np.int64)
        try:
            executor.seed([SpaceSaving(8), SpaceSaving(8)])
            for _ in range(5):  # > ring_slots: needs the poisoned retires
                executor.submit(_boom, [(), ()], (column,))
            with pytest.raises(RuntimeError, match="failed"):
                executor.collect()
            # every submit took the ring lane
            assert executor._ring._issued == 5
        finally:
            executor.close()
        assert leaked_segments() == []


# ----------------------------------------------------------------------
# differential: the lane must not change sketch state
# ----------------------------------------------------------------------
class TestTransportDifferential:
    def run_stack(self, factory, stream, executor="serial", samples=(),
                  shards=3, chunks=MIXED_CHUNKS, **kwargs):
        with ShardedSketch(
            factory, shards=shards, executor=executor, **kwargs
        ) as sharded:
            feed(sharded, stream, samples=samples, chunks=chunks)
            hh = sharded.heavy_hitters(0.05)
            return shard_states(sharded), hh

    def test_memento_lanes_equal_sync(self):
        stream = make_stream()
        samples = stream[100:140]
        sync = self.run_stack(memento_factory, stream, "serial", samples)
        lanes = self.run_stack(memento_factory, stream, "persistent", samples)
        assert lanes == sync
        assert leaked_segments() == []

    def test_exact_oracle_identity_under_shm(self):
        stream = make_stream(n=2000)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        with ShardedSketch(
            exact_factory, shards=2, executor="persistent"
        ) as sharded:
            sharded.update_many(stream)  # a 2000-key batch: the ring lane
            for key in set(stream):
                assert sharded.query(key) == oracle.query(key)

    def test_pipelined_shm_stack_equals_sync(self):
        # coalesced writes reach the rings in larger spills than the
        # batches the serial reference applies one at a time
        stream = make_stream(seed=29)
        sync_states, sync_hh = self.run_stack(memento_factory, stream)
        with ShardedSketch(
            memento_factory, shards=3, executor="persistent"
        ) as sharded:
            feed(sharded, stream, flush_each=False)
            assert sharded.heavy_hitters(0.05) == sync_hh
            assert shard_states(sharded) == sync_states

    def test_str_keys_take_the_pickle_lane(self):
        # strings are routed by the scalar loop and each shard's plan is
        # pickled into its pipe
        rng = random.Random(31)
        stream = [f"flow-{rng.randint(0, 30)}" for _ in range(4000)]
        expect_states, expect_hh = self.run_stack(memento_factory, stream)
        got_states, got_hh = self.run_stack(
            memento_factory, stream, executor="persistent"
        )
        assert got_states == expect_states
        assert got_hh == expect_hh

    def test_tiny_ring_wraparound_under_load(self):
        # 2 slots << number of batches: every batch rides the ring, so
        # each one exercises reuse and real backpressure against the
        # live worker
        stream = make_stream(n=5 * RING_CHUNK, seed=43)
        expect = self.run_stack(memento_factory, stream, chunks=(RING_CHUNK,))
        got = self.run_stack(
            memento_factory,
            stream,
            executor=PersistentProcessExecutor(ring_slots=2),
            chunks=(RING_CHUNK,),
        )
        assert got == expect

    def test_oversize_slot_falls_back_to_pipe(self):
        # slots too small for any ring-sized batch: every batch is
        # pickled into the pipes, results still identical
        stream = make_stream(n=1500, seed=53)
        expect = self.run_stack(memento_factory, stream, shards=2)
        got = self.run_stack(
            memento_factory,
            stream,
            executor=PersistentProcessExecutor(ring_slot_bytes=32),
            shards=2,
        )
        assert got == expect
        assert leaked_segments() == []
