"""Coalesced ingestion: equivalence, sync points, lifecycle, failures.

Every :class:`ShardedSketch` write appends to a :class:`WriteBuffer`
that is partitioned and applied on the caller's thread once
``COALESCE_ITEMS`` items are pending.  The reference here is the same
sketch flushed after every write, i.e. each write applied as it comes.
"""

from __future__ import annotations

import multiprocessing as mp
import random

import pytest

from repro import (
    ExactWindowCounter,
    HMemento,
    Memento,
    SRC_HIERARCHY,
    ShardedSketch,
    SketchSpec,
    SpaceSaving,
)
from repro.sharding import sharded as sharded_module
from repro.sharding.sharded import COALESCE_ITEMS, GAP, WriteBuffer

WINDOW = 96


def make_stream(n=2000, seed=23):
    rng = random.Random(seed)
    return [rng.randint(0, 30) for _ in range(n)]


def exact_factory(i):
    return ExactWindowCounter(WINDOW)


def memento_factory(i):
    return Memento(window=WINDOW, counters=64, tau=1.0, seed=1 + i)


def hmemento_factory(i):
    return HMemento(
        window=256, hierarchy=SRC_HIERARCHY, counters=160, tau=1.0, seed=1 + i
    )


def space_saving_factory(i):
    return SpaceSaving(32)


@pytest.fixture
def spill_at(monkeypatch):
    """Build sketches that spill at ``items`` pending items, so short
    streams cross the spill boundary many times."""

    def set_threshold(items):
        monkeypatch.setattr(sharded_module, "COALESCE_ITEMS", items)

    return set_threshold


def memento_payload(**sections):
    return {
        "algorithm": {"family": "memento", "window": 1000, "counters": 64},
        **sections,
    }


class TestConfig:
    """The removed ``pipeline`` spec section: old specs that carry the
    removed front-end's defaults still parse, anything else is refused."""

    def test_disabled_specs(self):
        # a null section is no section, with or without sharding
        assert SketchSpec.from_dict(memento_payload(pipeline=None)).sharding is None
        spec = SketchSpec.from_dict(
            memento_payload(sharding={"shards": 2}, pipeline=None)
        )
        assert spec.sharding.shards == 2

    def test_enabled_specs(self):
        # the old defaults describe what every sharded stack does now:
        # they parse next to a sharding section and are not stored
        plain = SketchSpec.from_dict(memento_payload(sharding={"shards": 2}))
        for section in (
            {},
            {"buffer_size": COALESCE_ITEMS},
            {"depth": 2},
            {"buffer_size": COALESCE_ITEMS, "depth": 2},
        ):
            spec = SketchSpec.from_dict(
                memento_payload(sharding={"shards": 2}, pipeline=section)
            )
            assert spec == plain
            assert "pipeline" not in spec.to_dict()

    def test_rejects_bad_specs(self):
        sharding = {"shards": 2}
        for payload in (
            memento_payload(pipeline={}),  # no sharding section
            memento_payload(pipeline={"buffer_size": COALESCE_ITEMS}),
            memento_payload(sharding=sharding, pipeline={"buffer_size": 2048}),
            memento_payload(sharding=sharding, pipeline={"depth": 3}),
            memento_payload(sharding=sharding, pipeline={"bogus": 1}),
            memento_payload(sharding=sharding, pipeline=True),
        ):
            with pytest.raises(ValueError, match="pipeline section was removed"):
                SketchSpec.from_dict(payload)


class TestWriteBuffer:
    def test_coalesces_same_kind_runs(self):
        buffer = WriteBuffer(capacity=100)
        assert not buffer.add_items("update_many", (1,))
        assert not buffer.add_items("update_many", (2, 3))
        assert not buffer.add_gap(5)
        assert not buffer.add_gap(2)
        assert not buffer.add_items("ingest_samples", (4,))
        ops = buffer.drain()
        assert ops == [
            ("update_many", [1, 2, 3]),
            (GAP, 7),
            ("ingest_samples", [4]),
        ]
        assert buffer.pending == 0
        assert buffer.drain() == []

    def test_signals_flush_at_capacity(self):
        buffer = WriteBuffer(capacity=3)
        assert not buffer.add_items("update_many", (1, 2))
        assert buffer.add_items("update_many", (3,))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(0)


def mixed_feed(target, stream, flush_each=False):
    """Interleave batches, scalars, samples, and gaps (windowed targets);
    ``flush_each`` applies every write as it comes (the reference)."""

    def write(method, *args):
        getattr(target, method)(*args)
        if flush_each:
            target.flush()

    write("update_many", stream[:700])
    for item in stream[700:760]:
        write("update", item)
    if target.windowed:
        write("ingest_gap", 13)
        write("ingest_sample", stream[760])
        write("ingest_gap", 1)
    write("ingest_samples", stream[761:790])
    write("update_many", stream[790:])


class TestPipelinedEquivalence:
    """Coalesced ingestion must be byte-identical to applying each write
    as it comes."""

    @pytest.mark.parametrize(
        "factory,shards",
        [
            (memento_factory, 3),
            (space_saving_factory, 4),
            (exact_factory, 4),
        ],
        ids=["memento", "space_saving", "exact"],
    )
    def test_matches_serial(self, factory, shards, spill_at):
        spill_at(256)
        stream = make_stream(n=1600)
        reference = ShardedSketch(factory, shards=shards)
        with ShardedSketch(factory, shards=shards) as coalesced:
            mixed_feed(reference, stream, flush_each=True)
            mixed_feed(coalesced, stream)
            assert coalesced.updates == reference.updates
            for key in range(31):
                assert coalesced.query(key) == reference.query(key)
            assert coalesced.heavy_hitters(0.05) == reference.heavy_hitters(0.05)

    def test_hmemento_sum_mode_matches_serial(self, spill_at):
        # H-Memento routes packets while answering prefix queries: sum
        # mode, prefix keys, and the window-aware merged enumeration
        spill_at(256)
        stream = make_stream(n=1400)
        reference = ShardedSketch(hmemento_factory, shards=2, query_mode="sum")
        with ShardedSketch(
            hmemento_factory, shards=2, query_mode="sum"
        ) as coalesced:
            mixed_feed(reference, stream, flush_each=True)
            mixed_feed(coalesced, stream)
            assert coalesced.updates == reference.updates
            for packet in range(31):
                for prefix in SRC_HIERARCHY.all_prefixes(packet):
                    assert coalesced.query(prefix) == reference.query(prefix)
            assert coalesced.heavy_prefixes(0.05) == reference.heavy_prefixes(
                0.05
            )

    @pytest.mark.parametrize("executor", ["persistent", "serial"])
    def test_exact_oracle_identity_with_executors(self, executor, spill_at):
        # coalesced sharded-over-exact stays result-identical to the
        # unsharded oracle on every executor
        spill_at(300)
        stream = make_stream(n=2400)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        with ShardedSketch(exact_factory, shards=4, executor=executor) as sharded:
            for start in range(0, len(stream), 500):
                sharded.update_many(stream[start : start + 500])
            for key in range(31):
                assert sharded.query(key) == oracle.query(key)
            assert sharded.heavy_hitters(0.03) == oracle.heavy_hitters(0.03)

    def test_resident_scalar_feed_coalesces(self, spill_at):
        # per-packet updates on resident workers ride the buffer: one
        # plan per shard per spill, and the answers stay exact
        spill_at(128)
        stream = make_stream(n=900)
        oracle = ExactWindowCounter(WINDOW)
        with ShardedSketch(exact_factory, shards=3, executor="persistent") as sharded:
            sharded.update_many(stream[:100])
            sharded.flush()  # go resident
            oracle.update_many(stream[:100])
            for item in stream[100:]:
                sharded.update(item)
                oracle.update(item)
            for key in range(31):
                assert sharded.query(key) == oracle.query(key)

    def test_queries_interleaved_with_buffered_writes(self, spill_at):
        spill_at(512)
        stream = make_stream(n=1200)
        reference = ShardedSketch(memento_factory, shards=3)
        with ShardedSketch(memento_factory, shards=3) as sharded:
            for start in range(0, len(stream), 90):
                chunk = stream[start : start + 90]
                sharded.update_many(chunk)
                reference.update_many(chunk)
                reference.flush()
                # every query is a sync point: it must observe every
                # write issued before it, buffered or not
                assert sharded.query(chunk[0]) == reference.query(chunk[0])
            assert sharded.updates == reference.updates


class TestSyncPoints:
    def test_writes_buffer_until_threshold(self):
        with ShardedSketch(exact_factory, shards=2) as sharded:
            for item in range(10):
                sharded.update(item)
            # below the threshold nothing was applied yet...
            assert sharded._buffer.pending == 10
            assert sharded.updates == 10
            # ...but a query applies the buffer before answering
            assert sharded.query(3) == 1.0
            assert sharded._buffer.pending == 0

    def test_flush_is_idempotent(self):
        with ShardedSketch(exact_factory, shards=2) as sharded:
            sharded.update_many(make_stream(n=500))
            sharded.flush()
            sharded.flush()  # nothing pending: a no-op
            assert sharded.query(1) >= 0.0
        # flush after close restarts nothing
        sharded.flush()
        assert mp.active_children() == []

    def test_flush_on_synchronous_sketch_is_noop(self):
        # a batch of COALESCE_ITEMS or more applies at once
        stream = make_stream(n=COALESCE_ITEMS)
        sharded = ShardedSketch(exact_factory, shards=2)
        sharded.update_many(stream)
        assert sharded._buffer.pending == 0
        sharded.flush()
        assert sharded.query(stream[-1]) >= 1.0
        sharded.close()


class TestLifecycle:
    def test_close_with_in_flight_batch_then_reuse(self, spill_at):
        spill_at(200)
        stream = make_stream(n=3000)
        sharded = ShardedSketch(exact_factory, shards=4, executor="persistent")
        reference = ShardedSketch(exact_factory, shards=4)
        sharded.update_many(stream[:2950])
        sharded.update_many(stream[2950:])  # stays buffered
        reference.update_many(stream)
        sharded.close()  # buffered writes must apply first
        sharded.close()  # idempotent
        assert sharded.query(stream[0]) == reference.query(stream[0])
        # a later write re-seeds the workers lazily
        sharded.update_many(stream[:150])
        reference.update_many(stream[:150])
        assert sharded.query(stream[0]) == reference.query(stream[0])
        sharded.close()
        assert mp.active_children() == []

    def test_no_processes_survive_close(self):
        with ShardedSketch(exact_factory, shards=3, executor="persistent") as sharded:
            sharded.update_many(make_stream(n=600))
            sharded.query(1)
        for child in mp.active_children():
            child.join(timeout=5)
        assert mp.active_children() == []

    def test_dispatch_failure_surfaces_at_sync_and_close_releases(self):
        # non-windowed shards receive their owned packets via the plain
        # batch method, so the failure raises inside the spill
        class Exploding(SpaceSaving):
            armed = False

            def update_many(self, items):
                if Exploding.armed:
                    raise ValueError("boom")
                super().update_many(items)

        sharded = ShardedSketch(lambda i: Exploding(32), shards=2)
        sharded.update_many([1, 2, 3, 4])
        sharded.flush()
        Exploding.armed = True
        try:
            sharded.update_many(list(range(32)))  # buffered: no apply yet
            # the call that applies raises the failure itself...
            with pytest.raises(ValueError, match="boom"):
                sharded.flush()
            # ...and it sticks at every later write, flush and query
            with pytest.raises(RuntimeError, match="failed earlier.*boom"):
                sharded.query(1)
            with pytest.raises(RuntimeError, match="boom"):
                sharded.update(5)
            with pytest.raises(RuntimeError, match="boom"):
                sharded.flush()
            # close still releases everything, then propagates
            with pytest.raises(RuntimeError, match="boom"):
                sharded.close()
            # a closed sketch is reset: it stays usable
            Exploding.armed = False
            sharded.update_many([5, 6])
            assert sharded.query(5) == 1.0
        finally:
            Exploding.armed = False
            sharded.close()


class TestDispatcher:
    """The inline spill: write order, the bound on pending items, and
    what a failed apply does to the ops behind it."""

    @staticmethod
    def spy(sharded):
        seen = []
        sharded._dispatch_now = lambda items, method: seen.append((method, items))
        sharded._gap_now = lambda count: seen.append((GAP, count))
        return seen

    def test_preserves_op_order(self):
        sharded = ShardedSketch(exact_factory, shards=2)
        seen = self.spy(sharded)
        sharded.update_many([1, 2])
        sharded.ingest_gap(7)
        sharded.ingest_samples([3])
        sharded.update(4)
        assert seen == []
        big = list(range(COALESCE_ITEMS))
        sharded.update_many(big)  # pending ops first, then the batch
        assert seen == [
            ("update_many", [1, 2]),
            (GAP, 7),
            ("ingest_samples", [3]),
            ("update_many", [4]),
            ("update_many", big),
        ]
        assert seen[-1][1] is big  # large batches are not copied

    def test_bounded_depth_blocks_producer(self, spill_at):
        # the write that fills the buffer applies it before returning,
        # so no more than COALESCE_ITEMS items are ever pending
        spill_at(4)
        sharded = ShardedSketch(exact_factory, shards=2)
        seen = self.spy(sharded)
        sharded.update_many([1, 2, 3])
        assert seen == [] and sharded._buffer.pending == 3
        sharded.ingest_gap(2)
        assert seen == [("update_many", [1, 2, 3]), (GAP, 2)]
        assert sharded._buffer.pending == 0

    def test_poisoned_pipeline_drops_later_ops(self):
        sharded = ShardedSketch(exact_factory, shards=2)
        seen = self.spy(sharded)

        def apply(items, method):
            if items == [0]:
                raise ValueError("poisoned")
            seen.append((method, items))

        sharded._dispatch_now = apply
        sharded.update(0)
        sharded.ingest_gap(3)
        with pytest.raises(ValueError, match="poisoned"):
            sharded.flush()
        assert seen == []  # the op behind the failure was dropped
        with pytest.raises(RuntimeError, match="poisoned"):
            sharded.update(1)
        assert sharded._buffer.pending == 0  # refused, not buffered
        with pytest.raises(RuntimeError, match="poisoned"):
            sharded.close()
        sharded.update(1)  # close resets the failure
        sharded.flush()
        assert seen == [("update_many", [1])]
