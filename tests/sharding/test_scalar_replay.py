"""Every sharding lane ≡ each shard's own scalar replay.

A windowed shard owns a hash slice of the global stream and takes one
Window update for every packet it does not own.  Whatever lane carries
a batch to the shards — the in-process loop, pickled into the worker
pipes, or one shared-memory slot that every worker reads — whether it
arrived as a list or as a numpy column, and however the writes
coalesced first, each shard must end byte-identical (pickle, sampler
state included) to a sketch built by the same factory and fed that
sequence one scalar call at a time — and the in-process lane must get
there through the fused plan path, not a per-segment replay.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro import Memento, ShardedSketch
from repro.sharding.executors import RING_MIN_ITEMS
from repro.sharding.sharded import COALESCE_ITEMS
from repro.sharding.shm import PlanRing, leaked_segments

WINDOW = 1000
SHARDS = 2
CHUNK = 257
#: a batch this size is pickled into every worker pipe
PIPE_CHUNK = RING_MIN_ITEMS - 1
#: a batch this size rides the shared-memory ring
RING_CHUNK = SHARDS * RING_MIN_ITEMS


def factory(i):
    return Memento(window=WINDOW, counters=32, tau=0.25, seed=1 + i)


@pytest.fixture(scope="module")
def stream():
    rng = random.Random(29)
    return [rng.randint(0, 199) for _ in range(6000)]


def feed(sharded, stream, chunk=CHUNK):
    """Feed ``stream`` in ``chunk``-item batches, each applied at once.

    ``flush`` after every batch makes the batch the unit that is
    partitioned, so ``chunk`` sets the per-shard task size (writes
    below ``COALESCE_ITEMS`` would otherwise coalesce first).
    """
    for start in range(0, len(stream), chunk):
        sharded.update_many(stream[start : start + chunk])
        sharded.flush()


def scalar_replays(sharded, stream, gaps=None):
    """Each shard's reference: update its own packets, Window-update the
    rest; ``gaps[i]`` unobserved packets go by before ``stream[i]``."""
    replays = [factory(j) for j in range(sharded.num_shards)]
    for index, item in enumerate(stream):
        for _ in range((gaps or {}).get(index, 0)):
            for replay in replays:
                replay.window_update()
        owner = sharded.shard_of(item)
        for j, replay in enumerate(replays):
            if j == owner:
                replay.update(item)
            else:
                replay.window_update()
    return replays


@pytest.mark.parametrize(
    "executor,chunk",
    [
        pytest.param("serial", CHUNK, id="serial"),
        # at least one task per batch rides the shared-memory ring
        pytest.param("persistent", RING_CHUNK, id="persistent-shm"),
        # every task is pickled into the worker pipe
        pytest.param("persistent", PIPE_CHUNK, id="persistent-below-ring-min"),
    ],
)
def test_shards_match_their_scalar_replay(stream, executor, chunk):
    with ShardedSketch(factory, shards=SHARDS, executor=executor) as sharded:
        feed(sharded, stream, chunk)
        shards = sharded.shards
        replays = scalar_replays(sharded, stream)
        assert [shard.updates for shard in shards] == [len(stream)] * SHARDS
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


EXECUTORS = ["serial", "persistent"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_coalesced_reports_match_scalar_replay(stream, executor):
    # 32-item reports (the controller's report scale) coalesce into
    # COALESCE_ITEMS-item spills; the shards must not see the difference
    with ShardedSketch(factory, shards=SHARDS, executor=executor) as sharded:
        for start in range(0, len(stream), 32):
            sharded.update_many(stream[start : start + 32])
        shards = sharded.shards
        replays = scalar_replays(sharded, stream)
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


@pytest.mark.parametrize("executor", EXECUTORS)
def test_coalesced_scalars_and_gaps_match_scalar_replay(stream, executor):
    # scalar updates interleaved with window advances coalesce into
    # alternating items/gap ops, in write order
    gaps = {index: 1 + index % 5 for index in range(0, len(stream), 7)}
    with ShardedSketch(factory, shards=SHARDS, executor=executor) as sharded:
        for index, item in enumerate(stream):
            if index in gaps:
                sharded.ingest_gap(gaps[index])
            sharded.update(item)
        shards = sharded.shards
        replays = scalar_replays(sharded, stream, gaps)
        expected = len(stream) + sum(gaps.values())
        assert [shard.updates for shard in shards] == [expected] * SHARDS
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_column_feeds_match_scalar_replay(stream, executor, dtype):
    # numpy columns of COALESCE_ITEMS keys or more are dispatched as is;
    # the shorter tail coalesces like any small write
    column = np.asarray(stream, dtype=dtype)
    with ShardedSketch(factory, shards=SHARDS, executor=executor) as sharded:
        for start in range(0, len(column), COALESCE_ITEMS):
            sharded.update_many(column[start : start + COALESCE_ITEMS])
        shards = sharded.shards
        replays = scalar_replays(sharded, stream)
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


@pytest.mark.parametrize("executor", EXECUTORS)
def test_columns_mixed_with_small_writes_and_gaps(stream, executor):
    # whole columns, sub-threshold columns and lists, and window
    # advances interleave in write order
    column = np.asarray(stream, dtype=np.int64)
    cuts = [0, COALESCE_ITEMS + 5, COALESCE_ITEMS + 105, COALESCE_ITEMS + 150]
    cuts.append(len(stream))
    gaps = {cut: 3 + cut % 7 for cut in cuts[1:-1]}
    with ShardedSketch(factory, shards=SHARDS, executor=executor) as sharded:
        for part, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            if start in gaps:
                sharded.ingest_gap(gaps[start])
            if part == 2:
                sharded.update_many(stream[start:stop])  # a small list
            else:
                sharded.update_many(column[start:stop])
        shards = sharded.shards
        replays = scalar_replays(sharded, stream, gaps)
        expected = len(stream) + sum(gaps.values())
        assert [shard.updates for shard in shards] == [expected] * SHARDS
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


def check_persistent_lane(stream, shards, monkeypatch):
    """A batch of RING_MIN_ITEMS keys or more is written into the one
    shared ring once, whatever the shard count; smaller ones are
    pickled into every pipe."""
    writes = []
    ring_write = PlanRing.write

    def spy_write(self, columns, *args, **kwargs):
        writes.append([len(col) for col in columns])
        return ring_write(self, columns, *args, **kwargs)

    monkeypatch.setattr(PlanRing, "write", spy_write)
    kinds = []
    with ShardedSketch(factory, shards=shards, executor="persistent") as sharded:
        feed(sharded, stream[:PIPE_CHUNK], PIPE_CHUNK)  # seeds the workers
        assert writes == []
        assert len(leaked_segments()) == 1  # one segment per executor
        for conn in sharded._executor._conns:
            send = conn.send

            def spy(msg, send=send):
                kinds.append(msg[0])
                send(msg)

            conn.send = spy
        rest = stream[PIPE_CHUNK:]
        feed(sharded, rest[:RING_CHUNK], RING_CHUNK)
        # one write of the keys and their owners, one descriptor per worker
        assert writes == [[RING_CHUNK, RING_CHUNK]]
        assert kinds == ["apply_cols"] * shards
        feed(sharded, rest[RING_CHUNK:], PIPE_CHUNK)
        assert len(writes) == 1
        assert set(kinds[shards:]) == {"apply"}
        shards_now = sharded.shards
        replays = scalar_replays(sharded, stream)
        for shard, replay in zip(shards_now, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert leaked_segments() == []


def test_persistent_lane_follows_task_size(stream, monkeypatch):
    check_persistent_lane(stream, SHARDS, monkeypatch)


def test_persistent_lane_writes_the_ring_once_for_three_shards(
    stream, monkeypatch
):
    check_persistent_lane(stream, 3, monkeypatch)


def test_serial_lane_takes_the_fused_plan_path(stream, monkeypatch):
    calls = {"ingest_plan": 0, "update_many": 0}
    ingest_plan = Memento.ingest_plan
    update_many = Memento.update_many

    def spy_ingest_plan(self, plan, *, sampled=False):
        calls["ingest_plan"] += 1
        return ingest_plan(self, plan, sampled=sampled)

    def spy_update_many(self, items):
        calls["update_many"] += 1
        return update_many(self, items)

    monkeypatch.setattr(Memento, "ingest_plan", spy_ingest_plan)
    monkeypatch.setattr(Memento, "update_many", spy_update_many)
    with ShardedSketch(factory, shards=SHARDS, executor="serial") as sharded:
        feed(sharded, stream)
    batches = -(-len(stream) // CHUNK)
    # one owned-packet plan per shard per batch, never split into
    # per-segment update_many calls
    assert calls["update_many"] == 0
    assert calls["ingest_plan"] >= batches * SHARDS
