"""Every sharding lane ≡ each shard's own scalar replay.

A windowed shard owns a hash slice of the global stream and takes one
Window update for every packet it does not own.  Whatever lane carries
the per-shard plans — in process, pickled into a worker pipe, or through
a worker's shared-memory ring — and however the writes coalesced
before they were partitioned, each shard must end byte-identical
(pickle, sampler state included) to a sketch built by the same factory
and fed that sequence one scalar call at a time — and the in-process
lane must get there through the fused plan path, not a per-segment
replay.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import Memento, ShardedSketch
from repro.sharding.executors import RING_MIN_ITEMS
from repro.sharding.shm import leaked_segments

WINDOW = 1000
SHARDS = 2
CHUNK = 257
#: every per-shard task of a batch this size stays below the ring lane
#: (a task never holds more items than its batch)
PIPE_CHUNK = RING_MIN_ITEMS - 1
#: each batch this size hands at least one shard RING_MIN_ITEMS items
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
    replays = [factory(j) for j in range(SHARDS)]
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


def test_persistent_lane_follows_task_size(stream):
    """Small tasks are pickled into the pipe, large ones ride the ring."""
    kinds = []
    with ShardedSketch(factory, shards=SHARDS, executor="persistent") as sharded:
        feed(sharded, stream[:PIPE_CHUNK], PIPE_CHUNK)  # seeds the workers
        for conn in sharded._executor._conns:
            send = conn.send

            def spy(msg, send=send):
                kinds.append(msg[0])
                send(msg)

            conn.send = spy
        rest = stream[PIPE_CHUNK:]
        feed(sharded, rest[:RING_CHUNK], RING_CHUNK)
        feed(sharded, rest[RING_CHUNK:], PIPE_CHUNK)
        shards = sharded.shards
        replays = scalar_replays(sharded, stream)
        for shard, replay in zip(shards, replays):
            assert pickle.dumps(shard) == pickle.dumps(replay)
    assert "apply_cols" in kinds and "apply" in kinds


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
