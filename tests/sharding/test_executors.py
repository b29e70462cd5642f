"""Executor strategies: identical results, lifecycle, and plumbing."""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import signal
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
from repro.sharding.sharded import COALESCE_ITEMS
from repro.sharding.shm import leaked_segments

WINDOW = 96


def exact_factory(i):
    return ExactWindowCounter(WINDOW)


def memento_factory(i):
    # SpaceSaving pickles its bucket chain iteratively, so realistic
    # counter budgets cross process boundaries without recursion tuning
    return Memento(window=WINDOW, counters=64, tau=1.0, seed=1 + i)


def make_stream(n=2000, seed=23):
    rng = random.Random(seed)
    return [rng.randint(0, 30) for _ in range(n)]


class TestMakeExecutor:
    """How ShardedSketch resolves its ``executor`` argument: two names
    or a PersistentProcessExecutor instance, nothing duck-typed."""

    def test_by_name(self):
        assert ShardedSketch(exact_factory, shards=2)._executor is None
        with ShardedSketch(
            exact_factory, shards=2, executor="persistent"
        ) as sharded:
            assert isinstance(sharded._executor, PersistentProcessExecutor)

    def test_ready_stateful_object_passthrough(self):
        executor = PersistentProcessExecutor()
        with ShardedSketch(
            exact_factory, shards=2, executor=executor
        ) as sharded:
            assert sharded._executor is executor
            sharded.update_many(make_stream(n=200))
            assert sum(s.size for s in sharded.shards) > 0

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardedSketch(exact_factory, shards=2, executor="quantum")
        for removed in ("thread", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                ShardedSketch(exact_factory, shards=2, executor=removed)
        with pytest.raises(TypeError):
            ShardedSketch(exact_factory, shards=2, executor=42)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="ring_slots"):
            PersistentProcessExecutor(ring_slots=0)
        with pytest.raises(ValueError, match="ring_slot_bytes"):
            PersistentProcessExecutor(ring_slot_bytes=0)

    def test_stateful_without_broadcast_is_rejected(self):
        # an object carrying (part of) the resident-worker protocol is
        # not an executor: it fails at construction, not mid-ingestion
        class Incomplete:
            stateful = True

            def seed(self, shards):  # pragma: no cover - never called
                pass

            def submit(self, fn, tasks):  # pragma: no cover - never called
                pass

            def collect(self):  # pragma: no cover - never called
                return []

            def close(self):  # pragma: no cover - never called
                pass

        with pytest.raises(TypeError, match="PersistentProcessExecutor"):
            ShardedSketch(exact_factory, shards=2, executor=Incomplete())

    def test_stateful_flag_with_only_map_surface_is_rejected(self):
        class MisdeclaredStateless:
            stateful = True

            def map(self, fn, tasks):  # pragma: no cover - never called
                return [fn(*task) for task in tasks]

            def close(self):  # pragma: no cover - never called
                pass

        with pytest.raises(TypeError, match="PersistentProcessExecutor"):
            ShardedSketch(
                exact_factory, shards=2, executor=MisdeclaredStateless()
            )


class TestExecutorEquivalence:
    """Every strategy must produce byte-identical shard state."""

    @pytest.mark.parametrize("executor", ["serial", "persistent"])
    def test_exact_matches_serial(self, executor):
        stream = make_stream()
        reference = ShardedSketch(exact_factory, shards=4, executor="serial")
        reference.update_many(stream)
        with ShardedSketch(exact_factory, shards=4, executor=executor) as sharded:
            for start in range(0, len(stream), 700):
                sharded.update_many(stream[start : start + 700])
            for key in range(31):
                assert sharded.query(key) == reference.query(key)

    @pytest.mark.parametrize("executor", ["serial", "persistent"])
    def test_memento_matches_serial(self, executor):
        stream = make_stream(n=1200)
        reference = ShardedSketch(memento_factory, shards=3, executor="serial")
        reference.update_many(stream)
        with ShardedSketch(
            memento_factory, shards=3, executor=executor
        ) as sharded:
            sharded.update_many(stream)
            for key in range(31):
                assert sharded.query(key) == reference.query(key)
            assert [s.updates for s in sharded.shards] == [
                s.updates for s in reference.shards
            ]


class TestPersistentExecutor:
    """Resident shard workers: lazy sync, mixed feeds, lifecycle, errors."""

    def test_oracle_identity_across_frames(self):
        # sharded-over-exact with resident workers must stay result-
        # identical to the unsharded exact window oracle
        stream = make_stream(n=2500)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        with ShardedSketch(
            exact_factory, shards=4, executor="persistent"
        ) as sharded:
            for start in range(0, len(stream), 600):
                sharded.update_many(stream[start : start + 600])
            for key in range(31):
                assert sharded.query(key) == oracle.query(key)
            assert sharded.heavy_hitters(0.03) == oracle.heavy_hitters(0.03)

    def test_mixed_scalar_gap_and_batch_feed(self):
        stream = make_stream(n=1500)
        reference = ShardedSketch(memento_factory, shards=3, executor="serial")
        with ShardedSketch(
            memento_factory, shards=3, executor="persistent"
        ) as sharded:
            for target in (sharded, reference):
                target.update_many(stream[:900])
                target.update(stream[900])  # scalar while resident
                target.ingest_gap(25)
                target.ingest_sample(stream[901])
                target.update_many(stream[902:])
            for key in range(31):
                assert sharded.query(key) == reference.query(key)
            assert sharded.updates == reference.updates
            assert [s.updates for s in sharded.shards] == [
                s.updates for s in reference.shards
            ]

    def test_queries_between_batches_stay_consistent(self):
        stream = make_stream(n=1200)
        reference = ShardedSketch(exact_factory, shards=2, executor="serial")
        with ShardedSketch(
            exact_factory, shards=2, executor="persistent"
        ) as sharded:
            for start in range(0, len(stream), 300):
                chunk = stream[start : start + 300]
                sharded.update_many(chunk)
                reference.update_many(chunk)
                # query-after-batch forces a collect; the next batch
                # must keep feeding the still-resident workers
                assert sharded.query(chunk[0]) == reference.query(chunk[0])

    def test_close_syncs_state_and_allows_reseed(self):
        stream = make_stream(n=800)
        sharded = ShardedSketch(exact_factory, shards=2, executor="persistent")
        sharded.update_many(stream)
        sharded.close()  # must pull resident state back first
        reference = ShardedSketch(exact_factory, shards=2, executor="serial")
        reference.update_many(stream)
        assert sharded.query(stream[0]) == reference.query(stream[0])
        # a later batch lazily re-seeds fresh workers
        sharded.update_many(stream[:100])
        reference.update_many(stream[:100])
        assert sharded.query(stream[0]) == reference.query(stream[0])
        sharded.close()

    def test_executor_seeded_flag(self):
        executor = PersistentProcessExecutor()
        assert not executor.seeded
        executor.seed([ExactWindowCounter(8), ExactWindowCounter(8)])
        assert executor.seeded
        executor.close()
        assert not executor.seeded

    def test_seed_failure_leaves_no_live_workers(self):
        executor = PersistentProcessExecutor()
        # second shard is unpicklable: seed must fail AND tear down the
        # already-spawned first worker instead of leaking it
        with pytest.raises(Exception):
            executor.seed([ExactWindowCounter(8), lambda: None])
        assert not executor.seeded
        # the executor stays usable afterwards
        executor.seed([ExactWindowCounter(8)])
        assert executor.seeded
        executor.close()

    def test_close_releases_workers_despite_poisoned_sync(self):
        sharded = ShardedSketch(exact_factory, shards=1, executor="persistent")
        executor = sharded._executor
        executor.seed([ExactWindowCounter(8)])
        executor.submit(_poison, [()])
        sharded._resident = True
        sharded._shards_stale = True
        with pytest.raises(RuntimeError, match="shard worker"):
            sharded.close()
        # failure propagated, but the workers were still released
        assert not executor.seeded
        assert not sharded._resident and not sharded._shards_stale

    def test_worker_failure_surfaces_at_collect(self):
        executor = PersistentProcessExecutor()
        executor.seed([ExactWindowCounter(8)])
        try:
            executor.submit(_poison, [()])
            with pytest.raises(RuntimeError, match="shard worker"):
                executor.collect()
        finally:
            executor.close()

    def test_submit_task_count_mismatch(self):
        executor = PersistentProcessExecutor()
        executor.seed([ExactWindowCounter(8)])
        try:
            with pytest.raises(RuntimeError, match="resident workers"):
                executor.submit(_poison, [(), ()])
        finally:
            executor.close()

    def test_collect_deadline_names_unresponsive_worker(self):
        # a worker that never starts replying must surface as a
        # diagnostic error at the deadline, not hang the parent
        executor = PersistentProcessExecutor()
        executor.seed([ExactWindowCounter(8)])
        try:
            executor.submit(_stall, [(1.5,)])
            with pytest.raises(RuntimeError, match="sent no reply"):
                executor.collect(timeout=0.2)
        finally:
            # the late reply and the stop message still drain cleanly
            executor.close()

    def test_collect_deadline_tears_down_instead_of_queueing_replies(
        self, capfd
    ):
        # a deadline used to raise with the other workers' replies still
        # unread, so the next collect() answered with the previous
        # round's state ([1, 1] where [2, 2] was correct) and close()
        # printed BrokenPipeError tracebacks from the late repliers
        executor = PersistentProcessExecutor()
        executor.seed([[], []])
        try:
            executor.submit(_stall_then_append, [(0.5,), (0.0,)])
            with pytest.raises(RuntimeError, match="sent no reply"):
                executor.collect(timeout=0.1)
            assert not executor.seeded
            with pytest.raises(RuntimeError, match="torn down"):
                executor.submit(_stall_then_append, [(0.0,), (0.0,)])
            with pytest.raises(RuntimeError, match="torn down"):
                executor.broadcast(_stall_then_append, 0.0)
            with pytest.raises(RuntimeError, match="torn down"):
                executor.collect()
            # a fresh seed makes the executor usable again
            executor.seed([[], []])
            executor.submit(_stall_then_append, [(0.0,), (0.0,)])
            assert [len(shard) for shard in executor.collect()] == [1, 1]
        finally:
            executor.close()
        assert "BrokenPipeError" not in capfd.readouterr().err

    def test_sketch_close_after_deadline_keeps_parent_shards(self):
        stream = make_stream(n=400)
        sharded = ShardedSketch(exact_factory, shards=2, executor="persistent")
        sharded.update_many(stream)
        sharded.flush()  # seeds the workers
        parent_shards = list(sharded._shards)
        executor = sharded._executor
        executor.submit(_stall, [(0.5,), (0.0,)])
        with pytest.raises(RuntimeError, match="sent no reply"):
            executor.collect(timeout=0.1)
        with pytest.raises(RuntimeError, match="torn down"):
            sharded.close()
        # the failed sync must not adopt an empty shard list
        assert sharded._shards == parent_shards
        assert len(sharded.shards) == 2
        assert not executor.seeded

    def test_fork_serialized_against_tracker_sections(self):
        # regression: under the fork start method, a worker forked while
        # another thread sits in a resource-tracker critical section
        # inherits the tracker's lock in a locked state and deadlocks on
        # its first shm registration.  seed() must therefore hold
        # TRACKER_FORK_LOCK across every Process.start().
        from repro.sharding.shm import TRACKER_FORK_LOCK

        executor = PersistentProcessExecutor()
        real_ctx = executor._ctx
        lock_free_during_start = []

        class _ProbeCtx:
            def __getattr__(self, name):
                return getattr(real_ctx, name)

            def Process(self, *args, **kwargs):
                proc = real_ctx.Process(*args, **kwargs)
                real_start = proc.start

                def start():
                    # probe from a sibling thread: the RLock would let
                    # the seeding thread itself re-acquire trivially
                    acquired = []

                    def try_acquire():
                        got = TRACKER_FORK_LOCK.acquire(blocking=False)
                        if got:
                            TRACKER_FORK_LOCK.release()
                        acquired.append(got)

                    probe = threading.Thread(target=try_acquire)
                    probe.start()
                    probe.join()
                    lock_free_during_start.append(acquired[0])
                    real_start()

                proc.start = start
                return proc

        executor._ctx = _ProbeCtx()
        try:
            executor.seed([ExactWindowCounter(8), ExactWindowCounter(8)])
            assert lock_free_during_start == [False, False]
            assert len(executor.collect()) == 2  # workers functional
        finally:
            executor._ctx = real_ctx
            executor.close()

    def test_concurrent_pipelined_shm_engines(self):
        # two shm engines seed, feed, and close concurrently, each on its
        # own thread: one thread forks workers while the other creates
        # tracker-registered rings — the interleaving that deadlocked
        # workers before fork/tracker serialization
        stream = make_stream(n=1500)

        def run(results, idx):
            with ShardedSketch(
                memento_factory, shards=2, executor="persistent"
            ) as sharded:
                sharded.update_many(stream)
                results[idx] = [sharded.query(key) for key in range(31)]

        for _ in range(2):
            results = [None, None]
            threads = [
                threading.Thread(target=run, args=(results, i))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results[0] is not None
            assert results[0] == results[1]


class TestDeadWorker:
    """A SIGKILLed resident worker surfaces as a named error at the next
    write or query — never as a raw pipe error, a hang, or an answer
    from the parent's stale shards — and keeps surfacing until close."""

    @pytest.mark.parametrize(
        "first,after_query",
        [
            ("write", False),
            # the kill follows a query, so the parent's shards are
            # current until the write: the query after it must not
            # answer from them
            ("write", True),
            # only a query that must pull state touches the workers; a
            # query with nothing new answers from the parent's shards
            ("query", False),
        ],
    )
    def test_next_op_raises_named_error(self, first, after_query):
        deadline = time.monotonic() + 10.0
        stream = make_stream(n=400)
        sharded = ShardedSketch(exact_factory, shards=2, executor="persistent")
        sharded.update_many(stream)
        sharded.flush()  # seeds the workers and applies the batch
        if after_query:
            sharded.query(stream[0])  # parent shards now hold the batch
        victim = sharded._executor._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        named = r"shard worker 1 died \(exitcode -9\)"
        try:
            with pytest.raises(RuntimeError, match=named):
                if first == "write":
                    # a full batch goes straight to the worker pipes
                    sharded.update_many(make_stream(n=COALESCE_ITEMS))
                else:
                    sharded.query(stream[0])
            for _ in range(2):
                with pytest.raises(RuntimeError, match=named):
                    sharded.query(stream[0])
            with pytest.raises(RuntimeError, match=named):
                sharded.update(stream[0])
        finally:
            with pytest.raises(RuntimeError, match=named):
                sharded.close()
        assert time.monotonic() < deadline
        assert mp.active_children() == []
        assert leaked_segments() == []

    def test_kill_with_slots_in_flight_names_the_worker(self):
        # one ring serves every worker: a worker killed while it still
        # holds slots leaves the ring full, so the next write must name
        # it from the backpressure wait instead of waiting the ring's
        # 60 s write timeout out
        deadline = time.monotonic() + 10.0
        executor = PersistentProcessExecutor(ring_slots=2)
        sharded = ShardedSketch(exact_factory, shards=2, executor=executor)
        sharded.update_many(make_stream(n=400))
        sharded.flush()  # seeds the workers
        keys = np.arange(RING_MIN_ITEMS, dtype=np.int64)
        for _ in range(2):
            # worker 1 stalls on the first slot, so it retires neither
            executor.submit(_stall_on_column, [(0.0,), (30.0,)], (keys,))
        assert executor._ring.in_flight() == 2
        victim = executor._workers[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        named = r"shard worker 1 died \(exitcode -9\)"
        try:
            with pytest.raises(RuntimeError, match=named) as raised:
                sharded.update_many(make_stream(n=COALESCE_ITEMS))
            # named by the liveness check, not by a pipe error
            assert str(raised.value).endswith("(exitcode -9)")
            with pytest.raises(RuntimeError, match=named):
                sharded.flush()
        finally:
            with pytest.raises(RuntimeError, match=named):
                sharded.close()
        assert time.monotonic() < deadline
        assert mp.active_children() == []
        assert leaked_segments() == []

    def test_flush_names_a_worker_that_died_idle(self):
        # nothing pending: flush touches no pipe, yet it is the sync
        # point a caller trusts, so it checks the workers are alive
        sharded = ShardedSketch(exact_factory, shards=2, executor="persistent")
        sharded.update_many(make_stream(n=400))
        sharded.flush()
        victim = sharded._executor._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        named = r"shard worker 0 died \(exitcode -9\)"
        try:
            with pytest.raises(RuntimeError, match=named):
                sharded.flush()
            with pytest.raises(RuntimeError, match=named):
                sharded.flush()
        finally:
            with pytest.raises(RuntimeError, match=named):
                sharded.close()
        assert mp.active_children() == []


def _stall_on_column(shard, keys, seconds):
    time.sleep(seconds)


def _poison(shard):
    raise ValueError("boom")


def _stall(shard, seconds):
    time.sleep(seconds)


def _stall_then_append(shard, seconds):
    time.sleep(seconds)
    shard.append(seconds)


class TestLifecycle:
    def test_close_idempotent_and_reusable(self):
        sharded = ShardedSketch(exact_factory, shards=2, executor="persistent")
        sharded.update_many([1, 2, 3, 4])
        sharded.close()
        sharded.close()
        # a later batch lazily re-seeds fresh workers
        sharded.update_many([5, 6])
        assert sharded.updates == 6
        sharded.close()


class TestNonWindowedSharding:
    @pytest.mark.parametrize("executor", ["serial", "persistent"])
    def test_space_saving_substreams(self, executor):
        stream = make_stream()
        with ShardedSketch(
            lambda i: SpaceSaving(16), shards=4, executor=executor
        ) as sharded:
            sharded.update_many(stream)
            # each shard only ever saw its owned keys
            assert sum(s.processed for s in sharded.shards) == len(stream)
