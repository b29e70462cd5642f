"""Differential tests: batch ingestion must be byte-identical to scalar.

Every sketch with an ``update_many`` fast path is driven twice from the
same seed — once through the scalar ``update`` loop, once through the
batch engine (including ragged ``extend`` chunking) — and the complete
internal state is compared.  Streams are sized to cross block, frame, and
queue-rotation boundaries, which is where the batched window-slide
bookkeeping could silently diverge.
"""

from __future__ import annotations

import pickle
import random
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MST,
    RHHH,
    ExactIntervalCounter,
    ExactWindowCounter,
    ExactWindowHHH,
    FixedSampler,
    HMemento,
    Memento,
    SRC_HIERARCHY,
    SpaceSaving,
    WindowBaseline,
    generate_trace,
)
from repro.core.kernel import make_plan, plan_from_positions
from repro.core.sampling import draw_decision_array
from repro.netwide.controller import SketchController
from repro.netwide.messages import BatchReport
from repro.traffic.synth import BACKBONE, DATACENTER

# A window of 1000 with 32 counters gives block_size 32 and frames of
# 1024 packets; 12k-packet streams therefore cross ~11 frame flushes and
# hundreds of queue rotations.
WINDOW = 1000
COUNTERS = 32
STREAM_LEN = 12_000
# The tiny inputs: a handful of keys under a window of a few blocks, so a
# key is often re-sampled while its own expiry is still queued — the case
# where the overflow table's insertion order (and so the pickled bytes)
# depends on popping each expiry at its own update.  A tiny keyspace
# re-inserts every key within a window, so only the last few blocks of a
# stream show in its final state: the input is many short streams.
TINY_STREAMS = 40
TINY_KEYS = 4
TINY_WINDOW = 24
TINY_COUNTERS = 6  # block_size = 4, frame = 24


def space_saving_state(ss: SpaceSaving):
    """Full structural digest of the stream-summary: the bucket chain (in
    value order, with per-key errors), link consistency, and counters."""
    chain = []
    bucket = ss._head
    prev = None
    while bucket is not None:
        assert bucket.prev is prev, "broken back-link"
        assert bucket.keys, "empty bucket left linked"
        chain.append(
            (bucket.value, sorted((repr(k), e) for k, e in bucket.keys.items()))
        )
        prev = bucket
        bucket = bucket.next
    values = [value for value, _ in chain]
    assert values == sorted(values), "bucket chain out of order"
    return (chain, ss._size, ss._items, sorted(repr(k) for k in ss._index))


def memento_state(m: Memento):
    """Digest of Algorithm 1's entire mutable state."""
    return (
        m._updates,
        m._full_updates,
        m._countdown,
        m._blocks_into_frame,
        list(m._offsets.items()),  # insertion order included
        list(m._fifo),  # every overflow record, in append order
        list(m._counts),  # and how many each block holds
        space_saving_state(m._y),
    )


def scalar_feed(sketch, stream):
    update = sketch.update
    for item in stream:
        update(item)
    return sketch


def batch_feed(sketch, stream, chunks=(1, 7, 64, 1023, 4096)):
    """Feed through update_many with a ragged, boundary-crossing chunking."""
    i = 0
    n = len(stream)
    ci = 0
    while i < n:
        chunk = chunks[ci % len(chunks)]
        sketch.update_many(stream[i : i + chunk])
        i += chunk
        ci += 1
    return sketch


@pytest.fixture(scope="module")
def stream():
    return generate_trace(BACKBONE, STREAM_LEN, seed=3).packets_1d()


@pytest.fixture(scope="module")
def skewed_stream():
    return generate_trace(DATACENTER, STREAM_LEN, seed=19).packets_1d()


@pytest.fixture(scope="module")
def tiny_streams():
    """Seeded small-keyspace streams of two to eight windows: /32s under
    two /24s of one /16."""
    rng = random.Random(40)
    keys = [0x0A010000 | (i % 2) << 8 | i for i in range(TINY_KEYS)]
    return [
        [rng.choice(keys) for _ in range(rng.randrange(2, 8) * TINY_WINDOW)]
        for _ in range(TINY_STREAMS)
    ]


def with_tiny(stream, window, counters, tiny_streams):
    """The trace input and then every tiny input, with their geometry."""
    return [(stream, window, counters)] + [
        (packets, TINY_WINDOW, TINY_COUNTERS) for packets in tiny_streams
    ]


class TestSpaceSavingEquivalence:
    @pytest.mark.parametrize("counters", [4, 32, 512])
    def test_update_many_matches_scalar(self, stream, counters):
        a = scalar_feed(SpaceSaving(counters), stream)
        b = batch_feed(SpaceSaving(counters), stream)
        assert space_saving_state(a) == space_saving_state(b)

    def test_extend_matches_scalar(self, skewed_stream):
        a = scalar_feed(SpaceSaving(64), skewed_stream)
        b = SpaceSaving(64)
        b.extend(iter(skewed_stream), chunk_size=999)
        assert space_saving_state(a) == space_saving_state(b)

    def test_empty_batch_is_noop(self):
        ss = SpaceSaving(4)
        ss.update_many([])
        assert ss.processed == 0

    @given(
        items=st.lists(st.integers(0, 9), max_size=200),
        counters=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_small_universe(self, items, counters):
        # tiny universes maximize eviction churn and bucket sharing
        a = SpaceSaving(counters)
        for item in items:
            a.add(item)
        b = SpaceSaving(counters)
        b.update_many(items)
        assert space_saving_state(a) == space_saving_state(b)


class TestMementoEquivalence:
    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.1, 2**-6, 2**-10])
    @pytest.mark.parametrize("sampler", ["table", "geometric", "bernoulli"])
    def test_update_many_matches_scalar(self, stream, tau, sampler):
        a = Memento(WINDOW, counters=COUNTERS, tau=tau, sampler=sampler, seed=11)
        b = Memento(WINDOW, counters=COUNTERS, tau=tau, sampler=sampler, seed=11)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert memento_state(a) == memento_state(b)

    def test_extend_ragged_chunks(self, skewed_stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=5)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.25, seed=5)
        scalar_feed(a, skewed_stream)
        b.extend(iter(skewed_stream), chunk_size=313)
        assert memento_state(a) == memento_state(b)

    def test_single_item_batches(self, stream):
        # chunk size 1 is the degenerate batch: pure overhead, same state
        a = Memento(WINDOW, counters=COUNTERS, tau=0.3, seed=7)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.3, seed=7)
        scalar_feed(a, stream[:3000])
        for item in stream[:3000]:
            b.update_many([item])
        assert memento_state(a) == memento_state(b)

    def test_full_update_many_matches_scalar(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        for item in stream[:5000]:
            a.full_update(item)
        b.full_update_many(stream[:5000])
        assert memento_state(a) == memento_state(b)

    def test_ingest_samples_matches_scalar(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=2)
        for item in stream[:5000]:
            a.ingest_sample(item)
        b.ingest_samples(stream[:5000])
        assert memento_state(a) == memento_state(b)

    def test_queries_identical_after_batch(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, tau=0.1, seed=13)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.1, seed=13)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        for key in set(stream[:200]):
            assert a.query(key) == b.query(key)
            assert a.query_point(key) == b.query_point(key)
            assert a.query_lower(key) == b.query_lower(key)
        assert a.heavy_hitters(0.01) == b.heavy_hitters(0.01)


class TestHierarchicalEquivalence:
    def test_mst(self, stream):
        a = scalar_feed(MST(SRC_HIERARCHY, counters=64), stream)
        b = batch_feed(MST(SRC_HIERARCHY, counters=64), stream)
        assert a.packets == b.packets
        for x, y in zip(a._instances, b._instances):
            assert space_saving_state(x) == space_saving_state(y)

    def test_window_baseline(self, stream):
        a = WindowBaseline(SRC_HIERARCHY, window=2000, counters=COUNTERS)
        b = WindowBaseline(SRC_HIERARCHY, window=2000, counters=COUNTERS)
        scalar_feed(a, stream[:8000])
        batch_feed(b, stream[:8000])
        assert a.packets == b.packets
        for x, y in zip(a._instances, b._instances):
            assert memento_state(x) == memento_state(y)

    @pytest.mark.parametrize("sampling_ratio", [None, 10.0])
    def test_rhhh(self, stream, sampling_ratio):
        a = RHHH(SRC_HIERARCHY, counters=64, sampling_ratio=sampling_ratio, seed=4)
        b = RHHH(SRC_HIERARCHY, counters=64, sampling_ratio=sampling_ratio, seed=4)
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert (a.packets, a.sampled) == (b.packets, b.sampled)
        for x, y in zip(a._instances, b._instances):
            assert space_saving_state(x) == space_saving_state(y)

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    def test_hmemento(self, stream, tau):
        a = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=tau, seed=6
        )
        b = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=tau, seed=6
        )
        scalar_feed(a, stream)
        batch_feed(b, stream)
        assert a.updates == b.updates
        assert a._pattern_pos == b._pattern_pos
        assert memento_state(a._memento) == memento_state(b._memento)

    def test_hmemento_ingest_samples(self, stream):
        a = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=0.25, seed=6
        )
        b = HMemento(
            window=3000, hierarchy=SRC_HIERARCHY, counters=160, tau=0.25, seed=6
        )
        for item in stream[:4000]:
            a.ingest_sample(item)
        b.ingest_samples(stream[:4000])
        assert a.updates == b.updates
        assert memento_state(a._memento) == memento_state(b._memento)


class TestExactEquivalence:
    def test_window_counter(self, stream):
        a = scalar_feed(ExactWindowCounter(WINDOW), stream)
        b = batch_feed(ExactWindowCounter(WINDOW), stream)
        assert (a._counts, a._ring, a._pos, a._total) == (
            b._counts,
            b._ring,
            b._pos,
            b._total,
        )

    def test_interval_counter(self, stream):
        a = scalar_feed(ExactIntervalCounter(777), stream)
        b = ExactIntervalCounter(777)
        b.update_many(stream[:5])
        b.update_many(stream[5:])
        assert (a._counts, a._last, a._in_interval, a._intervals) == (
            b._counts,
            b._last,
            b._in_interval,
            b._intervals,
        )

    def test_window_hhh(self, stream):
        a = ExactWindowHHH(SRC_HIERARCHY, 1500)
        b = ExactWindowHHH(SRC_HIERARCHY, 1500)
        scalar_feed(a, stream[:6000])
        b.update_many(stream[:6000])
        for x, y in zip(a._counters, b._counters):
            assert (x._counts, x._pos, x._total) == (y._counts, y._pos, y._total)


class TestPlanFedEquivalence:
    """Kernel-plan feeding must equal the scalar replay of the same plan."""

    def test_memento_sampled_plan_matches_scalar_replay(self, stream):
        from repro.core.kernel import make_plan
        import numpy as np

        rng = np.random.default_rng(7)
        a = Memento(WINDOW, counters=COUNTERS, tau=0.4, seed=3)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.4, seed=3)
        offset = 0
        for chunk_len in (900, 1, 4096, 2500, 37):
            chunk = stream[offset : offset + chunk_len]
            offset += chunk_len
            decisions = rng.random(len(chunk)) < 0.3
            plan = make_plan(chunk, decisions)
            a.ingest_plan(plan, sampled=True)
            # scalar replay of the identical plan
            for keep, item in zip(decisions.tolist(), chunk):
                if keep:
                    b.ingest_sample(item)
                else:
                    b.ingest_gap(1)
        assert memento_state(a) == memento_state(b)

    def test_memento_unsampled_plan_matches_owned_feed(self, stream):
        from repro.core.kernel import plan_from_positions
        import numpy as np

        # sampled=False: selected items flip their own coins (sharding)
        a = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=9)
        b = Memento(WINDOW, counters=COUNTERS, tau=0.5, seed=9)
        chunk = stream[:4000]
        positions = np.arange(0, 4000, 3, dtype=np.int64)
        owned = [chunk[i] for i in positions.tolist()]
        a.ingest_plan(plan_from_positions(owned, positions, 4000))
        prev = -1
        for pos, item in zip(positions.tolist(), owned):
            if pos - prev - 1:
                b.ingest_gap(pos - prev - 1)
            b.update_many([item])
            prev = pos
        tail = 4000 - 1 - prev
        if tail:
            b.ingest_gap(tail)
        assert memento_state(a) == memento_state(b)

    def test_space_saving_dense_plan_matches_units(self, skewed_stream):
        from repro.core.kernel import dense_plan

        a = SpaceSaving(64)
        b = SpaceSaving(64)
        # chunk-sorted feed maximizes adjacent duplicates, exercising the
        # count-weighted run path
        for start in range(0, 8000, 1000):
            chunk = sorted(skewed_stream[start : start + 1000])
            a.update_many(chunk)
            b.ingest_plan(dense_plan(chunk))
        assert space_saving_state(a) == space_saving_state(b)

    @given(
        items=st.lists(st.integers(0, 6), max_size=200),
        counters=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_runs_equal_units(self, items, counters):
        a = SpaceSaving(counters)
        for item in items:
            a.add(item)
        b = SpaceSaving(counters)
        b.update_runs((key, len(list(run))) for key, run in groupby(items))
        assert space_saving_state(a) == space_saving_state(b)


class TestPickleRoundTrip:
    """Sketches must survive pickling with byte-identical state — the
    contract the process/persistent shard executors rely on — without
    recursion limits, even at realistic counter budgets."""

    def test_space_saving_deep_chain(self, stream):
        import pickle

        ss = SpaceSaving(512)
        ss.update_many(stream)
        clone = pickle.loads(pickle.dumps(ss))
        assert space_saving_state(clone) == space_saving_state(ss)
        # both keep evolving identically
        ss.update_many(stream[:500])
        clone.update_many(stream[:500])
        assert space_saving_state(clone) == space_saving_state(ss)

    def test_memento_round_trip(self, stream):
        import pickle

        m = Memento(WINDOW, counters=512, tau=0.3, seed=2)
        m.update_many(stream)
        clone = pickle.loads(pickle.dumps(m))
        assert memento_state(clone) == memento_state(m)
        m.update_many(stream[:500])
        clone.update_many(stream[:500])
        assert memento_state(clone) == memento_state(m)


class TestCustomSamplerObjects:
    """Batch paths must honour the documented sampler contract: a plain
    object with only ``should_sample()`` (no ``sample_block``)."""

    class MinimalSampler:
        """Deterministic every-3rd-packet sampler without sample_block."""

        def __init__(self):
            self.calls = 0

        def should_sample(self) -> bool:
            self.calls += 1
            return self.calls % 3 == 0

    def test_memento_update_many_falls_back_to_scalar_draws(self, stream):
        a = Memento(WINDOW, counters=COUNTERS, sampler=self.MinimalSampler())
        b = Memento(WINDOW, counters=COUNTERS, sampler=self.MinimalSampler())
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert memento_state(a) == memento_state(b)

    def test_tau1_with_refusing_sampler_still_consults_it(self, stream):
        # constructor default tau=1.0 plus a sampler that says "no":
        # update_many must not bypass the sampler via the WCSS fast path
        from repro import FixedSampler

        refuser = FixedSampler([False, True] * 4000, default=False)
        a = Memento(WINDOW, counters=COUNTERS, sampler=refuser)
        refuser_b = FixedSampler([False, True] * 4000, default=False)
        b = Memento(WINDOW, counters=COUNTERS, sampler=refuser_b)
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert a.full_updates == 2000
        assert memento_state(a) == memento_state(b)

    def test_hmemento_update_many_with_minimal_sampler(self, stream):
        a = HMemento(
            window=3000,
            hierarchy=SRC_HIERARCHY,
            counters=160,
            sampler=self.MinimalSampler(),
            seed=6,
        )
        b = HMemento(
            window=3000,
            hierarchy=SRC_HIERARCHY,
            counters=160,
            sampler=self.MinimalSampler(),
            seed=6,
        )
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert memento_state(a._memento) == memento_state(b._memento)

    def test_tau1_with_scripted_skips_default_true(self, stream):
        # FixedSampler claims tau=1.0 when default=True, but its scripted
        # False decisions must still be honoured by the batch path
        from repro import FixedSampler

        a = Memento(
            WINDOW, counters=COUNTERS,
            sampler=FixedSampler([False] * 100, default=True),
        )
        b = Memento(
            WINDOW, counters=COUNTERS,
            sampler=FixedSampler([False] * 100, default=True),
        )
        scalar_feed(a, stream[:4000])
        batch_feed(b, stream[:4000])
        assert a.full_updates == 4000 - 100
        assert memento_state(a) == memento_state(b)


class ScalarOnlySampler:
    """A custom sampler with only the documented ``should_sample()``."""

    def __init__(self, tau, seed):
        self.tau = tau
        self._rng = random.Random(seed)

    def should_sample(self) -> bool:
        return self._rng.random() < self.tau


def make_sampler_object(kind, tau):
    """A fresh sampler of ``kind`` (identical for every call)."""
    if kind == "fixed":
        # scripted prefix, then the default — at tau = 1 the script still
        # skips packets, so no WCSS shortcut may bypass it
        script = np.random.default_rng(21).random(STREAM_LEN // 2) < min(tau, 0.9)
        return FixedSampler(script.tolist(), default=True)
    if kind == "scalar-only":
        return ScalarOnlySampler(tau, seed=21)
    return kind  # a builtin sampler name: the sketch builds it from seed


def window_step(twin):
    """One scalar Window update (H-Memento exposes it as a one-packet gap,
    which ``test_ingest_gap`` pins to ``window_update``)."""
    step = getattr(twin, "window_update", None)
    if step is None:
        twin.ingest_gap(1)
    else:
        step()


def path_update_many(sketch, twin, stream):
    batch_feed(sketch, stream)
    scalar_feed(twin, stream)


def path_extend(sketch, twin, stream):
    sketch.extend(iter(stream), chunk_size=313)
    scalar_feed(twin, stream)


def owned_plans_path(positions_as):
    """``ingest_plan(plan, sampled=False)`` on shard-style plans: each chunk
    owns a scattered ~40% of its packets; the scalar twin updates the
    owned packets and takes one Window update per unowned one."""

    def path(sketch, twin, stream):
        rng = np.random.default_rng(13)
        offset = 0
        for chunk_len in (700, 1, 3000, 64, 0, 2048, 17, 4000):
            chunk = stream[offset : offset + chunk_len]
            offset += chunk_len
            owned_mask = rng.random(len(chunk)) < 0.4
            positions = np.flatnonzero(owned_mask)
            owned = [chunk[i] for i in positions.tolist()]
            sketch.ingest_plan(
                plan_from_positions(owned, positions_as(positions), len(chunk)),
                sampled=False,
            )
            for keep, item in zip(owned_mask.tolist(), chunk):
                if keep:
                    twin.update(item)
                else:
                    window_step(twin)

    return path


def path_sampled_plans(sketch, twin, stream):
    """``ingest_plan(make_plan(...), sampled=True)`` fed by the sketch's own
    decision column, with ``ingest_gap`` advances between chunks."""
    offset = 0
    for chunk_len, gap in zip(
        (900, 1, 4096, 0, 2500, 37, 3000), (0, 5, 1500, 3, 0, 2049, 1)
    ):
        chunk = stream[offset : offset + chunk_len]
        offset += chunk_len
        decisions = draw_decision_array(sketch._sampler, len(chunk))
        sketch.ingest_plan(make_plan(chunk, decisions), sampled=True)
        sketch.ingest_gap(gap)
        scalar_feed(twin, chunk)
        for _ in range(gap):
            window_step(twin)


PATHS = {
    "update_many": path_update_many,
    "extend": path_extend,
    "owned_plans_list": owned_plans_path(lambda positions: positions.tolist()),
    "owned_plans_ndarray": owned_plans_path(lambda positions: positions),
    "sampled_plans": path_sampled_plans,
}
SAMPLERS = ["table", "geometric", "bernoulli", "fixed", "scalar-only"]


class TestEveryPathMatchesScalar:
    """Every batch ingestion path must leave the sketch in the same state
    (sampler included) as a twin fed one scalar ``update`` at a time from
    the same seed — the scalar path is the reference."""

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("tau", [1.0, 0.25, 0.1])
    def test_memento(self, stream, tiny_streams, tau, sampler, path):
        for packets, window, counters in with_tiny(
            stream, WINDOW, COUNTERS, tiny_streams
        ):

            def build():
                return Memento(
                    window,
                    counters=counters,
                    tau=tau,
                    sampler=make_sampler_object(sampler, tau),
                    seed=11,
                )

            sketch, twin = build(), build()
            PATHS[path](sketch, twin, packets)
            assert memento_state(sketch) == memento_state(twin)
            assert pickle.dumps(sketch) == pickle.dumps(twin)

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("sampler", ["table", "geometric", "scalar-only"])
    def test_hmemento(self, stream, tiny_streams, sampler, path):
        for packets, window, counters in with_tiny(
            stream, 3000, 160, tiny_streams
        ):

            def build():
                return HMemento(
                    window=window,
                    hierarchy=SRC_HIERARCHY,
                    counters=counters,
                    tau=0.3,
                    sampler=make_sampler_object(sampler, 0.3),
                    seed=6,
                )

            sketch, twin = build(), build()
            PATHS[path](sketch, twin, packets)
            assert sketch.updates == twin.updates
            assert memento_state(sketch._memento) == memento_state(
                twin._memento
            )
            # prefix keys are tuples, which pickle memoizes by identity, so
            # the random streams are compared byte-for-byte and the sketch
            # by value (insertion order included)
            assert sketch._pattern_pos == twin._pattern_pos
            assert pickle.dumps(
                (sketch._sampler, sketch._pattern_rng, sketch._pattern_buf)
            ) == pickle.dumps(
                (twin._sampler, twin._pattern_rng, twin._pattern_buf)
            )


def q1_update_many(sketch, twin, stream):
    for lo in range(0, len(stream), 997):
        chunk = stream[lo : lo + 997]
        sketch.update_many(chunk)
        scalar_feed(twin, chunk)
        yield


def q1_receive_many(sketch, twin, stream):
    """Batch reports of 5-41 samples, each covering ``1/tau`` packets per
    sample plus 0-2, applied nine at a time by a controller; the twin
    takes a Full update per sample and a Window update per other packet."""
    controller = SketchController(sketch)
    per_sample = round(1 / sketch.tau)
    reports = []
    i, size = 0, 5
    while i < len(stream):
        samples = tuple(stream[i : i + size])
        reports.append(BatchReport(0, samples, len(samples) * per_sample + i % 3, 0))
        i += size
        size = size % 37 + 6
    for lo in range(0, len(reports), 9):
        controller.receive_many(reports[lo : lo + 9])
        for report in reports[lo : lo + 9]:
            for item in report.samples:
                twin.full_update(item)
            for _ in range(report.covered - len(report.samples)):
                twin.window_update()
        yield


def q1_ingest_gap(sketch, twin, stream):
    """Sample runs and gaps, one of them more than two frames long."""
    frame = sketch.effective_window
    i = step = 0
    while i < len(stream):
        chunk = stream[i : i + 3 + step % 50]
        i += len(chunk)
        gap = 2 * frame + 5 if step == 40 else step % 17 * round(1 / sketch.tau)
        sketch.ingest_samples(chunk)
        sketch.ingest_gap(gap)
        for item in chunk:
            twin.full_update(item)
        for _ in range(gap):
            twin.window_update()
        step += 1
        yield


Q1_FEEDS = {
    "update_many": q1_update_many,
    "receive_many": q1_receive_many,
    "ingest_gap": q1_ingest_gap,
}


class TestQuantumOne:
    """At overflow quantum 1 every Full update writes an overflow record,
    and Memento leaves ``y`` empty: each batch feed still leaves the state
    of its scalar twin, and ``y`` stays empty on both after every step."""

    @pytest.mark.parametrize("feed", sorted(Q1_FEEDS))
    @pytest.mark.parametrize(
        "window, counters, tau",
        [(512, 512, 1.0), (2000, 250, 1 / 8), (TINY_WINDOW, TINY_COUNTERS, 0.25)],
        ids=["block1-tau1", "block8-tau1/8", "tiny-tau1/4"],
    )
    def test_feed_matches_scalar_and_y_stays_empty(
        self, stream, window, counters, tau, feed
    ):
        sketch, twin = (
            Memento(window, counters=counters, tau=tau, seed=5) for _ in range(2)
        )
        assert sketch.sample_block == 1
        for _ in Q1_FEEDS[feed](sketch, twin, stream):
            for m in (sketch, twin):
                assert not m._y.monitored and not m._y.processed
        assert sketch.full_updates and sketch._offsets
        assert memento_state(sketch) == memento_state(twin)
        assert pickle.dumps(sketch) == pickle.dumps(twin)


class TestColumnFeed:
    """A numpy key column fed to ``update_many`` (the service daemon's
    report feed) leaves Memento byte-identical to the equal list, and
    the sampled kernel only ever sees Python ints."""

    @staticmethod
    def build(tau, sampler):
        if sampler == "fixed":
            script = random.Random(8).choices([True, False], k=STREAM_LEN)
            sampler = FixedSampler(script, default=tau >= 1.0)
        return Memento(WINDOW, counters=COUNTERS, tau=tau, sampler=sampler, seed=4)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("tau", [1.0, 1 / 16])
    @pytest.mark.parametrize("sampler", ["table", "bernoulli", "fixed"])
    def test_column_state_equals_list_state(
        self, stream, monkeypatch, dtype, tau, sampler
    ):
        packets = stream if dtype is np.uint32 else [key - 2**40 for key in stream]
        column = np.asarray(packets, dtype=dtype)
        listed, columnar = self.build(tau, sampler), self.build(tau, sampler)
        batch_feed(listed, packets)

        handed = []
        apply_sampled = Memento._apply_sampled

        def spy(sketch, n, positions, items):
            handed.append(items)
            return apply_sampled(sketch, n, positions, items)

        monkeypatch.setattr(Memento, "_apply_sampled", spy)
        batch_feed(columnar, column)
        assert handed
        for items in handed:
            assert isinstance(items, list)
            assert all(type(key) is int for key in items)
        assert pickle.dumps(columnar) == pickle.dumps(listed)

    def test_sampled_plan_gathers_only_selected_keys(self):
        column = np.arange(10, dtype=np.uint32)
        plan = make_plan(column, column % 3 == 0)
        assert plan.items == [0, 3, 6, 9]
        assert all(type(key) is int for key in plan.items)
