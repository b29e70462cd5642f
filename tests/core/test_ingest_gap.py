"""Edge cases of ``Memento.ingest_gap`` (the controller's hot loop).

Every case is checked differentially against the ground truth the
docstring promises: ``ingest_gap(n)`` must leave the sketch in exactly
the state that ``n`` scalar ``window_update()`` calls would, including
the ``updates`` counter and ``frame_position``, for gaps that land on
block boundaries, span whole frames, and interleave with pending
drain-queue work — and, for hostile counts up to 10**18, within a
deadline.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro import Memento
from test_batch_equivalence import memento_state

WINDOW = 96
COUNTERS = 8  # block_size = 12, frame = 96


def make_pair(**kwargs):
    kwargs.setdefault("window", WINDOW)
    kwargs.setdefault("counters", COUNTERS)
    kwargs.setdefault("tau", 1.0)
    return Memento(**kwargs), Memento(**kwargs)


def assert_gap_equals_loop(a: Memento, b: Memento, count: int) -> None:
    """Drive ``a`` with ingest_gap and ``b`` with the update loop."""
    a.ingest_gap(count)
    for _ in range(count):
        b.window_update()
    assert a.updates == b.updates
    assert a.frame_position == b.frame_position
    assert memento_state(a) == memento_state(b)


class TestIngestGapEdgeCases:
    def test_zero_count_is_noop(self):
        a, b = make_pair()
        a.full_update(1)
        b.full_update(1)
        before = memento_state(a)
        a.ingest_gap(0)
        assert memento_state(a) == before
        assert a.updates == b.updates

    def test_negative_count_rejected(self):
        a, _ = make_pair()
        with pytest.raises(ValueError):
            a.ingest_gap(-1)

    @pytest.mark.parametrize("offset", [0, 1, 5, 11])
    def test_gap_exactly_to_block_boundary(self, offset):
        a, b = make_pair()
        block = a.block_size
        for _ in range(offset):
            a.window_update()
            b.window_update()
        # a gap that consumes exactly the rest of the current block
        assert_gap_equals_loop(a, b, block - offset)
        assert a.frame_position % block == 0

    def test_gap_exactly_one_block(self):
        a, b = make_pair()
        assert_gap_equals_loop(a, b, a.block_size)

    @pytest.mark.parametrize("frames", [1, 2, 3])
    def test_gap_spanning_multiple_frames(self, frames):
        a, b = make_pair()
        # seed some state so the frame flushes are observable
        for item in (1, 2, 3, 1, 1):
            a.full_update(item)
            b.full_update(item)
        assert_gap_equals_loop(a, b, frames * a.effective_window + 7)
        assert a.frame_position == b.frame_position

    def test_gap_interleaved_with_pending_drain_work(self):
        # overflow the same key until queues hold drainable entries, then
        # advance with gaps that must retire them one per packet
        a, b = make_pair()
        hot = 42
        for _ in range(3 * a.block_size):
            a.full_update(hot)
            b.full_update(hot)
        assert a.overflow_entries > 0
        # drain across several rotations in uneven chunks
        for count in (1, a.block_size - 1, 2 * a.block_size + 3, 5):
            assert_gap_equals_loop(a, b, count)

    def test_gap_with_drain_longer_than_block(self):
        # many distinct overflowed keys: the drain queue outlives one block
        a, b = make_pair(window=WINDOW, counters=COUNTERS)
        for key in range(200):
            for _ in range(a.sample_block):
                a.full_update(key)
                b.full_update(key)
        assert_gap_equals_loop(a, b, 3 * a.effective_window + 1)

    def test_gap_then_full_updates_round_trip(self):
        # alternating gaps and full updates (the controller's real pattern)
        a, b = make_pair(tau=0.5, seed=3)
        for step, key in enumerate((7, 7, 8, 7, 9, 7)):
            a.ingest_sample(key)
            b.ingest_sample(key)
            assert_gap_equals_loop(a, b, (step * 13) % 29)

    @pytest.mark.parametrize("count", [1, 7, 12, 13, 95, 96, 97, 1000])
    def test_updates_counter_and_frame_position(self, count):
        a, b = make_pair()
        for item in (5, 6, 5):
            a.full_update(item)
            b.full_update(item)
        assert_gap_equals_loop(a, b, count)


def loaded_pair(window: int, counters: int):
    """A sketch with pending expiries mid-block, and a byte-equal copy."""
    sketch = Memento(window, counters=counters, tau=0.5, seed=2)
    sketch.update_many([key % 3 for key in range(5 * window + 1)])
    assert sketch.overflow_entries > 0
    return sketch, pickle.loads(pickle.dumps(sketch))


class TestHostileGapCounts:
    """``ingest_gap`` is O(W) whatever its count: gaps past two frames
    skip whole frames arithmetically, with ``updates`` kept exact."""

    @pytest.mark.parametrize("window,counters", [(12, 3), (24, 6), (40, 8)])
    def test_every_count_up_to_seven_windows(self, window, counters):
        base, twin = loaded_pair(window, counters)
        frozen = pickle.dumps(base)
        for count in range(7 * base.effective_window + 1):
            gapped = pickle.loads(frozen)
            gapped.ingest_gap(count)
            assert pickle.dumps(gapped) == pickle.dumps(twin), count
            twin.window_update()

    def test_huge_count_returns_and_counts_exactly(self):
        sketch, twin = loaded_pair(24, 6)
        count = 10**18
        before = sketch.updates
        started = time.perf_counter()
        sketch.ingest_gap(count)
        assert time.perf_counter() - started < 2.0
        assert sketch.updates == before + count
        # the same end state as the shortest gap of the same frame phase
        # that also expires everything
        frame = twin.effective_window
        for _ in range(2 * frame + (count - 2 * frame) % frame):
            twin.window_update()
        twin._updates = sketch.updates
        assert pickle.dumps(sketch) == pickle.dumps(twin)
        assert sketch.overflow_entries == 0

    def test_huge_count_at_netwide_scale(self):
        sketch = Memento(100_000, counters=12_500, tau=0.03, seed=1)
        sketch.update_many(list(range(250_000)))
        started = time.perf_counter()
        sketch.ingest_gap(10**18)
        assert time.perf_counter() - started < 2.0
        assert sketch.updates == 250_000 + 10**18
        assert sketch.overflow_entries == 0
