"""Deep structural invariants of Memento under randomized operation mixes.

These property tests drive the sketch through arbitrary interleavings of
full updates, window updates, and bulk gaps, checking the internal
bookkeeping that the paper's O(1)-update claim rests on.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Memento

operations = st.lists(
    st.one_of(
        st.tuples(st.just("full"), st.integers(0, 12)),
        st.tuples(st.just("window"), st.just(0)),
        st.tuples(st.just("gap"), st.integers(1, 40)),
    ),
    min_size=1,
    max_size=250,
)


def apply_ops(sketch: Memento, ops) -> None:
    for kind, value in ops:
        if kind == "full":
            sketch.full_update(value)
        elif kind == "window":
            sketch.window_update()
        else:
            sketch.ingest_gap(value)


@given(ops=operations, counters=st.integers(min_value=2, max_value=10))
@settings(max_examples=100, deadline=None)
def test_queue_and_offset_bookkeeping(ops, counters):
    """The overflow FIFO, its per-block counts and the overflow table must
    stay mutually consistent."""
    sketch = Memento(window=30, counters=counters, tau=1.0)
    apply_ops(sketch, ops)
    # exactly k+1 blocks at all times
    assert len(sketch._counts) == sketch.k + 1
    # the blocks account for every record, none holding more than its
    # block's updates
    assert sum(sketch._counts) == len(sketch._fifo)
    assert all(0 <= c <= sketch.block_size for c in sketch._counts)
    # B equals the multiset of queued overflow records
    assert Counter(sketch._fifo) == sketch._offsets
    # all offsets strictly positive
    assert all(v > 0 for v in sketch._offsets.values())


@given(ops=operations)
@settings(max_examples=80, deadline=None)
def test_update_counters_consistent(ops):
    sketch = Memento(window=25, counters=5, tau=1.0)
    expected_updates = 0
    expected_full = 0
    for kind, value in ops:
        if kind == "full":
            sketch.full_update(value)
            expected_updates += 1
            expected_full += 1
        elif kind == "window":
            sketch.window_update()
            expected_updates += 1
        else:
            sketch.ingest_gap(value)
            expected_updates += value
    assert sketch.updates == expected_updates
    assert sketch.full_updates == expected_full
    assert sketch.frame_position == expected_updates % sketch.effective_window


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_queries_never_negative_and_ordered(ops):
    sketch = Memento(window=40, counters=6, tau=0.5, seed=1)
    apply_ops(sketch, ops)
    for key in range(13):
        lower = sketch.query_lower(key)
        point = sketch.query_point(key)
        upper = sketch.query(key)
        assert 0 <= lower <= upper
        assert 0 <= point <= upper


@given(
    ops=operations,
    theta=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_heavy_hitters_consistent_with_query(ops, theta):
    """heavy_hitters must agree with the per-key query it is built on."""
    sketch = Memento(window=30, counters=4, tau=1.0)
    apply_ops(sketch, ops)
    heavy = sketch.heavy_hitters(theta)
    bar = theta * sketch.window
    for key, est in heavy.items():
        assert est == sketch.query(key)
        assert est > bar
    # no candidate above the bar is missing
    for key in sketch.candidates():
        if sketch.query(key) > bar:
            assert key in heavy


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_drain_clears_oldest_queue_within_one_block(data):
    """By each block boundary the (previous) oldest queue is fully drained —
    the invariant behind the constant worst-case update time."""
    sketch = Memento(window=24, counters=4, tau=1.0)
    blocks = data.draw(st.integers(min_value=1, max_value=30))
    for _ in range(blocks):
        for _ in range(sketch.block_size):
            sketch.full_update(data.draw(st.integers(0, 5)))
        # right after block_size updates a boundary has just passed; the
        # block now being expired may hold records, but the one retired
        # at the boundary must have been empty (a non-empty one raises
        # ExpiryQueueError) — and the bookkeeping must still add up
        assert sum(sketch._counts) == len(sketch._fifo)
        assert len(sketch._fifo) == sum(sketch._offsets.values())
