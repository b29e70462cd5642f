"""Space Saving invariants — unit and property-based tests."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SpaceSaving

streams = st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=400)


class TestBasics:
    def test_rejects_nonpositive_counters(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        with pytest.raises(ValueError):
            SpaceSaving(-3)

    def test_empty_sketch_queries_zero(self):
        ss = SpaceSaving(4)
        assert ss.query("nothing") == 0
        assert ss.lower_bound("nothing") == 0
        assert ss.min_value == 0
        assert len(ss) == 0

    def test_exact_while_counters_free(self):
        ss = SpaceSaving(10)
        for item in ["a", "b", "a", "c", "a"]:
            ss.add(item)
        assert ss.query("a") == 3
        assert ss.query("b") == 1
        assert ss.query("z") == 0  # free counters remain -> truly absent
        assert ss.lower_bound("a") == 3

    def test_eviction_takes_over_min_counter(self):
        ss = SpaceSaving(2)
        for item in ["a", "a", "b", "c"]:
            ss.add(item)
        # "c" evicted "b" (value 1) and owns value 2 with error 1
        assert ss.query("c") == 2
        assert ss.lower_bound("c") == 1
        assert not ss.contains("b")
        # unmonitored queries return the minimum counter
        assert ss.query("b") == ss.min_value

    def test_paper_example_reallocation(self):
        """Section 2's example: min counter 4 on x; y arrives -> y gets 5."""
        ss = SpaceSaving(2)
        for _ in range(4):
            ss.add("x")
        for _ in range(6):
            ss.add("big")
        ss.add("y")
        assert ss.query("y") == 5
        assert not ss.contains("x")

    def test_flush_resets_everything(self):
        ss = SpaceSaving(3)
        for item in ["a", "b", "c", "d"]:
            ss.add(item)
        ss.flush()
        assert len(ss) == 0
        assert ss.processed == 0
        assert ss.query("a") == 0
        ss.add("e")
        assert ss.query("e") == 1

    def test_weighted_add(self):
        ss = SpaceSaving(4)
        ss.add("a", weight=10)
        ss.add("b", weight=3)
        assert ss.query("a") == 10
        assert ss.processed == 13
        with pytest.raises(ValueError):
            ss.add("c", weight=0)

    def test_heavy_hitters_threshold(self):
        ss = SpaceSaving(8)
        for _ in range(60):
            ss.add("hot")
        for i in range(40):
            ss.add(f"cold{i % 7}")
        hh = ss.heavy_hitters(theta=0.5)
        assert hh == {"hot": 60}

    def test_entries_snapshot(self):
        ss = SpaceSaving(2)
        for item in ["a", "a", "b", "c"]:
            ss.add(item)
        rows = {key: (est, low) for key, est, low in ss.entries()}
        assert rows["a"] == (2, 2)
        assert rows["c"] == (2, 1)


class TestInvariants:
    @given(stream=streams, counters=st.integers(min_value=1, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_overestimation_bounds(self, stream, counters):
        """f(x) <= query(x) <= f(x) + n/m and lower_bound(x) <= f(x)."""
        ss = SpaceSaving(counters)
        truth = Counter()
        for item in stream:
            ss.add(item)
            truth[item] += 1
        n = len(stream)
        for item in set(stream):
            est = ss.query(item)
            assert est >= truth[item]
            assert est <= truth[item] + n / counters
            assert ss.lower_bound(item) <= truth[item]

    @given(stream=streams, counters=st.integers(min_value=1, max_value=8))
    @settings(max_examples=120, deadline=None)
    def test_counter_sum_and_size(self, stream, counters):
        """The counter values sum to n and at most m flows are monitored."""
        ss = SpaceSaving(counters)
        for item in stream:
            ss.add(item)
        values = [est for _, est in ss.items()]
        assert sum(values) == len(stream)
        assert len(values) <= counters
        assert ss.monitored == len(values)

    @given(stream=streams)
    @settings(max_examples=60, deadline=None)
    def test_guaranteed_heavy_hitters_monitored(self, stream):
        """Any flow with f(x) > n/m must hold a counter."""
        counters = 4
        ss = SpaceSaving(counters)
        truth = Counter()
        for item in stream:
            ss.add(item)
            truth[item] += 1
        bar = len(stream) / counters
        for item, count in truth.items():
            if count > bar:
                assert ss.contains(item)

    @given(stream=streams, counters=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_min_value_is_global_minimum(self, stream, counters):
        ss = SpaceSaving(counters)
        for item in stream:
            ss.add(item)
        values = [est for _, est in ss.items()]
        if ss.monitored == counters:
            assert ss.min_value == min(values)
        else:
            assert ss.min_value == 0


class TestBucketStructure:
    def test_values_monotone_along_bucket_list(self):
        ss = SpaceSaving(5)
        for i, item in enumerate(["a"] * 5 + ["b"] * 3 + ["c", "d", "e", "a"]):
            ss.add(item)
        values = []
        bucket = ss._head
        while bucket is not None:
            values.append(bucket.value)
            assert bucket.keys, "no empty buckets may remain linked"
            bucket = bucket.next
        assert values == sorted(set(values))

    def test_index_matches_buckets(self):
        ss = SpaceSaving(3)
        for item in ["x", "y", "x", "z", "w", "x"]:
            ss.add(item)
        for key, bucket in ss._index.items():
            assert key in bucket.keys


class TestPickling:
    @given(stream=streams, counters=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_keeps_key_order_and_ties(self, stream, counters):
        ss = SpaceSaving(counters)
        ss.update_many(stream)
        clone = pickle.loads(pickle.dumps(ss))
        assert list(clone.items()) == list(ss.items())
        assert clone.entries() == ss.entries()
        # the eviction order within each bucket survives too
        more = list(range(100, 110))
        ss.update_many(more)
        clone.update_many(more)
        assert list(clone.items()) == list(ss.items())

    def test_state_without_key_order_lists_keys_in_chain_order(self):
        ss = SpaceSaving(4)
        ss.update_many(["b", "b", "a", "c", "c", "c"])
        state = ss.__getstate__()
        del state["order"]  # as pickled before the order was kept
        old = SpaceSaving.__new__(SpaceSaving)
        old.__setstate__(state)
        assert list(old.items()) == [("a", 1), ("b", 2), ("c", 3)]
        assert dict(old.items()) == dict(ss.items())
