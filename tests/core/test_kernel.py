"""The columnar ingestion kernel: plan compilation and its derived views."""

from __future__ import annotations

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    IngestPlan,
    collapse_run_arrays,
    dense_plan,
    make_plan,
    plan_from_positions,
)


class TestMakePlan:
    def test_positions_from_decision_column(self):
        decisions = np.array([True, False, False, True, True, False])
        plan = make_plan([10, 11, 12, 13, 14, 15], decisions)
        assert plan.n == 6
        assert not plan.dense
        assert plan.positions.tolist() == [0, 3, 4]
        assert plan.items == [10, 13, 14]
        assert plan.selected == 3

    def test_all_true_collapses_to_dense(self):
        plan = make_plan([1, 2, 3], np.ones(3, dtype=bool))
        assert plan.dense
        assert plan.items == [1, 2, 3]
        assert plan.tail_gap == 0

    def test_none_decisions_is_dense(self):
        plan = make_plan([1, 2], None)
        assert plan.dense and plan.n == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="decisions"):
            make_plan([1, 2, 3], np.ones(2, dtype=bool))

    def test_empty_chunk(self):
        plan = make_plan([], np.zeros(0, dtype=bool))
        assert plan.n == 0 and plan.selected == 0
        assert plan.segments() == []
        assert plan.tail_gap == 0


class TestDerivedViews:
    def make(self):
        # selected positions 1, 2, 5, 9 in a 12-packet chunk
        decisions = np.zeros(12, dtype=bool)
        decisions[[1, 2, 5, 9]] = True
        return make_plan(list("abcdefghijkl"), decisions)

    def test_gaps(self):
        plan = self.make()
        assert plan.gaps().tolist() == [1, 0, 2, 3]
        assert plan.tail_gap == 2

    def test_segments_rle(self):
        plan = self.make()
        assert plan.segments() == [
            (1, ["b", "c"]),
            (2, ["f"]),
            (3, ["j"]),
        ]

    def test_no_selection_tail_covers_everything(self):
        plan = make_plan([1, 2, 3, 4], np.zeros(4, dtype=bool))
        assert plan.segments() == []
        assert plan.tail_gap == 4



class TestPlanFromPositions:
    def test_wraps_extracted_items(self):
        plan = plan_from_positions(
            ["a", "b"], np.array([2, 5], dtype=np.int64), 8
        )
        assert plan.n == 8
        assert plan.segments() == [(2, ["a"]), (2, ["b"])]
        assert plan.tail_gap == 2

    def test_full_coverage_is_dense(self):
        plan = plan_from_positions([1, 2], np.array([0, 1]), 2)
        assert plan.dense

    def test_item_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="items"):
            IngestPlan(5, np.array([1, 2]), ["only-one"])


class TestCollapseRuns:
    """``collapse_run_arrays``: adjacent-equal integer keys as
    ``(keys, counts)`` lists; anything else is declined."""

    def test_int_vectorized(self):
        assert collapse_run_arrays([7, 7, 7, 3, 3, 7]) == ([7, 3, 7], [3, 2, 1])

    def test_non_int_fallback(self):
        # callers feed non-integer batches unit by unit
        assert collapse_run_arrays(list("aab")) is None
        assert collapse_run_arrays([1.5, 1.5]) is None

    def test_empty(self):
        assert collapse_run_arrays([]) is None

    def test_keys_are_python_ints(self):
        keys, counts = collapse_run_arrays([5, 5])
        assert keys == [5] and counts == [2]
        assert type(keys[0]) is int and type(counts[0]) is int

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_groupby(self, items):
        keys, counts = collapse_run_arrays(items)
        expected = [(k, sum(1 for _ in g)) for k, g in groupby(items)]
        assert list(zip(keys, counts)) == expected
        # expansion reproduces the stream
        assert [k for k, c in zip(keys, counts) for _ in range(c)] == items
