"""Memento (Algorithm 1) — semantics, bounds, and WCSS equivalence."""

from __future__ import annotations

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WCSS, ExactWindowCounter, FixedSampler, Memento
from repro.core.memento import ExpiryQueueError

streams = st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=600)


class TestConstruction:
    def test_requires_exactly_one_of_counters_epsilon(self):
        with pytest.raises(ValueError):
            Memento(window=100)
        with pytest.raises(ValueError):
            Memento(window=100, counters=8, epsilon=0.5)

    def test_epsilon_translates_to_counters(self):
        sketch = Memento(window=1000, epsilon=0.01)
        assert sketch.k == 400  # ceil(4 / 0.01)
        assert sketch.epsilon == pytest.approx(0.01)

    def test_effective_window_tiles_blocks(self):
        sketch = Memento(window=1000, counters=64)
        assert sketch.effective_window == sketch.block_size * sketch.k
        assert sketch.effective_window >= 1000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Memento(window=0, counters=8)
        with pytest.raises(ValueError):
            Memento(window=10, counters=-1)
        with pytest.raises(ValueError):
            Memento(window=10, counters=8, tau=0.0)
        with pytest.raises(ValueError):
            Memento(window=10, counters=8, tau=1.5)
        with pytest.raises(ValueError):
            Memento(window=10, epsilon=1.5)

    def test_wcss_is_tau_one(self):
        sketch = WCSS(window=500, counters=32)
        assert sketch.tau == 1.0
        assert isinstance(sketch, Memento)


class TestWindowSemantics:
    def test_frame_position_advances_and_wraps(self):
        sketch = Memento(window=20, counters=4, tau=1.0)
        w_eff = sketch.effective_window
        for i in range(1, 2 * w_eff + 1):
            sketch.window_update()
            assert sketch.frame_position == i % w_eff

    def test_flush_happens_at_frame_boundary(self):
        sketch = Memento(window=20, counters=4, tau=1.0)
        for _ in range(sketch.effective_window - 1):
            sketch.full_update("x")
        assert sketch._y.query("x") > 0
        sketch.full_update("x")  # crosses the frame boundary, then inserts
        assert sketch._y.query("x") == 1

    def test_expired_flow_estimate_decays(self):
        """A burst fully outside the window decays to the floor estimate."""
        sketch = Memento(window=100, counters=10, tau=1.0)
        for _ in range(100):
            sketch.full_update("burst")
        high = sketch.query("burst")
        for _ in range(2 * sketch.effective_window):
            sketch.window_update()
        low = sketch.query("burst")
        assert low < high
        assert low <= 2 * sketch.block_size  # only the conservative floor

    def test_queue_count_invariant(self):
        sketch = Memento(window=60, counters=6, tau=1.0)
        rng = np.random.default_rng(3)
        for _ in range(500):
            sketch.full_update(int(rng.integers(0, 10)))
            assert len(sketch._counts) == sketch.k + 1
            assert sum(sketch._counts) == len(sketch._fifo)

    def test_offsets_match_queue_contents(self):
        """B[x] must equal the number of queued overflow records for x."""
        sketch = Memento(window=40, counters=4, tau=1.0)
        rng = np.random.default_rng(9)
        for step in range(2000):
            sketch.full_update(int(rng.integers(0, 6)))
            assert Counter(sketch._fifo) == sketch._offsets, step
            assert sum(sketch._counts) == len(sketch._fifo), step


class TestBounds:
    @given(stream=streams, counters=st.integers(min_value=2, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_wcss_one_sided_error(self, stream, counters):
        """With tau = 1: f <= estimate <= f + 4 blocks (WCSS guarantee)."""
        window = 32
        sketch = Memento(window=window, counters=counters, tau=1.0)
        exact = ExactWindowCounter(sketch.effective_window)
        for item in stream:
            sketch.full_update(item)
            exact.update(item)
        for item in set(stream):
            true = exact.query(item)
            est = sketch.query(item)
            assert est >= true
            assert est <= true + 4 * sketch.block_size

    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_query_point_within_two_blocks(self, stream):
        window = 32
        sketch = Memento(window=window, counters=8, tau=1.0)
        exact = ExactWindowCounter(sketch.effective_window)
        for item in stream:
            sketch.full_update(item)
            exact.update(item)
        for item in set(stream):
            assert abs(sketch.query_point(item) - exact.query(item)) <= (
                2 * sketch.block_size
            )

    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_lower_bound_below_upper(self, stream):
        sketch = Memento(window=48, counters=6, tau=1.0)
        for item in stream:
            sketch.full_update(item)
        for item in set(stream):
            assert sketch.query_lower(item) <= sketch.query(item)
            assert sketch.query_lower(item) >= 0

    def test_heavy_hitters_recall_against_exact(self):
        """Every true window heavy hitter is reported (one-sided errors)."""
        window = 200
        sketch = Memento(window=window, counters=20, tau=1.0)
        exact = ExactWindowCounter(sketch.effective_window)
        rng = np.random.default_rng(17)
        stream = ["hot"] * 300 + [f"f{i}" for i in rng.integers(0, 50, 700)]
        rng.shuffle(stream)
        for item in stream:
            sketch.update(item)
            exact.update(item)
        theta = 0.2
        truth = exact.heavy_hitters(theta)
        reported = sketch.heavy_hitters(theta)
        assert set(truth) <= set(reported)


class TestSampling:
    def test_scaling_by_inverse_tau(self):
        """A deterministic always-sample sampler with tau=0.5 scales by 2."""
        sketch = Memento(window=100, counters=10, tau=0.5, sampler=FixedSampler())
        for _ in range(50):
            sketch.update("x")
        assert sketch.full_updates == 50
        assert sketch.query("x") == 2 * sketch.query_raw("x")

    def test_never_sample_only_window_updates(self):
        sketch = Memento(
            window=100, counters=10, tau=0.5, sampler=FixedSampler([], default=False)
        )
        for i in range(200):
            sketch.update(i)
        assert sketch.full_updates == 0
        assert sketch.updates == 200

    def test_sampled_estimate_tracks_truth(self):
        """At tau = 1/4 a persistent heavy flow is estimated within noise."""
        window = 4000
        sketch = Memento(window=window, counters=64, tau=0.25, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(2 * window):
            sketch.update("hh" if rng.random() < 0.3 else int(rng.integers(0, 1000)))
        est = sketch.query_point("hh")
        true = 0.3 * window
        assert abs(est - true) < 0.5 * true

    def test_updates_counter_totals(self):
        sketch = Memento(window=100, counters=8, tau=0.5, seed=1)
        for i in range(1000):
            sketch.update(i % 13)
        assert sketch.updates == 1000
        assert 300 < sketch.full_updates < 700  # ~Binomial(1000, 0.5)


class TestIngestPaths:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("full"), st.integers(0, 9)),
                st.tuples(st.just("gap"), st.integers(1, 60)),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ingest_gap_equals_window_updates(self, ops):
        a = Memento(window=50, counters=5, tau=1.0)
        b = Memento(window=50, counters=5, tau=1.0)
        for kind, value in ops:
            if kind == "full":
                a.full_update(value)
                b.full_update(value)
            else:
                for _ in range(value):
                    a.window_update()
                b.ingest_gap(value)
        assert a.frame_position == b.frame_position
        assert a.updates == b.updates
        assert a._offsets == b._offsets
        for item in range(10):
            assert a.query(item) == b.query(item)

    def test_ingest_gap_rejects_negative(self):
        sketch = Memento(window=10, counters=2, tau=1.0)
        with pytest.raises(ValueError):
            sketch.ingest_gap(-1)

    @staticmethod
    def _overfull_oldest_block():
        # a corrupted oldest block counting more overflow records than it
        # has updates left
        sketch = Memento(window=40, counters=4, tau=1.0)
        sketch._fifo.extendleft(["x"] * (sketch.block_size + 1))
        sketch._counts[0] += sketch.block_size + 1
        sketch._offsets["x"] = sketch.block_size + 1
        return sketch

    def test_unexpired_queue_at_a_boundary_is_a_named_error(self):
        # such a block must not be retired silently
        sketch = self._overfull_oldest_block()
        with pytest.raises(ExpiryQueueError, match="unexpired"):
            sketch.ingest_gap(2 * sketch.block_size)

    def test_scalar_window_update_names_an_unexpired_block_too(self):
        sketch = self._overfull_oldest_block()
        with pytest.raises(ExpiryQueueError, match="unexpired"):
            for _ in range(2 * sketch.block_size):
                sketch.window_update()

    def test_ingest_sample_is_full_update(self):
        sketch = Memento(window=100, counters=8, tau=0.25)
        sketch.ingest_sample("x")
        assert sketch.full_updates == 1
        assert sketch.query("x") == 4 * sketch.query_raw("x")


class TestCandidates:
    def test_candidates_cover_offsets_and_sketch(self):
        sketch = Memento(window=50, counters=5, tau=1.0)
        for _ in range(60):
            sketch.full_update("big")
        sketch.full_update("small")
        cands = set(sketch.candidates())
        assert "big" in cands
        assert "small" in cands
        assert len(cands) == len(list(sketch.candidates()))  # deduplicated
