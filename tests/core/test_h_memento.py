"""H-Memento (Algorithm 2) — scaling, estimates, output properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    SRC_DST_HIERARCHY,
    SRC_HIERARCHY,
    ExactWindowHHH,
    FixedSampler,
    HMemento,
    ip_to_int,
)


def feed_mixture(sketch, truth, n, rng, heavy_share=0.3):
    """Stream: one heavy /24 subnet at ``heavy_share``, uniform background."""
    base = ip_to_int("10.2.3.0")
    for _ in range(n):
        if rng.random() < heavy_share:
            pkt = base | int(rng.integers(0, 256))
        else:
            pkt = int(rng.integers(0, 2**32))
        sketch.update(pkt)
        if truth is not None:
            truth.update(pkt)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HMemento(window=100, hierarchy=SRC_HIERARCHY)  # no size
        with pytest.raises(ValueError):
            HMemento(window=100, hierarchy=SRC_HIERARCHY, counters=10, epsilon=0.1)
        with pytest.raises(ValueError):
            HMemento(window=100, hierarchy=SRC_HIERARCHY, counters=10, tau=0.0)
        with pytest.raises(ValueError):
            HMemento(window=100, hierarchy=SRC_HIERARCHY, counters=10, delta=2.0)

    def test_epsilon_scales_by_hierarchy(self):
        sketch = HMemento(window=1000, hierarchy=SRC_HIERARCHY, epsilon=0.1)
        assert sketch.counters == 200  # ceil(4 * 5 / 0.1)

    def test_sampling_ratio_is_h_over_tau(self):
        sketch = HMemento(
            window=1000, hierarchy=SRC_HIERARCHY, counters=100, tau=0.25
        )
        assert sketch.sampling_ratio == pytest.approx(20.0)

    def test_low_tau_warns_per_section_6_2(self):
        with pytest.warns(UserWarning, match="2\\^-10"):
            HMemento(
                window=10_000,
                hierarchy=SRC_DST_HIERARCHY,
                counters=100,
                tau=2.0**-10,  # per-pattern rate 2^-10 / 25 << 2^-10
            )


class TestEstimates:
    def test_tau_one_counts_each_pattern_fifth(self):
        """At tau=1 each pattern is sampled w.p. 1/H; scaling recovers f."""
        rng = np.random.default_rng(2)
        window = 4000
        sketch = HMemento(
            window=window, hierarchy=SRC_HIERARCHY, counters=400, tau=1.0, seed=2
        )
        truth = ExactWindowHHH(SRC_HIERARCHY, window=sketch.window)
        feed_mixture(sketch, truth, 2 * window, rng)
        prefix = (ip_to_int("10.2.3.0"), 24)
        true = truth.query(prefix)
        est = sketch.query_point(prefix)
        assert true > 0
        assert abs(est - true) < 0.5 * true

    def test_upper_lower_ordering(self):
        sketch = HMemento(
            window=500, hierarchy=SRC_HIERARCHY, counters=100, tau=0.5, seed=3
        )
        rng = np.random.default_rng(3)
        feed_mixture(sketch, None, 1000, rng)
        for prefix in sketch.candidates():
            assert sketch.query_lower(prefix) <= sketch.query(prefix)
            assert sketch.query_point(prefix) <= sketch.query(prefix)

    def test_update_is_single_memento_update(self):
        sketch = HMemento(
            window=100, hierarchy=SRC_DST_HIERARCHY, counters=100, tau=1.0, seed=1
        )
        for i in range(50):
            sketch.update((i, i))
        assert sketch.updates == 50
        assert sketch._memento.updates == 50  # one window tick per packet
        assert sketch.full_updates == 50  # tau = 1

    def test_ingest_paths(self):
        sketch = HMemento(
            window=100, hierarchy=SRC_HIERARCHY, counters=50, tau=0.5, seed=4
        )
        sketch.ingest_sample(ip_to_int("1.2.3.4"))
        sketch.ingest_gap(10)
        assert sketch.updates == 11
        assert sketch.full_updates == 1


class TestOutput:
    def test_heavy_subnet_detected(self):
        rng = np.random.default_rng(7)
        window = 4000
        sketch = HMemento(
            window=window, hierarchy=SRC_HIERARCHY, counters=400, tau=1.0, seed=7
        )
        feed_mixture(sketch, None, 2 * window, rng, heavy_share=0.4)
        out = sketch.output(theta=0.2)
        assert (ip_to_int("10.2.3.0"), 24) in out

    def test_conservative_is_superset_of_point(self):
        rng = np.random.default_rng(8)
        sketch = HMemento(
            window=2000, hierarchy=SRC_HIERARCHY, counters=200, tau=0.5, seed=8
        )
        feed_mixture(sketch, None, 4000, rng)
        conservative = sketch.output(theta=0.15, conservative=True)
        point = sketch.output(theta=0.15, conservative=False)
        assert point <= conservative

    def test_coverage_against_exact(self):
        """No prefix with true conditioned frequency above theta*W is missed
        by the conservative output (statistical; seeded)."""
        rng = np.random.default_rng(9)
        window = 3000
        sketch = HMemento(
            window=window, hierarchy=SRC_HIERARCHY, counters=600, tau=1.0, seed=9
        )
        truth = ExactWindowHHH(SRC_HIERARCHY, window=sketch.window)
        feed_mixture(sketch, truth, 2 * window, rng, heavy_share=0.5)
        theta = 0.3
        out = sketch.output(theta)
        # any prefix whose plain frequency exceeds theta*W must appear in the
        # set or have a selected descendant covering its mass
        for prefix, count in truth.heavy_prefixes(theta).items():
            covered = prefix in out or any(
                SRC_HIERARCHY.generalizes(prefix, h) for h in out
            )
            assert covered, (prefix, count)

    def test_output_rejects_bad_theta(self):
        sketch = HMemento(window=100, hierarchy=SRC_HIERARCHY, counters=50)
        with pytest.raises(ValueError):
            sketch.output(theta=0.0)
        with pytest.raises(ValueError):
            sketch.output(theta=1.0)

    def test_heavy_prefixes_plain_thresholding(self):
        sketch = HMemento(
            window=1000, hierarchy=SRC_HIERARCHY, counters=100, tau=1.0, seed=11
        )
        pkt = ip_to_int("8.8.8.8")
        for _ in range(1000):
            sketch.update(pkt)
        heavy = sketch.heavy_prefixes(theta=0.5)
        assert (pkt, 32) in heavy
        assert all(est > 500 for est in heavy.values())


class TestTwoDimensions:
    def test_2d_update_and_query(self):
        sketch = HMemento(
            window=2000, hierarchy=SRC_DST_HIERARCHY, counters=500, tau=1.0, seed=12
        )
        src, dst = ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8")
        for _ in range(2000):
            sketch.update((src, dst))
        full = (src, 32, dst, 32)
        est = sketch.query_point(full)
        assert est > 1000  # true frequency is the whole window
        root = (0, 0, 0, 0)
        assert sketch.query(root) >= sketch.query_point(root) > 1000

    def test_2d_output_contains_hot_pair(self):
        sketch = HMemento(
            window=1500, hierarchy=SRC_DST_HIERARCHY, counters=750, tau=1.0, seed=13
        )
        rng = np.random.default_rng(13)
        src, dst = ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8")
        for _ in range(3000):
            if rng.random() < 0.5:
                sketch.update((src, dst))
            else:
                sketch.update((int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32))))
        out = sketch.output(theta=0.25, conservative=False)
        assert any(SRC_DST_HIERARCHY.generalizes(p, (src, 32, dst, 32)) or p == (src, 32, dst, 32) for p in out)


class TestPatternColumn:
    @pytest.mark.parametrize("sizes", [(0, 5, 4091), (4096, 1), (9000, 3, 8193)])
    def test_draw_patterns_equals_sequential_draws(self, sizes):
        a = HMemento(window=1000, hierarchy=SRC_HIERARCHY, counters=50, seed=4)
        b = HMemento(window=1000, hierarchy=SRC_HIERARCHY, counters=50, seed=4)
        for size in sizes:
            assert a._draw_patterns(size) == [
                b._next_pattern() for _ in range(size)
            ]
            # same buffer, same position, same RNG consumption
            assert a._pattern_pos == b._pattern_pos
            assert a._pattern_buf == b._pattern_buf
            assert (
                a._pattern_rng.bit_generator.state
                == b._pattern_rng.bit_generator.state
            )
