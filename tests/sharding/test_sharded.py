"""ShardedSketch: oracle-identity, error bounds, and merge-on-query."""

from __future__ import annotations

import random

import pytest

from repro import (
    ExactWindowCounter,
    Memento,
    ShardedSketch,
    SpaceSaving,
    shard_index,
)

WINDOW = 130  # deliberately not a divisor of the stream length


def make_stream(n=4000, universe=60, seed=11):
    rng = random.Random(seed)
    # skew: low keys are heavy, tail is light
    return [
        rng.randint(0, 5) if rng.random() < 0.5 else rng.randint(0, universe - 1)
        for _ in range(n)
    ]


def exact_factory(i):
    return ExactWindowCounter(WINDOW)


def wcss_factory(i):
    return Memento(window=WINDOW, counters=16, tau=1.0, seed=1 + i)


class TestFailFastValidation:
    """A bad knob must fail BEFORE the factory constructs any shard —
    a stateful-executor typo must not first build (and leak) S sketches."""

    def counting_factory(self):
        calls = []

        def factory(i):
            calls.append(i)
            return SpaceSaving(8)

        return factory, calls

    @pytest.mark.parametrize(
        "kwargs,exc",
        [
            ({"query_mode": "median"}, ValueError),
            ({"executor": "warp_drive"}, ValueError),
            ({"executor": object()}, TypeError),
            ({"pipeline": "fast"}, TypeError),
            ({"merge_counters": 0}, ValueError),
            ({"shards": 0}, ValueError),
        ],
    )
    def test_factory_never_called_on_bad_knob(self, kwargs, exc):
        factory, calls = self.counting_factory()
        with pytest.raises(exc):
            ShardedSketch(factory, shards=kwargs.pop("shards", 4), **kwargs)
        assert calls == []

    def test_declared_windowed_mismatch_fails(self):
        with pytest.raises(TypeError, match="windowed"):
            ShardedSketch(lambda i: SpaceSaving(8), shards=2, windowed=True)

    def test_declared_windowed_accepted(self):
        sharded = ShardedSketch(exact_factory, shards=2, windowed=True)
        assert sharded.windowed is True
        # declaring False opts a windowed sketch out of gap alignment
        plain = ShardedSketch(exact_factory, shards=2, windowed=False)
        assert plain.windowed is False


class TestRouting:
    def test_shard_index_deterministic_and_in_range(self):
        for key in list(range(100)) + ["flow-a", ("p", 8)]:
            idx = shard_index(key, 8)
            assert 0 <= idx < 8
            assert idx == shard_index(key, 8)

    def test_all_shards_reachable(self):
        owners = {shard_index(k, 4) for k in range(1000)}
        assert owners == {0, 1, 2, 3}

    def test_float_batch_routes_like_scalar(self):
        # a float in an int-led batch must not take the vectorized
        # integer routing path (truncation would diverge from hash())
        batch = ShardedSketch(exact_factory, shards=4)
        scalar = ShardedSketch(exact_factory, shards=4)
        items = [7, 2.5, 2.5, 2.5, 7]
        batch.update_many(items)
        for item in items:
            scalar.update(item)
        assert batch.query(2.5) == scalar.query(2.5) == 3
        assert batch.query(7) == scalar.query(7) == 2

    def test_negative_int_batch_routes_like_scalar(self):
        batch = ShardedSketch(exact_factory, shards=4)
        scalar = ShardedSketch(exact_factory, shards=4)
        items = [-5, -5, 3, -(2**40)]
        batch.update_many(items)
        for item in items:
            scalar.update(item)
        for key in items:
            assert batch.query(key) == scalar.query(key)

    def test_one_shard_ingest_sample_on_interval_sketch(self):
        sharded = ShardedSketch(lambda i: SpaceSaving(8), shards=1)
        sharded.ingest_sample("x")
        sharded.ingest_samples(["x", "y"])
        assert sharded.query("x") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedSketch(exact_factory, shards=0)
        with pytest.raises(ValueError):
            ShardedSketch(exact_factory, shards=2, query_mode="magic")
        with pytest.raises(ValueError):
            ShardedSketch(exact_factory, shards=2, merge_counters=0)
        with pytest.raises(ValueError):
            ShardedSketch(exact_factory, shards=2, executor="warp")


class TestExactDifferential:
    """A sharded exact-window ensemble is result-identical to the
    unsharded oracle — the window-alignment invariant, across frame and
    queue-rotation boundaries (stream length is not a window multiple)."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_batch_identical_to_oracle(self, shards):
        stream = make_stream()
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        sharded = ShardedSketch(exact_factory, shards=shards)
        # uneven chunks so shard plans cross chunk borders mid-run
        for start in range(0, len(stream), 513):
            sharded.update_many(stream[start : start + 513])
        for key in range(60):
            assert sharded.query(key) == oracle.query(key)
        assert sharded.heavy_hitters(0.03) == oracle.heavy_hitters(0.03)
        assert sharded.updates == len(stream)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_scalar_identical_to_oracle(self, shards):
        stream = make_stream(n=700)
        oracle = ExactWindowCounter(WINDOW)
        sharded = ShardedSketch(exact_factory, shards=shards)
        for packet in stream:
            oracle.update(packet)
            sharded.update(packet)
        for key in range(60):
            assert sharded.query(key) == oracle.query(key)

    def test_mixed_scalar_and_batch(self):
        stream = make_stream(n=1500)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        sharded = ShardedSketch(exact_factory, shards=4)
        sharded.update_many(stream[:700])
        for packet in stream[700:800]:
            sharded.update(packet)
        sharded.extend(iter(stream[800:]), chunk_size=97)
        for key in range(60):
            assert sharded.query(key) == oracle.query(key)

    def test_entries_merge_matches_oracle(self):
        stream = make_stream(n=900)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        sharded = ShardedSketch(exact_factory, shards=4)
        sharded.update_many(stream)
        merged = dict((k, est) for k, est, _ in sharded.entries())
        assert merged == dict(oracle.items())


class TestShardedWindowBounds:
    """Sharded approximate sketches respect the merged error bounds."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_wcss_one_sided_error(self, shards):
        stream = make_stream()
        sharded = ShardedSketch(wcss_factory, shards=shards)
        sharded.update_many(stream)
        effective = sharded.shards[0].effective_window
        block = sharded.shards[0].block_size
        oracle = ExactWindowCounter(effective)
        oracle.update_many(stream)
        for key in range(60):
            true = oracle.query(key)
            est = sharded.query(key)
            # per-key traffic lives in one shard, so the shard's own WCSS
            # guarantee applies: overestimate by at most 4 blocks
            assert est >= true
            assert est <= true + 4 * block

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_space_saving_merged_bound(self, shards):
        stream = make_stream()
        m = 32
        sharded = ShardedSketch(lambda i: SpaceSaving(m), shards=shards)
        sharded.update_many(stream)
        from collections import Counter

        truth = Counter(stream)
        total = len(stream)
        for key in range(60):
            est = sharded.query(key)
            # overestimation holds per shard; the merged bound sums:
            # error <= sum_i n_i / m = n / m
            if sharded.shards[shard_index(key, shards)].contains(key):
                assert est >= truth[key]
            assert est <= truth[key] + total / m

    def test_route_mode_interval_heavy_hitters_use_global_bar(self):
        # a 2%-frequency key concentrates on one shard holding ~1/4 of
        # the stream; its *local* bar would wrongly admit it at theta=4%
        rng = random.Random(13)
        stream = ["h"] * 1000 + ["mid"] * 200 + [
            f"t{rng.randint(0, 3000)}" for _ in range(8800)
        ]
        rng.shuffle(stream)
        unsharded = SpaceSaving(256)
        unsharded.update_many(stream)
        sharded = ShardedSketch(lambda i: SpaceSaving(256), shards=4)
        sharded.update_many(stream)
        expected = set(unsharded.heavy_hitters(0.04))
        got = set(sharded.heavy_hitters(0.04))
        assert "h" in got
        assert "mid" not in got
        assert got <= expected | {"h"}

    def test_sampled_memento_recovers_heavy_keys(self):
        rng = random.Random(5)
        stream = [rng.randint(0, 3) if rng.random() < 0.8 else rng.randint(4, 400)
                  for _ in range(6000)]
        sharded = ShardedSketch(
            lambda i: Memento(window=1000, counters=64, tau=0.25, seed=10 + i),
            shards=4,
        )
        sharded.update_many(stream)
        heavy = sharded.heavy_hitters(theta=0.05)
        # each of the four hot keys holds ~20% of the window
        assert set(range(4)) <= set(heavy)


class TestSumModeNonMemento:
    """Sum mode must work for every shard family, not just Memento."""

    def test_space_saving_sum_heavy_hitters(self):
        stream = [0] * 500 + list(range(1, 400))
        random.Random(1).shuffle(stream)
        sharded = ShardedSketch(
            lambda i: SpaceSaving(64), shards=4, query_mode="sum"
        )
        sharded.update_many(stream)
        heavy = sharded.heavy_hitters(theta=0.3)
        assert 0 in heavy
        assert heavy[0] >= 500

    def test_exact_window_sum_heavy_hitters(self):
        stream = make_stream()
        sharded = ShardedSketch(exact_factory, shards=4, query_mode="sum")
        sharded.update_many(stream)
        oracle = ExactWindowCounter(WINDOW)
        oracle.update_many(stream)
        assert sharded.heavy_hitters(0.03) == {
            k: float(v) for k, v in oracle.heavy_hitters(0.03).items()
        }

    def test_output_falls_back_to_heavy_hitters(self):
        sharded = ShardedSketch(
            lambda i: SpaceSaving(16), shards=2, query_mode="sum"
        )
        sharded.update_many([1] * 50 + list(range(2, 20)))
        assert sharded.output(0.3) == set(sharded.heavy_hitters(0.3))


class TestShardedHHHOutput:
    def test_output_conditions_ancestors(self):
        # two heavy /32s inside one /24: the /24's *raw* estimate is the
        # sum (~66% of the window) but its conditioned count is ~0, so
        # the HHH output must keep the /24 out while reporting both
        # /32s.  The window is large enough that the sqrt(S·V·W)
        # coverage slack stays well below the theta·W bar.
        from repro import HMemento, SRC_HIERARCHY

        window = 10_000
        h1, h2 = 0x0A0B0C01, 0x0A0B0C02
        rng = random.Random(4)
        stream = []
        for i in range(2 * window):
            r = rng.random()
            if r < 0.33:
                stream.append(h1)
            elif r < 0.66:
                stream.append(h2)
            else:
                stream.append(rng.getrandbits(32))
        sharded = ShardedSketch(
            lambda i: HMemento(
                window=window,
                hierarchy=SRC_HIERARCHY,
                counters=320,
                tau=1.0,
                seed=20 + i,
            ),
            shards=2,
            query_mode="sum",
        )
        sharded.update_many(stream)
        out = sharded.output(theta=0.3)
        assert (h1, 32) in out
        assert (h2, 32) in out
        # raw estimate of the /24 exceeds the bar, so the un-conditioned
        # fallback would report it; conditioning must not
        assert sharded.query((h1 & 0xFFFFFF00, 24)) > 0.3 * window
        assert (h1 & 0xFFFFFF00, 24) not in out


class TestNominalWindowBar:
    def test_single_input_merge_matches_sketch_heavy_hitters(self):
        # window=100, counters=12 -> effective_window=108; the merged
        # view must threshold against the *requested* 100, like the
        # sketch itself does
        sketch = Memento(window=100, counters=12, tau=1.0, seed=2)
        stream = make_stream(n=400, universe=30, seed=9)
        sketch.update_many(stream)
        from repro import merge_memento

        merged = merge_memento([sketch])
        assert merged.window == sketch.window
        for theta in (0.03, 0.05, 0.1):
            assert merged.heavy_hitters(theta) == pytest.approx(
                sketch.heavy_hitters(theta)
            )


class TestSumModeAndMergeCache:
    def test_sum_mode_upper_bounds(self):
        stream = make_stream(n=3000)
        route = ShardedSketch(wcss_factory, shards=4, query_mode="route")
        summed = ShardedSketch(wcss_factory, shards=4, query_mode="sum")
        route.update_many(stream)
        summed.update_many(stream)
        oracle = ExactWindowCounter(route.shards[0].effective_window)
        oracle.update_many(stream)
        for key in range(20):
            # summing per-shard upper bounds stays an upper bound
            assert summed.query(key) >= oracle.query(key)
            assert summed.query(key) >= route.query(key)
            assert summed.query_lower(key) <= oracle.query(key)

    def test_merged_window_error_bound(self):
        stream = make_stream(n=3000)
        summed = ShardedSketch(wcss_factory, shards=4, query_mode="sum")
        summed.update_many(stream)
        view = summed.merged_window()
        oracle = ExactWindowCounter(summed.shards[0].effective_window)
        oracle.update_many(stream)
        quantum = view.snapshot.quantum
        assert quantum == sum(s.sample_block for s in summed.shards)
        for key in range(20):
            assert view.query(key) >= oracle.query(key)
            assert view.query(key) <= oracle.query(key) + 4 * quantum

    def test_merge_cache_invalidation(self):
        sharded = ShardedSketch(exact_factory, shards=2)
        sharded.update_many([1, 2, 3])
        first = sharded.entries()
        assert sharded.entries() is first  # cached between ingests
        sharded.update(4)
        second = sharded.entries()
        assert second is not first
        assert dict((k, e) for k, e, _ in second)[4] == 1

    def test_merge_counters_caps_rows(self):
        sharded = ShardedSketch(
            exact_factory, shards=4, merge_counters=3
        )
        sharded.update_many(list(range(20)))
        assert len(sharded.entries()) == 3


class TestWindowedIngestSurface:
    def test_ingest_gap_advances_all_shards(self):
        sharded = ShardedSketch(exact_factory, shards=3)
        sharded.update_many([7] * WINDOW)
        assert sharded.query(7) == WINDOW
        sharded.ingest_gap(WINDOW)
        assert sharded.query(7) == 0
        assert sharded.updates == 2 * WINDOW

    def test_ingest_gap_rejected_for_interval_shards(self):
        sharded = ShardedSketch(lambda i: SpaceSaving(8), shards=2)
        with pytest.raises(TypeError):
            sharded.ingest_gap(3)

    def test_ingest_samples_matches_per_shard_semantics(self):
        # externally-sampled packets must land as Full updates at their
        # owner while every other shard advances its window
        sharded = ShardedSketch(wcss_factory, shards=2)
        sharded.ingest_samples(["a"] * 10 + ["b"] * 10)
        sharded.ingest_sample("a")
        expected = [0, 0]
        expected[sharded.shard_of("a")] += 11
        expected[sharded.shard_of("b")] += 10
        assert [s.full_updates for s in sharded.shards] == expected
        assert all(s.updates == 21 for s in sharded.shards)

    def test_one_shard_delegates(self):
        sharded = ShardedSketch(wcss_factory, shards=1)
        plain = wcss_factory(0)
        stream = make_stream(n=1000)
        sharded.update_many(stream)
        plain.update_many(stream)
        for key in range(60):
            assert sharded.query(key) == plain.query(key)
