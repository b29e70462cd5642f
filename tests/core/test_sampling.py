"""Sampler behaviour: rates, determinism, and interface conformance."""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BernoulliSampler,
    FixedSampler,
    GeometricSampler,
    TableSampler,
    make_sampler,
)
from repro.core.sampling import FALLBACK_CHUNK, draw_decision_array

ALL_SAMPLERS = [BernoulliSampler, TableSampler, GeometricSampler]

#: written by the layout that pickled both copies of the table (the
#: default slots state): ``TableSampler(0.3, seed=7, table_size=97)``
#: after :func:`advance_fixture_sampler`
TWO_COPY_TABLE_SAMPLER = Path(__file__).parent / "data" / "table_sampler_two_copies.pkl"


def advance_fixture_sampler(sampler):
    """The draws the fixture sampler had made when it was pickled; its
    table wrapped once, so the re-roll consumed the RNG."""
    for _ in range(150):
        sampler.should_sample()
    sampler.decision_array(20)
    return sampler


def mixed_stream(sampler):
    """Scalar and columnar draws across several table wraps."""
    out = []
    for size in (3, 90, 1, 400, 17, 1000):
        out.extend(sampler.decision_array(size).tolist())
        out.extend(sampler.should_sample() for _ in range(size % 7))
    return out


@pytest.mark.parametrize("cls", ALL_SAMPLERS)
class TestCommonBehaviour:
    def test_tau_one_always_samples(self, cls):
        sampler = cls(1.0, seed=1)
        assert all(sampler.should_sample() for _ in range(500))

    def test_rejects_invalid_tau(self, cls):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                cls(bad)

    def test_empirical_rate_close_to_tau(self, cls):
        tau = 0.125
        sampler = cls(tau, seed=42)
        n = 40_000
        hits = sum(sampler.should_sample() for _ in range(n))
        rate = hits / n
        # 6-sigma band for a Bernoulli(tau) sum
        sigma = (tau * (1 - tau) / n) ** 0.5
        assert abs(rate - tau) < 6 * sigma + 0.01

    def test_seeded_reproducibility(self, cls):
        a = cls(0.3, seed=9)
        b = cls(0.3, seed=9)
        assert [a.should_sample() for _ in range(200)] == [
            b.should_sample() for _ in range(200)
        ]


class TestTableSampler:
    def test_wraps_without_error(self):
        sampler = TableSampler(0.5, seed=3, table_size=16)
        decisions = [sampler.should_sample() for _ in range(200)]
        assert any(decisions) and not all(decisions)

    def test_rejects_bad_table_size(self):
        with pytest.raises(ValueError):
            TableSampler(0.5, table_size=0)


class TestGeometricSampler:
    def test_small_tau_long_gaps(self):
        sampler = GeometricSampler(0.001, seed=5)
        hits = sum(sampler.should_sample() for _ in range(20_000))
        assert hits < 100  # expect ~20

    def test_gap_distribution_mean(self):
        tau = 0.05
        sampler = GeometricSampler(tau, seed=11)
        gaps = []
        gap = 0
        for _ in range(200_000):
            if sampler.should_sample():
                gaps.append(gap)
                gap = 0
            else:
                gap += 1
        mean_gap = np.mean(gaps)
        # E[gap] = (1 - tau)/tau = 19
        assert abs(mean_gap - (1 - tau) / tau) < 1.5


class TestFixedSampler:
    def test_replays_then_defaults(self):
        sampler = FixedSampler([True, False, True], default=False)
        assert [sampler.should_sample() for _ in range(5)] == [
            True,
            False,
            True,
            False,
            False,
        ]

    def test_empty_defaults_true(self):
        sampler = FixedSampler()
        assert sampler.should_sample()


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [("table", TableSampler), ("geometric", GeometricSampler), ("bernoulli", BernoulliSampler)],
    )
    def test_builds_by_name(self, name, cls):
        assert isinstance(make_sampler(0.5, method=name, seed=1), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            make_sampler(0.5, method="magic")


class TestSampleBlock:
    """A block of ``n`` decisions from ``decision_array(n)`` must consume
    the RNG exactly as ``n`` scalar ``should_sample()`` calls — the batch
    engine's core contract."""

    @pytest.mark.parametrize("method", ["table", "geometric", "bernoulli"])
    @pytest.mark.parametrize("tau", [0.01, 0.3, 0.9, 1.0])
    def test_matches_scalar_stream(self, method, tau):
        scalar = make_sampler(tau, method=method, seed=5)
        block = make_sampler(tau, method=method, seed=5)
        want = [scalar.should_sample() for _ in range(2000)]
        got = []
        for size in (1, 7, 0, 64, 251, 999, 678):
            got.extend(block.decision_array(size).tolist())
        assert got == want
        # and the samplers stay in sync afterwards
        assert block.decision_array(50).tolist() == [
            scalar.should_sample() for _ in range(50)
        ]

    @pytest.mark.parametrize("method", ["table", "geometric", "bernoulli"])
    def test_block_crossing_table_wrap(self, method):
        # small blocks that straddle the end of a 64-bit table take the
        # wrap re-roll path mid-block, over and over
        kwargs = {"table_size": 64} if method == "table" else {}
        cls = {
            "table": TableSampler,
            "geometric": GeometricSampler,
            "bernoulli": BernoulliSampler,
        }[method]
        scalar = cls(0.4, seed=9, **kwargs)
        block = cls(0.4, seed=9, **kwargs)
        want = [scalar.should_sample() for _ in range(500)]
        got = []
        for _ in range(10):
            got.extend(block.decision_array(50).tolist())
        assert got == want

    def test_empty_block(self):
        sampler = make_sampler(0.5, method="table", seed=1)
        out = sampler.decision_array(0)
        assert out.dtype == np.bool_ and out.size == 0

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FixedSampler([True]).decision_array(-1)

    def test_fixed_sampler_replays_and_pads(self):
        sampler = FixedSampler([True, False, True], default=False)
        assert sampler.decision_array(5).tolist() == [
            True, False, True, False, False,
        ]
        assert sampler.decision_array(2).tolist() == [False, False]
        # the column and the scalar calls walk one shared script
        mixed = FixedSampler([True, False, False, True], default=True)
        assert mixed.decision_array(2).tolist() == [True, False]
        assert mixed.should_sample() is False
        assert mixed.decision_array(3).tolist() == [True, True, True]

    def test_block_frequency_approximates_tau(self):
        sampler = make_sampler(0.2, method="bernoulli", seed=3)
        decisions = sampler.decision_array(20_000)
        assert 0.17 < decisions.mean() < 0.23


class TestDecisionArray:
    """The column form itself: a numpy bool array that can be mixed
    freely with scalar ``should_sample()`` calls on one random stream —
    the columnar kernel's input contract."""

    @pytest.mark.parametrize("method", ["table", "geometric", "bernoulli"])
    @pytest.mark.parametrize("tau", [0.01, 0.3, 0.9, 1.0])
    def test_matches_scalar_and_block_streams(self, method, tau):
        # blocks interleaved with scalar calls walk the scalar stream
        scalar = make_sampler(tau, method=method, seed=5)
        mixed = make_sampler(tau, method=method, seed=5)
        got = []
        for size in (1, 7, 0, 64, 251, 999, 678):
            column = mixed.decision_array(size)
            assert isinstance(column, np.ndarray) and column.dtype == np.bool_
            got.extend(column.tolist())
            got.append(mixed.should_sample())
        assert got == [scalar.should_sample() for _ in range(len(got))]

    @pytest.mark.parametrize("method", ["table", "geometric", "bernoulli"])
    def test_crossing_table_wrap(self, method):
        kwargs = {"table_size": 64} if method == "table" else {}
        cls = {
            "table": TableSampler,
            "geometric": GeometricSampler,
            "bernoulli": BernoulliSampler,
        }[method]
        scalar = cls(0.4, seed=9, **kwargs)
        columnar = cls(0.4, seed=9, **kwargs)
        want = [scalar.should_sample() for _ in range(500)]
        assert columnar.decision_array(500).tolist() == want

    def test_empty_consumes_nothing(self):
        sampler = make_sampler(0.5, method="geometric", seed=1)
        fresh = make_sampler(0.5, method="geometric", seed=1)
        assert sampler.decision_array(0).size == 0
        assert sampler.decision_array(40).tolist() == fresh.decision_array(40).tolist()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_sampler(0.5, method="table", seed=1).decision_array(-1)

    def test_fixed_sampler_scripted(self):
        sampler = FixedSampler([True, False, True], default=False)
        assert sampler.decision_array(5).tolist() == [
            True, False, True, False, False,
        ]

    def test_geometric_interleaved_scalar_and_columnar(self):
        # mixing feeding styles must consume one shared skip stream
        mixed = GeometricSampler(0.2, seed=13)
        scalar = GeometricSampler(0.2, seed=13)
        got = []
        for step, size in enumerate((30, 17, 55, 90)):
            got.extend(mixed.decision_array(size).tolist())
            got.append(mixed.should_sample())
        want = [scalar.should_sample() for _ in range(len(got))]
        assert got == want


class TestDrawDecisionArray:
    """Module-level ladder, first rung: the sampler's native
    ``decision_array``."""

    def test_prefers_native_decision_array(self):
        sampler = make_sampler(0.5, method="table", seed=3)
        fresh = make_sampler(0.5, method="table", seed=3)
        assert (
            draw_decision_array(sampler, 100).tolist()
            == fresh.decision_array(100).tolist()
        )


class TestDrawDecisions:
    """Module-level ladder, second rung: ``draw_decision_array`` streams
    scalar ``should_sample()`` calls for custom sampler objects that
    only honour the documented scalar contract."""

    class LegacySampler:
        """A user-supplied sampler with only the documented scalar API."""

        def __init__(self):
            self.calls = 0

        def should_sample(self):
            self.calls += 1
            return self.calls % 3 == 0

    def test_fallback_without_sample_block(self):
        sampler = self.LegacySampler()
        decisions = draw_decision_array(sampler, 9)
        assert decisions.dtype == np.bool_
        assert decisions.tolist() == [False, False, True] * 3
        assert sampler.calls == 9

    def test_fallback_zero_draws_nothing(self):
        sampler = self.LegacySampler()
        assert draw_decision_array(sampler, 0).size == 0
        assert sampler.calls == 0

    def test_fallback_streams_large_n_through_chunks(self):
        # the scalar fallback streams through iter_chunks (bounded
        # intermediate state) instead of materializing one giant
        # comprehension — and still draws every decision exactly once
        sampler = self.LegacySampler()
        n = FALLBACK_CHUNK * 2 + 17
        decisions = draw_decision_array(sampler, n)
        assert sampler.calls == n
        assert decisions.size == n
        assert decisions[:9].tolist() == [False, False, True] * 3
        assert int(decisions.sum()) == n // 3

    def test_fallback_rejects_negative(self):
        sampler = self.LegacySampler()
        with pytest.raises(ValueError, match="non-negative"):
            draw_decision_array(sampler, -1)
        assert sampler.calls == 0

    def test_memento_accepts_legacy_sampler(self):
        from repro import Memento

        sketch = Memento(window=32, counters=4, tau=0.5,
                         sampler=self.LegacySampler())
        sketch.update_many(list(range(9)))
        assert sketch.updates == 9
        assert sketch.full_updates == 3


class TestSampleBlockZero:
    """A zero-length decision column must be an RNG no-op on every
    sampler."""

    @pytest.mark.parametrize(
        "sampler",
        [
            BernoulliSampler(0.4, seed=2),
            TableSampler(0.4, seed=2),
            GeometricSampler(0.4, seed=2),
            FixedSampler([True, False]),
        ],
        ids=["bernoulli", "table", "geometric", "fixed"],
    )
    def test_empty_block_consumes_nothing(self, sampler):
        assert sampler.decision_array(0).size == 0
        # the next decisions match a fresh same-seed sampler's stream
        if isinstance(sampler, FixedSampler):
            assert sampler.decision_array(2).tolist() == [True, False]
            return
        fresh = type(sampler)(0.4, seed=2)
        assert (
            sampler.decision_array(20).tolist()
            == fresh.decision_array(20).tolist()
        )


class TestTableSamplerPickle:
    """A pickle carries the table once, packed, and restores a sampler
    that continues the live one's stream."""

    @pytest.mark.parametrize("tau", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("table_size", [97, 1 << 16])
    def test_restored_continues_the_live_stream(self, tau, table_size):
        live = TableSampler(tau, seed=4, table_size=table_size)
        live.decision_array(table_size - 5)  # the next block wraps
        restored = pickle.loads(pickle.dumps(live))
        assert restored.tau == live.tau and restored.table_size == table_size
        np.testing.assert_array_equal(restored._bits, live._bits)
        assert not restored._bits.flags.writeable
        assert mixed_stream(restored) == mixed_stream(live)

    def test_default_table_pickles_packed(self):
        # 65,536 bits in 8 KB, not a bool column plus a list of bools
        assert len(pickle.dumps(TableSampler(0.0625, seed=1))) < 10_000

    def test_two_copy_state_restores(self):
        old = pickle.loads(TWO_COPY_TABLE_SAMPLER.read_bytes())
        again = pickle.loads(pickle.dumps(old))  # re-pickled packed
        live = advance_fixture_sampler(TableSampler(0.3, seed=7, table_size=97))
        want = mixed_stream(live)
        assert old._table is None and not old._bits.flags.writeable
        assert mixed_stream(old) == want
        assert mixed_stream(again) == want


def table_state(**changes):
    """A packed ``TableSampler`` state with some fields replaced."""
    sampler = TableSampler(0.5, seed=3, table_size=1 << 16)
    sampler.decision_array(100)
    return {**sampler.__getstate__(), **changes}


def restore(state):
    sampler = TableSampler.__new__(TableSampler)
    sampler.__setstate__(state)
    return sampler


class TestTableSamplerRestoreValidation:
    """A restored state must describe a whole table and a position on
    it; anything else is refused at load, not on first use."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            # 100 of the 8,192 bytes would unpack zero-padded
            ({"bits": bytes(100)}, "100 packed bytes"),
            ({"bits": bytes(8193)}, "8193 packed bytes"),
            ({"table_size": 1 << 17}, "8192 packed bytes"),
            ({"pos": 1 << 16}, "outside"),
            ({"pos": -1}, "outside"),
            ({"tau": 0.0}, "tau"),
            ({"tau": 1.5}, "tau"),
            ({"tau": float("nan")}, "tau"),
        ],
        ids=[
            "short-bits",
            "long-bits",
            "size-past-bits",
            "pos-past-table",
            "negative-pos",
            "tau-zero",
            "tau-above-one",
            "tau-nan",
        ],
    )
    def test_inconsistent_state_is_refused(self, changes, message):
        with pytest.raises(ValueError, match=message):
            restore(table_state(**changes))

    def test_last_position_restores(self):
        sampler = restore(table_state(pos=(1 << 16) - 1))
        sampler.should_sample()  # wraps: a re-rolled position
        assert 0 <= sampler._pos < 1 << 16

    def test_uneven_table_packs_to_whole_bytes(self):
        live = TableSampler(0.3, seed=2, table_size=97)
        state = pickle.loads(pickle.dumps(live.__getstate__()))  # own RNG
        assert len(state["bits"]) == 13
        assert mixed_stream(restore(state)) == mixed_stream(live)


class TestScalarTableIsLazy:
    """Batch-fed sketches hold the table once: the scalar path's list
    is built only by the first ``should_sample`` call."""

    SPEC = {
        "algorithm": {
            "family": "memento",
            "window": 4096,
            "counters": 64,
            "tau": 0.25,
            "seed": 7,
        }
    }

    def test_batch_feed_and_pickle_never_build_the_list(self):
        from repro.engine import build_engine

        stream = [(i * 7919) % 500 for i in range(20_000)]
        with build_engine(self.SPEC) as engine, build_engine(self.SPEC) as fresh:
            engine.update_many(stream)
            live = engine._sketch._sampler
            assert isinstance(live, TableSampler) and live._table is None
            restored = pickle.loads(pickle.dumps(engine._sketch))._sampler
            assert restored._table is None

            restored.should_sample()
            assert restored._table == restored._bits.tolist()
            assert live._table is None  # the restored copy built its own

            # the same draws as a sampler that never left its engine
            reference = fresh._sketch._sampler
            reference.decision_array(len(stream))
            reference.should_sample()
            assert mixed_stream(restored) == mixed_stream(reference)

    def test_decision_blocks_are_read_only_views(self):
        sampler = TableSampler(0.5, seed=1)
        block = sampler.decision_array(64)
        assert block.base is sampler._bits and not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = not block[0]
