"""Theorem 5.5 budget model and the Section 5.2 worked example."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BudgetModel, figure4_series


def paper_model(**overrides):
    """The §5.2 configuration: m=10, O=64, E=4, H=5, δ=0.01%, W=1e6."""
    params = dict(
        points=10,
        header=64,
        payload=4,
        budget=1.0,
        window=1_000_000,
        hierarchy_size=5,
        delta=0.0001,
    )
    params.update(overrides)
    return BudgetModel(**params)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points": 0},
            {"payload": 0},
            {"budget": 0.0},
            {"window": 0},
            {"hierarchy_size": 0},
            {"delta": 1.5},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            paper_model(**kwargs)

    def test_rejects_batch_below_one(self):
        with pytest.raises(ValueError):
            paper_model().total_error(0.5)


class TestWorkedExample:
    def test_b1_bound_near_13k(self):
        """§5.2: B=1 ⇒ error ≈ 13K packets (1.3%); flat optimum near b≈40."""
        model = paper_model()
        optimal = model.optimal_batch()
        bound = model.total_error(optimal)
        assert 30 <= optimal <= 50  # paper: 44 — the objective is flat here
        assert 11_000 <= bound <= 14_000
        # the paper's own quoted b is within 0.5% of our optimum's error
        assert model.total_error(44) <= bound * 1.005

    def test_b5_bound_near_5k(self):
        model = paper_model(budget=5.0)
        optimal = model.optimal_batch()
        assert 50 <= optimal <= 75  # paper: 68
        assert 4_500 <= model.total_error(optimal) <= 5_600
        assert model.total_error(68) <= model.total_error(optimal) * 1.005

    def test_larger_window_larger_batch_smaller_relative_error(self):
        """§5.2: W→1e7 grows b* and shrinks the error as a fraction of W."""
        small = paper_model()
        large = paper_model(window=10_000_000)
        assert large.optimal_batch() > small.optimal_batch()
        assert large.relative_error(large.optimal_batch()) < small.relative_error(
            small.optimal_batch()
        )

    def test_2d_hierarchy_larger_error_and_batch(self):
        """§5.2: H 5→25 slightly larger error, higher optimal batch."""
        h5 = paper_model()
        h25 = paper_model(hierarchy_size=25)
        assert h25.total_error(h25.optimal_batch()) > h5.total_error(
            h5.optimal_batch()
        )
        assert h25.optimal_batch() >= h5.optimal_batch()


class TestModelStructure:
    def test_error_decomposition(self):
        model = paper_model()
        b = 40
        assert model.total_error(b) == pytest.approx(
            model.delay_error(b) + model.sampling_error(b)
        )

    def test_delay_error_matches_theorem_5_4(self):
        """delay = m·b/tau with tau = B·b/(O+E·b) ⇒ m(O+Eb)/B."""
        model = paper_model()
        b = 25
        tau = model.tau(b, clamp=False)
        assert model.delay_error(b) == pytest.approx(model.points * b / tau)

    def test_tau_clamping(self):
        model = paper_model(budget=100.0)
        assert model.tau(100, clamp=True) == 1.0
        assert model.tau(100, clamp=False) > 1.0

    def test_sample_is_batch_one(self):
        rows = figure4_series(budgets=(1.0,), points=10, window=10**6)
        model = paper_model()
        assert rows[0]["sample_total"] == pytest.approx(model.total_error(1))

    @given(st.floats(min_value=0.25, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_optimum_beats_neighbours(self, budget):
        model = paper_model(budget=budget)
        b = model.optimal_batch()
        best = model.total_error(b)
        assert best <= model.total_error(b + 1) + 1e-9
        if b > 1:
            assert best <= model.total_error(b - 1) + 1e-9

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_delay_increases_sampling_decreases_with_b(self, b):
        model = paper_model()
        assert model.delay_error(b + 1) > model.delay_error(b)
        assert model.sampling_error(b + 1) < model.sampling_error(b)

    def test_more_budget_less_error(self):
        low = paper_model(budget=0.5)
        high = paper_model(budget=4.0)
        assert high.total_error(high.optimal_batch()) < low.total_error(
            low.optimal_batch()
        )


def seeded_models(n=300, seed=23):
    """Budget models spread over every parameter, with a max batch each."""
    rng = random.Random(seed)
    for _ in range(n):
        model = BudgetModel(
            points=rng.choice((1, 2, 10, 50)),
            header=rng.choice((0, 20, 64)),
            payload=rng.choice((1, 4, 8)),
            budget=10 ** rng.uniform(-1.5, 2.0),
            window=int(10 ** rng.uniform(3.0, 8.0)),
            hierarchy_size=rng.choice((1, 5, 25, 33)),
            delta=rng.choice((0.1, 0.01, 1e-4)),
        )
        yield model, rng.choice((1, 2, 7, 100, 10_000, 1_000_000))


class TestOptimalBatch:
    def test_is_the_integer_argmin(self):
        for model, max_batch in seeded_models():
            b = model.optimal_batch(max_batch=max_batch)
            assert 1 <= b <= max_batch, (model, max_batch, b)
            f = model.total_error
            if b > 1:
                assert f(b) <= f(b - 1), (model, max_batch, b)
            if b < max_batch:
                assert f(b) <= f(b + 1), (model, max_batch, b)

    def test_max_batch_one(self):
        assert paper_model().optimal_batch(max_batch=1) == 1

    def test_optimum_past_max_batch_returns_max_batch(self):
        model = paper_model(budget=100.0, window=100_000_000)
        assert model.optimal_batch() > 50
        assert model.optimal_batch(max_batch=50) == 50

    def test_rejects_max_batch_below_one(self):
        with pytest.raises(ValueError):
            paper_model().optimal_batch(max_batch=0)

    @pytest.mark.parametrize(
        "window,batch,tau",
        [(100_000, 20, 0.1388888888888889), (10_000, 10, 0.09615384615384616)],
    )
    def test_netwide_bench_configuration(self, window, batch, tau):
        """The hhh-netwide deployment: 10 points, 1 byte/packet, δ = 0.001."""
        model = paper_model(window=window, delta=0.001)
        assert model.optimal_batch() == batch
        assert model.tau(batch) == pytest.approx(tau, rel=1e-15)


class TestFigure4Series:
    def test_columns_and_orderings(self):
        rows = figure4_series(budgets=(0.5, 1.0, 2.0))
        assert len(rows) == 3
        for row in rows:
            # the optimal batch is no worse than either fixed strategy
            assert row["batch_opt_total"] <= row["sample_total"] + 1e-9
            assert row["batch_opt_total"] <= row["batch100_total"] + 1e-9
            # sample has the smallest delay error of the three (Figure 4)
            assert row["sample_delay"] <= row["batch100_delay"]

    def test_gap_narrows_with_budget(self):
        """Figure 4: for larger B the optimal b approaches 100."""
        rows = figure4_series(budgets=(0.5, 10.0))
        assert rows[1]["optimal_batch"] > rows[0]["optimal_batch"]

    def test_summary_keys(self):
        summary = paper_model().summary()
        assert {
            "budget",
            "batch",
            "tau",
            "delay_error",
            "sampling_error",
            "total_error",
            "relative_error",
        } <= set(summary)
