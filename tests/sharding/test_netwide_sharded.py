"""Sharded controllers behind the netwide SamplingPoint/SketchController path."""

from __future__ import annotations

import random

import pytest

from repro import (
    ExactWindowCounter,
    Memento,
    NetwideConfig,
    NetwideSystem,
    SRC_HIERARCHY,
    ShardedSketch,
    SketchController,
    run_error_experiment,
)
from repro.engine import AlgorithmSpec, ShardingSpec, SketchSpec
from repro.netwide.messages import BatchReport


def controller_spec(shards):
    """Spec template declaring ``shards`` controller ingestion shards
    (NetwideSystem pins the algorithm section from the config)."""
    return SketchSpec(
        algorithm=AlgorithmSpec(family="memento", window=1000, counters=64),
        sharding=ShardingSpec(shards=shards) if shards > 1 else None,
    )


def make_stream(n=4000, seed=31):
    rng = random.Random(seed)
    return [rng.randint(0, 5) if rng.random() < 0.6 else rng.randint(0, 200)
            for _ in range(n)]


class TestShardedSketchController:
    def test_reports_drive_sharded_memento(self):
        window = 500
        sharded = ShardedSketch(
            lambda i: Memento(window=window, counters=32, tau=1.0, seed=i),
            shards=4,
        )
        controller = SketchController(sharded)
        oracle = ExactWindowCounter(sharded.shards[0].effective_window)
        stream = make_stream()
        for start in range(0, len(stream), 40):
            chunk = stream[start : start + 40]
            controller.receive(
                BatchReport(
                    point_id=0,
                    samples=tuple(chunk),
                    covered=len(chunk),
                    size_bytes=64,
                )
            )
            oracle.update_many(chunk)
        assert controller.packets_covered == len(stream)
        block = sharded.shards[0].block_size
        for key in range(6):
            assert controller.query(key) >= oracle.query(key)
            assert controller.query(key) <= oracle.query(key) + 4 * block
        assert set(controller.output(0.08)) <= set(sharded.candidates())

    def test_gap_only_reports_advance_every_shard(self):
        sharded = ShardedSketch(
            lambda i: Memento(window=100, counters=8, tau=1.0, seed=i),
            shards=3,
        )
        controller = SketchController(sharded)
        controller.receive(
            BatchReport(point_id=0, samples=("x", "x"), covered=2, size_bytes=64)
        )
        controller.receive(
            BatchReport(point_id=0, samples=(), covered=250, size_bytes=64)
        )
        # the window slid fully past both samples on every shard
        assert all(shard.updates == 252 for shard in sharded.shards)
        assert sharded.query("x") <= 4 * sharded.shards[0].block_size


class TestNetwideConfigSharding:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardingSpec(shards=0)
        with pytest.raises(TypeError):
            NetwideConfig(shards=2)  # spec= is the only way in

    def test_system_builds_sharded_controller(self):
        config = NetwideConfig(
            points=4, method="batch", window=2000, counters=64,
            seed=1, spec=controller_spec(4),
        )
        system = NetwideSystem(config)
        # the controller hosts the engine facade over the sharded stack
        assert isinstance(system.controller.algorithm.sketch, ShardedSketch)
        assert system.controller.algorithm.num_shards == 4
        assert system.controller.algorithm.query_mode == "route"
        # counter budget is split across shards
        assert system.controller.algorithm.shards[0].k == 16

    def test_hierarchy_uses_sum_mode(self):
        config = NetwideConfig(
            points=2, method="batch", window=2000, counters=200,
            hierarchy=SRC_HIERARCHY, seed=1, spec=controller_spec(2),
        )
        system = NetwideSystem(config)
        algo = system.controller.algorithm
        assert isinstance(algo.sketch, ShardedSketch)
        assert algo.query_mode == "sum"

    def test_single_shard_stays_plain(self):
        config = NetwideConfig(points=2, method="batch", window=2000, seed=1)
        system = NetwideSystem(config)
        assert isinstance(system.controller.algorithm.sketch, Memento)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_error_experiment_runs_sharded(self, shards):
        config = NetwideConfig(
            points=4,
            method="batch",
            budget=2.0,
            window=1500,
            counters=256,
            seed=7,
            spec=controller_spec(shards),
        )
        stream = make_stream(n=4500, seed=7)
        result = run_error_experiment(config, stream, stride=150)
        assert result["observations"] > 0
        assert result["shards"] == float(shards)
        # the sampled controller tracks the hot keys to within the window
        assert result["rmse"] < config.window

    def test_sharded_hhh_output_is_conditioned(self):
        # the sharded controller's output() must run the HHH conditioning
        # (compute_hhh over merged estimates), not dump raw heavy prefixes
        config = NetwideConfig(
            points=2,
            method="batch",
            budget=4.0,
            window=1000,
            counters=400,
            hierarchy=SRC_HIERARCHY,
            seed=5,
            spec=controller_spec(2),
        )
        system = NetwideSystem(config)
        heavy = 0x0A0B0C0D
        stream = [heavy if i % 2 else (i * 2654435761) & 0xFFFFFFFF
                  for i in range(3000)]
        for i, pkt in enumerate(stream):
            system.offer(i % config.points, pkt)
        out = system.output(theta=0.2)
        assert isinstance(out, set)
        assert all(isinstance(p, tuple) and len(p) == 2 for p in out)
        # the heavy /32 must be covered (at this reproduction scale the
        # conservative sqrt(V W) slack admits ancestors too, exactly as
        # the unsharded Algorithm 2 does — conditioning proper is pinned
        # in tests/sharding/test_sharded.py at a slack-dominating scale)
        assert (heavy, 32) in out

    def test_sharded_hhh_error_experiment(self):
        config = NetwideConfig(
            points=3,
            method="batch",
            budget=2.0,
            window=1200,
            counters=300,
            hierarchy=SRC_HIERARCHY,
            seed=3,
            spec=controller_spec(2),
        )
        stream = make_stream(n=3600, seed=3)
        result = run_error_experiment(
            config, stream, query_keys=SRC_HIERARCHY.all_prefixes, stride=200
        )
        assert result["observations"] > 0
        assert result["rmse"] < config.window
