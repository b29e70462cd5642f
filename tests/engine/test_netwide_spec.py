"""NetwideConfig spec field: engine-built controllers."""

from __future__ import annotations

import pickle

import pytest

from repro import (
    HMemento,
    Memento,
    SRC_HIERARCHY,
    NetwideConfig,
    NetwideSystem,
    generate_trace,
    run_error_experiment,
)
from repro.engine import (
    AlgorithmSpec,
    HierarchySpec,
    ShardingSpec,
    SketchSpec,
    build_engine,
)
from repro.traffic.synth import DATACENTER


@pytest.fixture(scope="module")
def stream():
    return generate_trace(DATACENTER, 9000, seed=17).packets_1d()


def drive(system, stream) -> None:
    for t, packet in enumerate(stream):
        system.offer(t % system.config.points, packet)


def spec_template(shards):
    return SketchSpec(
        algorithm=AlgorithmSpec(
            family="memento", window=2000, counters=128, seed=13
        ),
        sharding=ShardingSpec(shards=shards),
    )


class TestDeprecationShims:
    """The legacy ``shards``/``shard_executor``/``shard_pipeline`` shims
    are gone: ``spec=`` is the only way to shard the controller."""

    def test_defaults_do_not_warn(self, recwarn):
        NetwideConfig(window=2000)
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]

    def test_single_shard_legacy_stays_plain(self):
        # without a spec the controller is one plain sketch
        config = NetwideConfig(window=2000, counters=64, seed=5)
        assert config.spec.algorithm.family == "memento"
        assert config.spec.sharding is None
        assert "pipeline" not in config.spec.to_dict()
        assert config.shards == 1

    def test_mixing_spec_and_legacy_knobs_rejected(self):
        for knob, value in (
            ("shards", 8),
            ("shard_executor", "persistent"),
            ("shard_pipeline", True),
        ):
            with pytest.raises(TypeError, match=knob):
                NetwideConfig(window=2000, **{knob: value})
            with pytest.raises(TypeError, match=knob):
                NetwideConfig(
                    window=2000, spec=spec_template(shards=2), **{knob: value}
                )

    def test_explicit_spec_backfills_legacy_fields(self):
        # config.shards readers derive the count from spec.sharding
        config = NetwideConfig(
            window=2000, counters=64, spec=spec_template(shards=3)
        )
        assert config.shards == 3


class TestEngineBuiltControllers:
    def test_resolved_spec_rebuilds_controller(self, stream):
        """A recorded resolved spec alone reproduces the controller state."""
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=64,
            seed=7,
            spec=spec_template(shards=2),
        )
        with NetwideSystem(config) as system:
            drive(system, stream)
            resolved = system.resolved_spec
            # replay the exact same report stream into a spec-built engine
            with build_engine(resolved) as engine:
                replay = NetwideSystem(config)
                # feed through fresh points so sampling decisions replay
                for t, packet in enumerate(stream):
                    report = replay.points[t % config.points].observe(packet)
                    if report is None:
                        continue
                    samples = report.samples
                    gap = report.covered - len(samples)
                    if len(samples) == 1:
                        engine.ingest_sample(samples[0])
                    elif samples:
                        engine.ingest_samples(samples)
                    if gap > 0:
                        engine.ingest_gap(gap)
                replay.close()
                engine.flush()
                system.controller.algorithm.flush()
                assert [
                    pickle.dumps(s) for s in engine.sketch.shards
                ] == [
                    pickle.dumps(s)
                    for s in system.controller.algorithm.sketch.shards
                ]

    def test_hierarchy_resolution(self, stream):
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=200,
            hierarchy=SRC_HIERARCHY,
            seed=3,
        )
        with NetwideSystem(config) as system:
            assert system.resolved_spec.algorithm.family == "h_memento"
            assert system.resolved_spec.hierarchy == HierarchySpec("src")
            assert isinstance(system.controller.algorithm.sketch, HMemento)

    def test_plain_memento_resolution(self):
        with NetwideSystem(
            NetwideConfig(points=2, method="sample", window=2000, seed=3)
        ) as system:
            assert system.resolved_spec.algorithm.family == "memento"
            assert system.resolved_spec.algorithm.tau == min(1.0, system.tau)
            assert isinstance(system.controller.algorithm.sketch, Memento)

    def test_counter_budget_split_recorded(self):
        config = NetwideConfig(
            points=2,
            method="batch",
            window=2000,
            counters=100,
            seed=3,
            spec=spec_template(shards=4),
        )
        with NetwideSystem(config) as system:
            assert system.resolved_spec.algorithm.counters == 25
            assert system.controller.algorithm.shards[0].k == 25

    def test_aggregate_has_no_resolved_spec(self):
        with NetwideSystem(
            NetwideConfig(points=2, method="aggregate", window=2000)
        ) as system:
            assert system.resolved_spec is None

    def test_error_experiment_records_spec(self, stream):
        config = NetwideConfig(
            points=2, method="batch", window=2000, counters=64, seed=7
        )
        summary = run_error_experiment(config, stream[:4000], stride=200)
        recorded = SketchSpec.from_dict(summary["spec"])
        assert recorded.algorithm.family == "memento"
        assert recorded.algorithm.tau == summary["tau"] or (
            summary["tau"] > 1 and recorded.algorithm.tau == 1.0
        )
