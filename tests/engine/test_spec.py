"""SketchSpec serialization: round-trips, validation, spec files."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.engine import (
    AlgorithmSpec,
    HierarchySpec,
    ServiceSpec,
    ShardingSpec,
    SketchSpec,
    build_engine,
    hierarchy_spec_for,
    registered_algorithms,
)
from repro.hierarchy.domain import SRC_DST_HIERARCHY, SRC_HIERARCHY

SPECS_DIR = Path(__file__).parent.parent.parent / "specs"

#: one representative algorithm section per registered family
ALGORITHM_SECTIONS = {
    "memento": {"family": "memento", "window": 4096, "counters": 64,
                "tau": 0.25, "seed": 11},
    "h_memento": {"family": "h_memento", "window": 4096, "counters": 320,
                  "tau": 0.5, "seed": 11},
    "space_saving": {"family": "space_saving", "counters": 64},
    "mst": {"family": "mst", "counters": 64},
    "window_baseline": {"family": "window_baseline", "window": 4096,
                        "counters": 64},
    "rhhh": {"family": "rhhh", "counters": 64, "seed": 11},
    "exact": {"family": "exact", "window": 4096},
}

HIERARCHICAL = {"h_memento", "mst", "window_baseline", "rhhh"}


def spec_payload(family: str, sharded: bool = False, pipelined: bool = False):
    payload = {"algorithm": dict(ALGORITHM_SECTIONS[family])}
    if family in HIERARCHICAL:
        payload["hierarchy"] = {"kind": "src"}
    if sharded:
        payload["sharding"] = {"shards": 3, "executor": "serial"}
    if pipelined:
        # the removed front-end's defaults, as old spec files carry them
        payload["pipeline"] = {"buffer_size": 4096, "depth": 2}
    return payload


class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(ALGORITHM_SECTIONS))
    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_dict_round_trip_registry_matrix(self, family, sharded, pipelined):
        payload = spec_payload(family, sharded, pipelined)
        if pipelined and not sharded:
            # a legacy pipeline section parses only next to sharding
            with pytest.raises(ValueError, match="pipeline section was removed"):
                SketchSpec.from_dict(payload)
            return
        spec = SketchSpec.from_dict(payload)
        assert "pipeline" not in spec.to_dict()
        assert SketchSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("family", sorted(ALGORITHM_SECTIONS))
    def test_json_round_trip(self, family):
        spec = SketchSpec.from_dict(spec_payload(family, sharded=True))
        assert SketchSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = SketchSpec.from_dict(
            spec_payload("memento", sharded=True, pipelined=True)
        )
        path = spec.to_file(tmp_path / "spec.json")
        assert SketchSpec.from_file(path) == spec

    def test_matrix_covers_every_registered_family(self):
        assert set(ALGORITHM_SECTIONS) == set(registered_algorithms())


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown algorithm family"):
            SketchSpec.from_dict({"algorithm": {"family": "nope"}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown spec section"):
            SketchSpec.from_dict(
                {**spec_payload("memento"), "shards": 4}
            )

    def test_unknown_algorithm_key(self):
        payload = spec_payload("memento")
        payload["algorithm"]["widnow"] = 9
        with pytest.raises(ValueError, match="unknown algorithm key"):
            SketchSpec.from_dict(payload)

    def test_missing_algorithm_section(self):
        with pytest.raises(ValueError, match="missing the 'algorithm'"):
            SketchSpec.from_dict({})

    def test_window_required(self):
        with pytest.raises(ValueError, match="requires algorithm.window"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "memento", "counters": 64}}
            )

    def test_window_forbidden_for_interval_family(self):
        with pytest.raises(ValueError, match="has no window"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "space_saving", "counters": 64,
                               "window": 100}}
            )

    def test_counters_xor_epsilon(self):
        with pytest.raises(ValueError, match="exactly one of"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "memento", "window": 100,
                               "counters": 64, "epsilon": 0.1}}
            )

    def test_exact_takes_no_counters(self):
        with pytest.raises(ValueError, match="is exact"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "exact", "window": 100,
                               "counters": 64}}
            )

    def test_hierarchy_required(self):
        with pytest.raises(ValueError, match="requires a hierarchy"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "mst", "counters": 64}}
            )

    def test_hierarchy_forbidden(self):
        with pytest.raises(ValueError, match="not hierarchical"):
            SketchSpec.from_dict(
                {"algorithm": {"family": "memento", "window": 100,
                               "counters": 64},
                 "hierarchy": {"kind": "src"}}
            )

    def test_bad_executor_name(self):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "warp_drive"
        with pytest.raises(ValueError, match="executor must be one of"):
            SketchSpec.from_dict(payload)

    def test_bad_query_mode(self):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["query_mode"] = "median"
        with pytest.raises(ValueError, match="query_mode"):
            SketchSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("algorithm", "tau", 0.0),
            ("algorithm", "tau", 1.5),
            ("algorithm", "epsilon", 1.0),
            ("algorithm", "window", -5),
            ("sharding", "shards", 0),
            ("pipeline", "buffer_size", 0),
            ("pipeline", "depth", -1),
        ],
    )
    def test_range_checks(self, section, field, value):
        payload = spec_payload("memento", sharded=True, pipelined=True)
        payload[section][field] = value
        with pytest.raises(ValueError):
            SketchSpec.from_dict(payload)

    def test_bad_transport_name(self):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "persistent"
        payload["sharding"]["transport"] = "warp"
        with pytest.raises(ValueError, match="transport must be 'shm' or null"):
            SketchSpec.from_dict(payload)

    def test_pipe_transport_was_removed(self):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "persistent"
        payload["sharding"]["transport"] = "pipe"
        with pytest.raises(ValueError, match="transport 'pipe' was removed"):
            SketchSpec.from_dict(payload)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_removed_executor_names(self, executor):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = executor
        with pytest.raises(ValueError, match="executor must be one of"):
            SketchSpec.from_dict(payload)

    @pytest.mark.parametrize("executor", ["serial"])
    def test_transport_requires_persistent_executor(self, executor):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = executor
        payload["sharding"]["transport"] = "shm"
        with pytest.raises(ValueError, match="persistent-executor knob"):
            SketchSpec.from_dict(payload)

    def test_invalid_json_text(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            SketchSpec.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read spec file"):
            SketchSpec.from_file(tmp_path / "absent.json")


class TestHierarchySpec:
    def test_named_resolution(self):
        assert HierarchySpec("src").resolve() is SRC_HIERARCHY
        assert HierarchySpec("src_dst").resolve() is SRC_DST_HIERARCHY

    def test_custom_cannot_resolve(self):
        with pytest.raises(ValueError, match="custom"):
            HierarchySpec("custom").resolve()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="hierarchy kind"):
            HierarchySpec("srcdst")

    def test_hierarchy_spec_for(self):
        assert hierarchy_spec_for(None) is None
        assert hierarchy_spec_for(SRC_HIERARCHY) == HierarchySpec("src")
        assert hierarchy_spec_for(SRC_DST_HIERARCHY) == HierarchySpec("src_dst")
        custom = object()
        assert hierarchy_spec_for(custom) == HierarchySpec("custom")


class TestServiceSpec:
    def payload(self, **service):
        out = spec_payload("memento")
        out["service"] = {"port": 0, **service}
        return out

    def test_round_trip(self):
        spec = SketchSpec.from_dict(
            self.payload(
                unix_socket="/tmp/repro.sock",
                checkpoint_dir="ckpts",
                checkpoint_interval=1000,
                checkpoint_retain=3,
                max_inflight_bytes=1 << 20,
            )
        )
        assert spec.service == ServiceSpec(
            port=0,
            unix_socket="/tmp/repro.sock",
            checkpoint_dir="ckpts",
            checkpoint_interval=1000,
            checkpoint_retain=3,
            max_inflight_bytes=1 << 20,
        )
        assert SketchSpec.from_dict(spec.to_dict()) == spec
        assert SketchSpec.from_json(spec.to_json()) == spec

    def test_section_omitted_when_absent(self):
        spec = SketchSpec.from_dict(spec_payload("memento"))
        assert spec.service is None
        assert "service" not in spec.to_dict()

    def test_needs_a_listener(self):
        with pytest.raises(ValueError, match="at least one listener"):
            ServiceSpec(port=None, unix_socket=None)

    def test_port_range(self):
        with pytest.raises(ValueError, match="port"):
            ServiceSpec(port=70000)
        with pytest.raises(ValueError, match="port"):
            ServiceSpec(port=-1)

    def test_unix_socket_alone_is_enough(self):
        spec = ServiceSpec(unix_socket="/tmp/repro.sock")
        assert spec.port is None

    @pytest.mark.parametrize(
        "field,value",
        [
            ("checkpoint_interval", 0),
            ("checkpoint_retain", 0),
            ("max_inflight_bytes", -1),
        ],
    )
    def test_range_checks(self, field, value):
        payload = self.payload(**{field: value})
        with pytest.raises(ValueError, match=field):
            SketchSpec.from_dict(payload)

    def test_unknown_service_key(self):
        with pytest.raises(ValueError, match="unknown service key"):
            SketchSpec.from_dict(self.payload(prot=9))

    def test_unknown_section_error_lists_service(self):
        with pytest.raises(ValueError, match="'service'"):
            SketchSpec.from_dict({**spec_payload("memento"), "nope": {}})

    def test_build_engine_ignores_service_section(self):
        # the section describes hosting, not construction: engines from
        # the same spec with/without it are interchangeable
        with build_engine(self.payload()) as engine:
            engine.update_many(list(range(64)))
            assert engine.stats()["updates"] == 64
            assert engine.spec.service is not None


class TestTransportKnob:
    """The sharding section's plan-transport knob."""

    @pytest.mark.parametrize("transport", ["shm"])
    def test_round_trips(self, transport):
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "persistent"
        payload["sharding"]["transport"] = transport
        spec = SketchSpec.from_dict(payload)
        assert spec.sharding.transport == transport
        assert SketchSpec.from_dict(spec.to_dict()) == spec
        assert SketchSpec.from_json(spec.to_json()) == spec

    def test_resolved_transport(self):
        assert ShardingSpec().resolved_transport is None
        persistent = ShardingSpec(executor="persistent")
        assert persistent.transport is None
        assert persistent.resolved_transport == "shm"
        assert (
            ShardingSpec(executor="persistent", transport="shm")
            .resolved_transport
            == "shm"
        )

    def test_facade_builds_transport_configured_executor(self):
        from repro.sharding.executors import PersistentProcessExecutor

        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "persistent"
        payload["sharding"]["transport"] = "shm"
        with build_engine(payload) as engine:
            executor = engine.sketch._executor
            assert isinstance(executor, PersistentProcessExecutor)

    def test_default_spec_leaves_transport_implicit(self):
        # "shm" and an omitted knob build the same executor: the one
        # size-selected lane
        payload = spec_payload("memento", sharded=True)
        payload["sharding"]["executor"] = "persistent"
        with build_engine(payload) as implicit:
            payload["sharding"]["transport"] = "shm"
            with build_engine(payload) as explicit:
                for engine in (implicit, explicit):
                    engine.update_many(list(range(2000)))
                assert [pickle.dumps(s) for s in implicit.sketch.shards] == [
                    pickle.dumps(s) for s in explicit.sketch.shards
                ]


class TestCheckedInSpecFiles:
    """Every checked-in specs/*.json must parse, validate, and build."""

    def spec_files(self):
        files = sorted(SPECS_DIR.glob("*.json"))
        assert files, f"no spec files under {SPECS_DIR}"
        return files

    def test_all_parse(self):
        for path in self.spec_files():
            SketchSpec.from_file(path)

    def test_all_build(self):
        for path in self.spec_files():
            with build_engine(SketchSpec.from_file(path)) as engine:
                engine.update_many(list(range(64)))
                assert engine.stats()["updates"] == 64
