"""Registry: declared capabilities must match protocol reality."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.api import (
    MergeableSketch,
    QueryableSketch,
    SlidingSketch,
    WindowedSketch,
)
from repro.engine import (
    SketchSpec,
    algorithm_info,
    register_algorithm,
    registered_algorithms,
    shard_seed,
)
from repro.engine import build_engine
from repro.engine.registry import (
    CAPABILITY_PROTOCOLS,
    KNOWN_CAPABILITIES,
    _REGISTRY,
)
from repro.traffic.synth import BACKBONE, generate_trace

EXPECTED_FAMILIES = (
    "exact",
    "h_memento",
    "memento",
    "mst",
    "rhhh",
    "space_saving",
    "window_baseline",
)

_ALGORITHM_SECTIONS = {
    "memento": {"family": "memento", "window": 4096, "counters": 64},
    "h_memento": {"family": "h_memento", "window": 4096, "counters": 320},
    "space_saving": {"family": "space_saving", "counters": 64},
    "mst": {"family": "mst", "counters": 64},
    "window_baseline": {"family": "window_baseline", "window": 4096,
                        "counters": 64},
    "rhhh": {"family": "rhhh", "counters": 64},
    "exact": {"family": "exact", "window": 4096},
}

_HIERARCHICAL = {"h_memento", "mst", "window_baseline", "rhhh"}


def spec_payload(family: str) -> dict:
    payload = {"algorithm": dict(_ALGORITHM_SECTIONS[family])}
    if family in _HIERARCHICAL:
        payload["hierarchy"] = {"kind": "src"}
    return payload


class TestBuiltins:
    def test_registered_families(self):
        assert registered_algorithms() == EXPECTED_FAMILIES

    @pytest.mark.parametrize("family", EXPECTED_FAMILIES)
    def test_capabilities_match_protocols(self, family):
        """The declared capability set IS the protocol conformance set.

        This is what lets the sharding layer and the facade trust the
        declaration instead of hasattr-sniffing built instances.
        """
        spec = SketchSpec.from_dict(spec_payload(family))
        info = algorithm_info(family)
        hierarchy = spec.hierarchy.resolve() if spec.hierarchy else None
        sketch = info.factory(spec.algorithm, hierarchy, None)
        for capability, protocol in CAPABILITY_PROTOCOLS.items():
            declared = capability in info.capabilities
            actual = isinstance(sketch, protocol)
            assert declared == actual, (
                f"{family}: declared {capability}={declared} but "
                f"isinstance({type(sketch).__name__}, "
                f"{protocol.__name__})={actual}"
            )

    @pytest.mark.parametrize("family", EXPECTED_FAMILIES)
    def test_hierarchical_flag_matches_needs(self, family):
        info = algorithm_info(family)
        assert info.hierarchical == ("hierarchical" in info.capabilities)
        if info.hierarchical:
            assert info.needs_hierarchy

    def test_every_capability_known(self):
        for info in (algorithm_info(f) for f in registered_algorithms()):
            assert info.capabilities <= KNOWN_CAPABILITIES


def python_scalars(key) -> bool:
    """Whether ``key`` is built only of Python ints (prefix tuples too)."""
    if isinstance(key, tuple):
        return all(python_scalars(part) for part in key)
    return type(key) is int


class TestColumnFeed:
    """``update_many`` takes a numpy key column (what the service daemon
    hands its engine) as the equal list: same pickled state, keys back
    as Python ints, for every registered family."""

    @pytest.fixture(scope="class")
    def packets(self):
        return generate_trace(BACKBONE, 6000, seed=3).packets_1d()

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("family", registered_algorithms())
    def test_column_feed_equals_list_feed(self, packets, family, dtype):
        payload = spec_payload(family)
        payload["algorithm"].update(seed=5)
        if family == "memento":
            payload["algorithm"].update(tau=1 / 16)
        spec = SketchSpec.from_dict(payload)
        column = np.asarray(packets, dtype=dtype)
        with build_engine(spec) as listed, build_engine(spec) as columnar:
            for lo in range(0, len(packets), 1000):
                listed.update_many(packets[lo : lo + 1000])
                columnar.update_many(column[lo : lo + 1000])
            listed_state = listed.snapshot_state()["state"]
            columnar_state = columnar.snapshot_state()["state"]
            if family == "window_baseline":
                # its tau=1 WCSS instances are built unseeded: the
                # samplers are never consulted but pickle differently
                for mine, theirs in zip(
                    columnar_state._instances, listed_state._instances
                ):
                    mine._sampler = theirs._sampler
            assert pickle.dumps(columnar_state) == pickle.dumps(listed_state)
            heavy = columnar.heavy_hitters(0.01)
            assert heavy and all(python_scalars(key) for key in heavy)
            assert all(python_scalars(key) for key, _ in columnar.top_k(5))

    def test_memento_keys_from_a_numpy_batch_are_python_ints(self):
        spec = SketchSpec.from_dict(
            {"algorithm": {"family": "memento", "window": 64, "counters": 8}}
        )
        with build_engine(spec) as engine:
            engine.update_many(np.arange(50) % 7)
            heavy = engine.heavy_hitters(0.01)
        assert sorted(heavy) == list(range(7))
        assert all(type(key) is int for key in heavy)


class TestShardSeed:
    def test_derivation(self):
        assert shard_seed(None, 3) is None
        assert shard_seed(10, None) == 10
        assert shard_seed(10, 0) == 10
        assert shard_seed(10, 2) == 10 + 2 * 7919


class TestRegisterAlgorithm:
    def _cleanup(self, name):
        _REGISTRY.pop(name, None)

    def test_register_and_build(self):
        from repro.core.space_saving import SpaceSaving

        name = "test_custom_family"
        try:
            register_algorithm(
                name,
                lambda spec, hierarchy, shard_id: SpaceSaving(spec.counters),
                {"sliding", "mergeable", "queryable"},
                counter_mode="counters_only",
            )
            spec = SketchSpec.from_dict(
                {"algorithm": {"family": name, "counters": 8}}
            )
            from repro.engine import build_engine

            engine = build_engine(spec)
            engine.update_many(["a", "a", "b"])
            assert engine.top_k(1) == [("a", 2)]
        finally:
            self._cleanup(name)

    def test_duplicate_requires_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(
                "memento",
                lambda *a: None,
                {"sliding"},
            )

    def test_unknown_capability_rejected(self):
        with pytest.raises(ValueError, match="unknown capability"):
            register_algorithm(
                "test_bad_caps", lambda *a: None, {"sliding", "quantum"}
            )
        assert "test_bad_caps" not in registered_algorithms()

    def test_sliding_mandatory(self):
        with pytest.raises(ValueError, match="'sliding'"):
            register_algorithm("test_no_sliding", lambda *a: None, {"mergeable"})

    def test_unknown_counter_mode(self):
        with pytest.raises(ValueError, match="counter_mode"):
            register_algorithm(
                "test_bad_mode",
                lambda *a: None,
                {"sliding"},
                counter_mode="maybe",
            )

    def test_unknown_family_lookup(self):
        with pytest.raises(ValueError, match="registered families"):
            algorithm_info("not_a_family")
