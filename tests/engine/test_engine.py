"""HeavyHitterEngine: construction identity, unified surface, lifecycle.

The load-bearing contract: an engine-built deployment is **byte-identical**
in state to the equivalent hand-wired construction under a fixed seed —
bare sketches and sharded ensembles (including the persistent executor
and coalesced report-scale writes) alike.  If these tests fail, a spec no longer
reproduces the deployment it records.
"""

from __future__ import annotations

import pickle

import pytest

from repro import (
    HMemento,
    Memento,
    RHHH,
    SRC_HIERARCHY,
    ShardedSketch,
    SpaceSaving,
    generate_trace,
)
from repro.engine import HeavyHitterEngine, SketchSpec, build_engine
from repro.traffic.synth import BACKBONE

WINDOW = 4096


@pytest.fixture(scope="module")
def stream():
    return generate_trace(BACKBONE, 12_000, seed=31).packets_1d()


def state(sketch) -> bytes:
    return pickle.dumps(sketch)


class TestConstructionIdentity:
    def test_bare_memento(self, stream):
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "memento", "window": WINDOW,
                          "counters": 64, "tau": 0.25, "seed": 9},
        })
        engine = build_engine(spec)
        engine.update_many(stream)
        hand = Memento(window=WINDOW, counters=64, tau=0.25, seed=9)
        hand.update_many(stream)
        assert state(engine.sketch) == state(hand)

    def test_bare_h_memento(self, stream):
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "h_memento", "window": WINDOW,
                          "counters": 320, "tau": 0.5, "seed": 4},
            "hierarchy": {"kind": "src"},
        })
        engine = build_engine(spec)
        engine.update_many(stream)
        hand = HMemento(window=WINDOW, hierarchy=SRC_HIERARCHY,
                        counters=320, tau=0.5, seed=4)
        hand.update_many(stream)
        assert state(engine.sketch) == state(hand)

    def test_sharded_serial(self, stream):
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "memento", "window": WINDOW,
                          "counters": 32, "tau": 1.0, "seed": 3},
            "sharding": {"shards": 4},
        })
        engine = build_engine(spec)
        engine.update_many(stream)
        hand = ShardedSketch(
            lambda i: Memento(window=WINDOW, counters=32, tau=1.0,
                              seed=3 + 7919 * i),
            shards=4,
            query_mode="route",
        )
        hand.update_many(stream)
        assert [state(s) for s in engine.sketch.shards] == [
            state(s) for s in hand.shards
        ]

    def test_sharded_persistent_pipelined(self, stream):
        """Persistent workers fed coalesced 64-item reports, from a spec
        that still carries the legacy pipeline section, equal a
        hand-wired stack fed the whole stream at once."""
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "memento", "window": WINDOW,
                          "counters": 32, "tau": 1.0, "seed": 3},
            "sharding": {"shards": 4, "executor": "persistent"},
            "pipeline": {"buffer_size": 4096, "depth": 2},
        })
        with build_engine(spec) as engine:
            for start in range(0, len(stream), 64):
                engine.update_many(stream[start : start + 64])
            engine.flush()
            with ShardedSketch(
                lambda i: Memento(window=WINDOW, counters=32, tau=1.0,
                                  seed=3 + 7919 * i),
                shards=4,
                executor="persistent",
                query_mode="route",
            ) as hand:
                hand.update_many(stream)
                assert [state(s) for s in engine.sketch.shards] == [
                    state(s) for s in hand.shards
                ]

    def test_window_baseline_pickles_deterministically(self, stream):
        # equal specs fed equal packets must checkpoint to equal bytes
        payload = {
            "algorithm": {"family": "window_baseline", "window": 2048,
                          "counters": 64},
            "hierarchy": {"kind": "src"},
        }
        a, b = build_engine(payload), build_engine(payload)
        a.update_many(stream[:3000])
        b.update_many(stream[:3000])
        assert state(a.sketch) == state(b.sketch)

    def test_spec_file_reproduces_engine(self, tmp_path, stream):
        """build_engine(SketchSpec.from_file(path)) == build_engine(spec)."""
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "memento", "window": WINDOW,
                          "counters": 64, "tau": 0.5, "seed": 21},
            "sharding": {"shards": 2},
        })
        path = spec.to_file(tmp_path / "deployment.json")
        a = build_engine(path)
        b = build_engine(spec)
        a.update_many(stream)
        b.update_many(stream)
        assert [state(s) for s in a.sketch.shards] == [
            state(s) for s in b.sketch.shards
        ]


class TestBuildInputs:
    def test_accepts_dict_and_path_and_spec(self, tmp_path):
        payload = {"algorithm": {"family": "space_saving", "counters": 8}}
        spec = SketchSpec.from_dict(payload)
        path = spec.to_file(tmp_path / "s.json")
        for source in (payload, spec, path, str(path)):
            engine = build_engine(source)
            assert isinstance(engine.sketch, SpaceSaving)
        with pytest.raises(TypeError, match="spec must be"):
            build_engine(42)

    def test_from_spec_alias(self):
        engine = HeavyHitterEngine.from_spec(
            {"algorithm": {"family": "exact", "window": 100}}
        )
        assert engine.family == "exact"

    def test_custom_hierarchy_override(self):
        spec = SketchSpec.from_dict({
            "algorithm": {"family": "rhhh", "counters": 16, "seed": 1},
            "hierarchy": {"kind": "custom"},
        })
        with pytest.raises(ValueError, match="custom"):
            build_engine(spec)
        engine = build_engine(spec, hierarchy=SRC_HIERARCHY)
        assert isinstance(engine.sketch, RHHH)

    def test_query_mode_auto(self):
        flat = build_engine({
            "algorithm": {"family": "memento", "window": 256,
                          "counters": 16, "seed": 1},
            "sharding": {"shards": 2},
        })
        assert flat.sketch.query_mode == "route"
        hhh = build_engine({
            "algorithm": {"family": "h_memento", "window": 256,
                          "counters": 80, "seed": 1},
            "hierarchy": {"kind": "src"},
            "sharding": {"shards": 2},
        })
        assert hhh.sketch.query_mode == "sum"
        forced = build_engine({
            "algorithm": {"family": "memento", "window": 256,
                          "counters": 16, "seed": 1},
            "sharding": {"shards": 2, "query_mode": "sum"},
        })
        assert forced.sketch.query_mode == "sum"

    def test_declared_windowed_reaches_sharding_layer(self):
        interval = build_engine({
            "algorithm": {"family": "space_saving", "counters": 16},
            "sharding": {"shards": 2},
        })
        assert interval.sketch.windowed is False
        windowed = build_engine({
            "algorithm": {"family": "exact", "window": 128},
            "sharding": {"shards": 2},
        })
        assert windowed.sketch.windowed is True


class TestUnifiedSurface:
    @pytest.fixture()
    def engine(self, stream):
        engine = build_engine({
            "algorithm": {"family": "memento", "window": WINDOW,
                          "counters": 64, "tau": 1.0, "seed": 2},
        })
        engine.update_many(stream[:6000])
        return engine

    def test_query_surfaces_agree_with_sketch(self, engine, stream):
        sketch = engine.sketch
        key = stream[0]
        assert engine.query(key) == sketch.query(key)
        assert engine.query_point(key) == sketch.query_point(key)
        assert engine.query_lower(key) == sketch.query_lower(key)
        assert engine.heavy_hitters(0.01) == sketch.heavy_hitters(0.01)
        assert engine.top_k(5) == sketch.top_k(5)
        assert engine.entries() == sketch.entries()

    def test_stats(self, engine):
        stats = engine.stats()
        assert stats["family"] == "memento"
        assert stats["updates"] == 6000
        assert stats["sharded"] is False
        assert stats["window"] == WINDOW
        assert "windowed" in stats["capabilities"]

    def test_output_falls_back_to_heavy_hitters(self, engine):
        assert engine.output(0.01) == set(engine.heavy_hitters(0.01))
        assert engine.heavy_prefixes(0.01) == engine.heavy_hitters(0.01)

    def test_hierarchical_output_passthrough(self, stream):
        engine = build_engine({
            "algorithm": {"family": "h_memento", "window": WINDOW,
                          "counters": 320, "tau": 1.0, "seed": 2},
            "hierarchy": {"kind": "src"},
        })
        engine.update_many(stream[:6000])
        assert engine.output(0.05) == engine.sketch.output(0.05)
        assert engine.heavy_prefixes(0.05) == engine.sketch.heavy_prefixes(0.05)

    def test_windowed_passthrough(self):
        engine = build_engine({
            "algorithm": {"family": "exact", "window": 100},
        })
        engine.update("a")
        engine.ingest_gap(99)
        assert engine.query("a") == 1
        engine.ingest_gap(1)
        assert engine.query("a") == 0
        engine.ingest_sample("b")
        engine.ingest_samples(["b", "c"])
        assert engine.query("b") == 2

    def test_extend_and_scalar_update(self):
        engine = build_engine({
            "algorithm": {"family": "space_saving", "counters": 8},
        })
        engine.update("x")
        engine.extend(iter(["x", "y"]), chunk_size=1)
        assert engine.query("x") == 2

    def test_compat_passthrough(self, engine):
        # family-specific extras stay reachable through the facade
        assert engine.effective_window == engine.sketch.effective_window
        assert engine.windowed_entries() == engine.sketch.windowed_entries()
        with pytest.raises(AttributeError):
            engine.definitely_not_a_method


class TestTopKUnified:
    """Satellite: the whole family answers top_k/heavy_hitters uniformly."""

    FAMILIES = [
        {"algorithm": {"family": "memento", "window": 2048, "counters": 64,
                       "seed": 1}},
        {"algorithm": {"family": "space_saving", "counters": 64}},
        {"algorithm": {"family": "exact", "window": 2048}},
        {"algorithm": {"family": "h_memento", "window": 2048,
                       "counters": 320, "seed": 1},
         "hierarchy": {"kind": "src"}},
        {"algorithm": {"family": "mst", "counters": 64},
         "hierarchy": {"kind": "src"}},
        {"algorithm": {"family": "window_baseline", "window": 2048,
                       "counters": 64}, "hierarchy": {"kind": "src"}},
        {"algorithm": {"family": "rhhh", "counters": 64, "seed": 1},
         "hierarchy": {"kind": "src"}},
    ]

    @pytest.mark.parametrize(
        "payload", FAMILIES, ids=lambda p: p["algorithm"]["family"]
    )
    def test_top_k_and_heavy_hitters(self, payload, stream):
        engine = build_engine(payload)
        engine.update_many(stream[:3000])
        top = engine.top_k(5)
        assert 0 < len(top) <= 5
        estimates = [est for _, est in top]
        assert estimates == sorted(estimates, reverse=True)
        heavy = engine.heavy_hitters(0.2)
        assert isinstance(heavy, dict)
        with pytest.raises(ValueError):
            engine.top_k(0)

    def test_top_k_on_sharded(self, stream):
        engine = build_engine({
            "algorithm": {"family": "memento", "window": 2048,
                          "counters": 32, "seed": 1},
            "sharding": {"shards": 3},
        })
        engine.update_many(stream[:3000])
        top = engine.top_k(3)
        assert len(top) == 3
        for key, est in top:
            assert est == engine.query(key)


class TestLifecycle:
    def test_context_manager_closes_workers(self, stream):
        import multiprocessing as mp

        with build_engine({
            "algorithm": {"family": "memento", "window": 1024,
                          "counters": 16, "seed": 5},
            "sharding": {"shards": 2, "executor": "persistent"},
        }) as engine:
            engine.update_many(stream[:2000])
            assert engine.query(stream[0]) >= 0
        assert mp.active_children() == []

    def test_close_idempotent_on_bare_sketch(self):
        engine = build_engine({
            "algorithm": {"family": "space_saving", "counters": 8},
        })
        engine.flush()
        engine.close()
        engine.close()
