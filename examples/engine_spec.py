#!/usr/bin/env python3
"""Engine specs — declare a deployment once, build it anywhere.

Walks the declarative configuration layer:

1. build a sketch from an inline spec dict (`build_engine`);
2. scale the same algorithm out declaratively (a sharding section)
   without touching any constructor;
3. round-trip the spec through a JSON file and rebuild an identical
   deployment from the file alone;
4. register a custom algorithm family and drive it through the same
   spec machinery.

Run:  python examples/engine_spec.py
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

from repro import (
    BACKBONE,
    SketchSpec,
    build_engine,
    generate_trace,
    register_algorithm,
)

WINDOW = 20_000
THETA = 0.01


def main() -> None:
    trace = generate_trace(BACKBONE, length=3 * WINDOW, seed=42)
    stream = trace.packets_1d()

    # ------------------------------------------------------------------
    # 1. one spec dict = one deployment
    # ------------------------------------------------------------------
    spec = SketchSpec.from_dict({
        "algorithm": {
            "family": "memento",
            "window": WINDOW,
            "counters": 512,
            "tau": 1 / 16,
            "seed": 1,
        },
    })
    with build_engine(spec) as engine:
        engine.update_many(stream)
        heavy = engine.heavy_hitters(theta=THETA)
        print(f"[bare]    {engine.stats()}")
        print(f"[bare]    {len(heavy)} window heavy hitters (theta={THETA:.0%})")

    # ------------------------------------------------------------------
    # 2. scale out declaratively: same algorithm, new sections
    # ------------------------------------------------------------------
    sharded_spec = SketchSpec.from_dict({
        **spec.to_dict(),
        "sharding": {"shards": 4, "executor": "serial"},
    })
    with build_engine(sharded_spec) as engine:
        engine.update_many(stream)
        engine.flush()
        top = engine.top_k(5)
        print(f"[sharded] {engine.stats()}")
        print(f"[sharded] top-5 flows: {[flow for flow, _ in top]}")

    # ------------------------------------------------------------------
    # 3. a spec file alone reproduces the deployment byte-for-byte
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = spec.to_file(Path(tmp) / "deployment.json")
        with build_engine(path) as rebuilt, build_engine(spec) as reference:
            rebuilt.update_many(stream)
            reference.update_many(stream)
            identical = pickle.dumps(rebuilt.sketch) == pickle.dumps(
                reference.sketch
            )
        print(f"[file]    spec file rebuild state-identical: {identical}")

    # ------------------------------------------------------------------
    # 4. third-party algorithms ride the same rails
    # ------------------------------------------------------------------
    from repro import ExactWindowCounter

    register_algorithm(
        "half_window_exact",
        lambda algo, hierarchy, shard_id: ExactWindowCounter(algo.window // 2),
        {"sliding", "mergeable", "queryable", "windowed"},
        needs_window=True,
        counter_mode="none",
        replace=True,
    )
    with build_engine({
        "algorithm": {"family": "half_window_exact", "window": WINDOW},
    }) as engine:
        engine.update_many(stream)
        print(
            f"[custom]  registered family tracks "
            f"{len(engine.entries())} flows over the last {WINDOW // 2} packets"
        )


if __name__ == "__main__":
    main()
