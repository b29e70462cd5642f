"""Figure 9 — network-wide D-H-Memento accuracy under a 1 B/packet budget.

Ten measurement points report to a centralized controller that maintains a
global window of the last W requests; the three transmission options share
the same per-packet byte budget.  The paper's ordering — **Batch best,
Sample clearly better than Aggregation** — follows from how each spends
the budget:

* Aggregation ships large full-state messages, hence rarely — stale data;
* Sample ships one sample per message — header overhead eats the budget;
* Batch amortizes headers over b samples at a modest extra delay.

Error is the on-arrival RMSE of the controller's per-prefix estimates
against the exact global window, averaged over the packet's H prefixes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..engine.spec import (
    AlgorithmSpec,
    HierarchySpec,
    ShardingSpec,
    SketchSpec,
)
from ..hierarchy.domain import SRC_HIERARCHY
from ..netwide.simulation import NetwideConfig, run_error_experiment
from ..traffic.synth import PROFILES, generate_trace
from .common import format_rows, scaled

__all__ = ["run", "format_table", "DEFAULT_TRACES", "controller_spec"]

DEFAULT_TRACES = ("backbone", "datacenter", "edge")
METHODS = ("aggregate", "sample", "batch")


def controller_spec(
    window: int,
    counters: int,
    seed: Optional[int],
    shards: int = 1,
    executor: str = "serial",
) -> SketchSpec:
    """The declarative controller spec equivalent to the legacy knobs.

    The algorithm section is a template — :class:`NetwideSystem` resolves
    family/tau/per-shard counters from the config and the budget model —
    while the sharding section passes through as given.  It is
    synthesized only when ``shards > 1``, exactly mirroring the
    :class:`NetwideConfig` legacy shim (a 1-shard deployment always built
    the plain sketch, silently ignoring the executor); declare a 1-shard
    executor deployment with an explicit spec.
    """
    sharded = shards > 1
    return SketchSpec(
        algorithm=AlgorithmSpec(
            family="h_memento", window=window, counters=counters, seed=seed
        ),
        hierarchy=HierarchySpec("src"),
        sharding=(
            ShardingSpec(shards=shards, executor=executor) if sharded else None
        ),
    )


def run(
    traces: Sequence[str] = DEFAULT_TRACES,
    methods: Sequence[str] = METHODS,
    points: int = 10,
    budget: float = 1.0,
    window: Optional[int] = None,
    counters: int = 2048,
    aggregate_entries: int = 256,
    stride: int = 50,
    seed: int = 2018,
    shards: int = 1,
    executor: str = "serial",
    spec: Union[SketchSpec, str, Path, None] = None,
) -> List[Dict[str, float]]:
    """One row per (trace, method) with the controller's RMSE.

    ``aggregate_entries`` bounds the aggregation reports' entry count (the
    entries of the point's HH algorithm), scaled down with the window so
    the method stays functional at reproduction scale — see EXPERIMENTS.md.
    ``spec`` (a :class:`repro.engine.SketchSpec` or a path to a JSON spec
    file) declares the Sample/Batch controllers' execution strategy —
    sharding and executor — in one serializable document; the
    legacy ``shards``/``executor`` knobs synthesize the
    equivalent spec when no explicit one is given (``shards > 1`` runs
    hash-partitioned D-H-Memento shards with the counter budget split and
    merge-on-query combining).  Each non-aggregate result row records the
    fully-resolved controller spec under ``"spec"``, so any row is
    reproducible from its spec alone.
    """
    window = window if window is not None else scaled(20_000)
    length = int(window * 3)
    hierarchy = SRC_HIERARCHY
    if spec is None:
        spec = controller_spec(window, counters, seed, shards, executor)
    elif isinstance(spec, (str, Path)):
        spec = SketchSpec.from_file(spec)
    elif isinstance(spec, dict):
        spec = SketchSpec.from_dict(spec)
    rows: List[Dict[str, float]] = []
    for trace_name in traces:
        stream = generate_trace(PROFILES[trace_name], length, seed=seed).packets_1d()
        for method in methods:
            config = NetwideConfig(
                points=points,
                method=method,
                budget=budget,
                window=window,
                counters=counters,
                hierarchy=hierarchy,
                seed=seed,
                aggregate_max_entries=aggregate_entries,
                spec=spec if method != "aggregate" else None,
            )
            result = run_error_experiment(
                config,
                stream,
                query_keys=hierarchy.all_prefixes,
                stride=stride,
            )
            result["trace"] = trace_name
            rows.append(result)
    return rows


def format_table(rows: List[Dict[str, float]]) -> str:
    """Paper-style rendering of the network-wide error comparison."""
    return format_rows(
        rows,
        columns=[
            "trace",
            "method",
            "rmse",
            "bytes_per_packet",
            "tau",
            "batch_size",
            "shards",
            "reports_sent",
        ],
    )
