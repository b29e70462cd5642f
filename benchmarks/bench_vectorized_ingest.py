"""Vectorized-ingest benchmark: the columnar kernel vs scalar updates.

Extends the ``repro-bench/1`` perf trail (``bench_micro_updates.py``,
``bench_sharded_ingest.py``) to the columnar ingestion kernel and the
persistent shard workers:

* ``python benchmarks/bench_vectorized_ingest.py`` — times the two
  ingestion paths of every sketch: **scalar** (one ``update`` per
  packet, the reference semantics) and **vectorized** (the
  decision-column → ingest-plan pipeline behind ``update_many`` /
  ``ingest_plan``).  Results persist to
  ``BENCH_vectorized_ingest.json`` at the repo root.  The full run
  gates the kernel's contract on ``memento_tau0.1``: vectorized must
  reach ≥ ``MIN_VEC_VS_SCALAR``× the scalar path.
* the same run times sharded ingestion through the
  ``PersistentProcessExecutor`` at 1/2/4/8 shards (1 shard is the
  executor-bypassing delegation path, reported for context).  Timed
  passes include the post-batch state sync (a query), so the numbers
  pay their ``collect``.  These rows are context and ungated.
* the **crossover** rows time the heavy per-item families (H-Memento,
  RHHH) on the persistent executor at 2 and 4 shards against the same
  family in one process, and record in the file's ``crossover`` extra
  the first family and shard count whose sharded engine beats one
  process on wall-clock time (or ``"none"``).  Ungated.
* ``--smoke`` shrinks the workload for CI and relaxes the memento gate
  to a plain no-regression bound (vectorized ≥
  ``SMOKE_MIN_VEC_VS_SCALAR``× scalar); executor scaling and the
  crossover run at 2 shards only.

``memento_tau0.1`` uses a window geometry with paper-scale blocks
(``W/k = 256``) — tiny blocks make the boundary bookkeeping, not the
per-packet sampling, the bottleneck, which is the regime the micro
bench already covers.  ``space_saving_grouped`` feeds chunk-sorted
traffic to show the count-weighted run path on pre-grouped feeds;
``space_saving`` shows the adaptive probe declining to collapse
duplicate-poor traffic.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

try:
    import repro  # noqa: F401 - probe for an installed package
except ModuleNotFoundError:  # uninstalled checkout: fall back to src/
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import (
    RHHH,
    HMemento,
    Memento,
    SRC_HIERARCHY,
    ShardedSketch,
    SpaceSaving,
    generate_trace,
    make_prefix,
)
from repro.bench import BenchResult, repo_root, write_results
from repro.core.kernel import dense_plan
from repro.engine import SketchSpec, build_engine
from repro.traffic.synth import BACKBONE

#: micro-case geometry: W/k = 256-packet blocks (paper-scale), the
#: window fills and frames flush within the stream
WINDOW = 16_384
COUNTERS = 64
N = 40_000
CHUNK = 4096

#: executor-case geometry: heavier per-shard state, representative of a
#: deployed controller shard
EXEC_WINDOW = 131_072
EXEC_COUNTERS = 512
EXEC_N = 20_000
SHARD_COUNTS = (1, 2, 4, 8)

#: micro cases whose family is timed for the sharding crossover, and at
#: which persistent shard counts
CROSSOVER_CASES = ("hmemento_tau0.25", "rhhh")
CROSSOVER_SHARDS = (2, 4)

#: full-run gate on ``memento_tau0.1``
MIN_VEC_VS_SCALAR = 3.0
#: smoke-mode no-regression gate (CI noise tolerance is the repeats)
SMOKE_MIN_VEC_VS_SCALAR = 1.0

GATED_CASE = "memento_tau0.1"


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def grouped_stream(stream: list, chunk: int = CHUNK) -> list:
    """Chunk-sorted copy: models pre-grouped/aggregated feeds where
    adjacent duplicates are common (the weighted-run path's territory)."""
    out: list = []
    for start in range(0, len(stream), chunk):
        out.extend(sorted(stream[start : start + chunk]))
    return out


def drive_scalar(algorithm, stream):
    update = algorithm.update
    for item in stream:
        update(item)
    return algorithm


def drive_vectorized(algorithm, stream, chunk: int = CHUNK):
    """The columnar kernel path (plan-consuming ``update_many``)."""
    for start in range(0, len(stream), chunk):
        algorithm.update_many(stream[start : start + chunk])
    return algorithm


def drive_plan(algorithm, stream, chunk: int = CHUNK):
    """Dense-plan feeding for interval sketches (weighted run path)."""
    ingest_plan = algorithm.ingest_plan
    for start in range(0, len(stream), chunk):
        ingest_plan(dense_plan(stream[start : start + chunk]))
    return algorithm


#: (case name, factory, vectorized driver, stream variant)
CASES: List[Tuple[str, Callable[[], object], Callable, str]] = [
    (
        "memento_tau0.1",
        lambda: Memento(window=WINDOW, counters=COUNTERS, tau=0.1, seed=1),
        drive_vectorized,
        "plain",
    ),
    (
        "memento_tau2^-10",
        lambda: Memento(window=WINDOW, counters=COUNTERS, tau=2**-10, seed=1),
        drive_vectorized,
        "plain",
    ),
    (
        "hmemento_tau0.25",
        lambda: HMemento(
            window=WINDOW, hierarchy=SRC_HIERARCHY, counters=320, tau=0.25, seed=1
        ),
        drive_vectorized,
        "plain",
    ),
    (
        "rhhh",
        lambda: RHHH(SRC_HIERARCHY, counters=128, seed=1),
        drive_vectorized,
        "plain",
    ),
    (
        "space_saving",
        lambda: SpaceSaving(512),
        drive_plan,
        "plain",
    ),
    (
        "space_saving_grouped",
        lambda: SpaceSaving(512),
        drive_plan,
        "grouped",
    ),
]


#: declarative spec of each micro case, recorded in every persisted row
#: (registry-validated at import); the grouped variant shares its base
#: case's spec — the stream shape rides in the row's ``stream`` key.
CASE_SPECS: Dict[str, Dict[str, object]] = {
    name: SketchSpec.from_dict(payload).to_dict()
    for name, payload in (
        (
            "memento_tau0.1",
            {
                "algorithm": {
                    "family": "memento",
                    "window": WINDOW,
                    "counters": COUNTERS,
                    "tau": 0.1,
                    "seed": 1,
                }
            },
        ),
        (
            "memento_tau2^-10",
            {
                "algorithm": {
                    "family": "memento",
                    "window": WINDOW,
                    "counters": COUNTERS,
                    "tau": 2**-10,
                    "seed": 1,
                }
            },
        ),
        (
            "hmemento_tau0.25",
            {
                "algorithm": {
                    "family": "h_memento",
                    "window": WINDOW,
                    "counters": 320,
                    "tau": 0.25,
                    "seed": 1,
                },
                "hierarchy": {"kind": "src"},
            },
        ),
        (
            "rhhh",
            {
                "algorithm": {"family": "rhhh", "counters": 128, "seed": 1},
                "hierarchy": {"kind": "src"},
            },
        ),
        ("space_saving", {"algorithm": {"family": "space_saving", "counters": 512}}),
        (
            "space_saving_grouped",
            {"algorithm": {"family": "space_saving", "counters": 512}},
        ),
    )
}


def exec_factory(i: int) -> Memento:
    return Memento(
        window=EXEC_WINDOW, counters=EXEC_COUNTERS, tau=0.1, seed=1 + i
    )


def exec_spec(executor: str, shards: int) -> SketchSpec:
    """The declarative spec of one executor-scaling deployment."""
    return SketchSpec.from_dict(
        {
            "algorithm": {
                "family": "memento",
                "window": EXEC_WINDOW,
                "counters": EXEC_COUNTERS,
                "tau": 0.1,
                "seed": 1,
            },
            "sharding": {"shards": shards, "executor": executor},
        }
    )


def time_executor(
    executor: str, shards: int, stream, repeats: int
) -> float:
    """Best wall-seconds for one chunked pass + post-batch state sync."""
    sharded = ShardedSketch(exec_factory, shards=shards, executor=executor)
    probe = stream[0]
    n = len(stream)
    try:
        # warmup pass spawns the workers and fills caches
        for start in range(0, n, CHUNK):
            sharded.update_many(stream[start : start + CHUNK])
        sharded.query(probe)
        best = float("inf")
        perf_counter = time.perf_counter
        for _ in range(repeats):
            t0 = perf_counter()
            for start in range(0, n, CHUNK):
                sharded.update_many(stream[start : start + CHUNK])
            sharded.query(probe)  # persistent pays its collect here
            best = min(best, perf_counter() - t0)
    finally:
        sharded.close()
    return best


def run_crossover(
    stream, shard_counts: Sequence[int], repeats: int
) -> Tuple[List[BenchResult], Dict[str, object]]:
    """Heavy families on the persistent executor vs one process.

    Per family, the one-process engine (no sharding layer) and one
    persistent engine per shard count are built up front and timed in
    interleaved rounds — one chunked pass plus a query (a sharded engine
    pays its collect; the hierarchical families are queried for the
    first packet's /24) per engine per round, best-of over rounds — so
    host drift biases the comparison as little as possible.  Returns
    the rows plus the ``crossover`` extra: per-case ops/sec at each
    shard count (``shards1`` is one process) and ``first`` — the first
    ``case/shardsS`` that beats its one process, or ``"none"``.
    """
    results: List[BenchResult] = []
    rates: Dict[str, Dict[str, float]] = {}
    first = "none"
    n = len(stream)
    probe = make_prefix(stream[0], 24)
    perf_counter = time.perf_counter
    for case in CROSSOVER_CASES:
        specs: Dict[int, SketchSpec] = {}
        for shards in (1, *shard_counts):
            payload = SketchSpec.from_dict(CASE_SPECS[case]).to_dict()
            if shards > 1:
                payload["sharding"] = {"shards": shards, "executor": "persistent"}
            specs[shards] = SketchSpec.from_dict(payload)
        engines = {shards: build_engine(spec) for shards, spec in specs.items()}
        timings: Dict[int, List[float]] = {shards: [] for shards in specs}
        try:
            for attempt in range(repeats + 1):  # the first round warms up
                for shards, engine in engines.items():
                    t0 = perf_counter()
                    for start in range(0, n, CHUNK):
                        engine.update_many(stream[start : start + CHUNK])
                    engine.query(probe)
                    if attempt:
                        timings[shards].append(perf_counter() - t0)
        finally:
            for engine in engines.values():
                engine.close()
        rates[case] = {}
        for shards, spec in specs.items():
            seconds = min(timings[shards])
            rates[case][f"shards{shards}"] = n / seconds
            results.append(
                BenchResult(
                    name=f"crossover_{case}/shards{shards}",
                    ops=n,
                    seconds=seconds,
                    mean_seconds=sum(timings[shards]) / repeats,
                    repeats=repeats,
                    metadata={
                        "path": "sharded" if shards > 1 else "one_process",
                        "case": case,
                        "shards": shards,
                        "chunk": CHUNK,
                        "interleaved": True,
                        "spec": spec.to_dict(),
                        "transport": (
                            spec.sharding.resolved_transport
                            if spec.sharding is not None
                            else None
                        ),
                    },
                )
            )
            if (
                first == "none"
                and shards > 1
                and rates[case][f"shards{shards}"] > rates[case]["shards1"]
            ):
                first = f"{case}/shards{shards}"
    return results, {"first": first, "ops_per_sec": rates}


def run_harness(
    n: int = N,
    exec_n: int = EXEC_N,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    warmup: int = 1,
    repeats: int = 3,
) -> Tuple[List[BenchResult], Dict[str, Dict[str, float]], Dict[str, Dict[str, float]]]:
    """Time every (case, path) pair plus the executor scaling matrix.

    Returns the results, per-case speedup ratios, and the per-shard-count
    persistent-executor throughput (ops/sec).
    """
    stream = make_stream(n)
    streams = {"plain": stream, "grouped": grouped_stream(stream)}
    results: List[BenchResult] = []
    speedups: Dict[str, Dict[str, float]] = {}
    perf_counter = time.perf_counter
    for name, factory, vec_driver, variant in CASES:
        case_stream = streams[variant]
        paths = (
            ("scalar", drive_scalar),
            ("vectorized", vec_driver),
        )
        # the two paths are timed in interleaved rounds (one pass per
        # path per round, best-of over rounds) so slow drift — thermal,
        # scheduler, allocator — biases a *ratio* gate as little as
        # possible; sequential per-path blocks would hand whichever path
        # runs in the quietest stretch a spurious win
        timings: Dict[str, List[float]] = {path: [] for path, _ in paths}
        for _ in range(warmup):
            for _, driver in paths:
                driver(factory(), case_stream)
        for _ in range(repeats):
            for path, driver in paths:
                algorithm = factory()
                t0 = perf_counter()
                driver(algorithm, case_stream)
                timings[path].append(perf_counter() - t0)
        timed = {}
        for path, _ in paths:
            seconds = timings[path]
            result = BenchResult(
                name=f"{name}/{path}",
                ops=n,
                seconds=min(seconds),
                mean_seconds=sum(seconds) / len(seconds),
                repeats=repeats,
                metadata={
                    "path": path,
                    "case": name,
                    "chunk": CHUNK,
                    "stream": variant,
                    "interleaved": True,
                    "spec": CASE_SPECS[name],
                    "transport": None,
                },
            )
            results.append(result)
            timed[path] = result.ops_per_sec
        speedups[name] = {
            "vectorized_vs_scalar": timed["vectorized"] / timed["scalar"],
        }

    exec_stream = make_stream(exec_n)
    executor_scaling: Dict[str, Dict[str, float]] = {}
    executor = "persistent"
    for shards in shard_counts:
        seconds = time_executor(executor, shards, exec_stream, repeats)
        spec = exec_spec(executor, shards)
        results.append(
            BenchResult(
                name=f"executor_{executor}/shards{shards}",
                ops=exec_n,
                seconds=seconds,
                mean_seconds=seconds,
                repeats=repeats,
                metadata={
                    "path": "sharded",
                    "executor": executor,
                    "shards": shards,
                    "chunk": CHUNK,
                    "case": "memento_tau0.1_exec",
                    "spec": spec.to_dict(),
                    "transport": spec.sharding.resolved_transport,
                },
            )
        )
        executor_scaling[f"shards{shards}"] = {executor: exec_n / seconds}
    return results, speedups, executor_scaling


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: fewer packets, no-regression gate only",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_vectorized_ingest.json at repo root)",
    )
    args = parser.parse_args(argv)
    n = 4_000 if args.smoke else N
    exec_n = 4_000 if args.smoke else EXEC_N
    shard_counts = (2,) if args.smoke else SHARD_COUNTS
    crossover_shards = (2,) if args.smoke else CROSSOVER_SHARDS
    # best-of keeps the gates stable against scheduler noise
    repeats = 3 if args.smoke else 5
    results, speedups, executor_scaling = run_harness(
        n=n,
        exec_n=exec_n,
        shard_counts=shard_counts,
        warmup=1,
        repeats=repeats,
    )
    crossover_rows, crossover = run_crossover(
        make_stream(exec_n), crossover_shards, repeats
    )
    results.extend(crossover_rows)

    out = args.out or (repo_root() / "BENCH_vectorized_ingest.json")
    write_results(
        out,
        results,
        extra={
            "workload": {
                "packets": n,
                "window": WINDOW,
                "counters": COUNTERS,
                "chunk": CHUNK,
                "executor_packets": exec_n,
                "executor_window": EXEC_WINDOW,
                "executor_counters": EXEC_COUNTERS,
                "shard_counts": list(shard_counts),
            },
            "speedups": speedups,
            "executor_scaling": executor_scaling,
            "crossover": crossover,
            "smoke": args.smoke,
        },
    )

    width = max(len(name) for name, _, _, _ in CASES)
    by_name = {r.name: r for r in results}
    print(
        f"{'case'.ljust(width)}  {'scalar ops/s':>13}  "
        f"{'vector ops/s':>13}  v/scalar"
    )
    for name, _, _, _ in CASES:
        ratios = speedups[name]
        print(
            f"{name.ljust(width)}  "
            f"{by_name[f'{name}/scalar'].ops_per_sec:>13,.0f}  "
            f"{by_name[f'{name}/vectorized'].ops_per_sec:>13,.0f}  "
            f"{ratios['vectorized_vs_scalar']:>6.2f}x"
        )
    print()
    print("shards  persistent ops/s")
    for shards in shard_counts:
        row = executor_scaling[f"shards{shards}"]
        print(f"{shards:>6}  {row['persistent']:>16,.0f}")
    print()
    for case, rates in crossover["ops_per_sec"].items():
        cells = "  ".join(f"{key} {rate:,.0f}" for key, rate in rates.items())
        print(f"crossover {case}: {cells}")
    print(f"first sharded engine to beat one process: {crossover['first']}")
    print(f"results -> {out}")

    failures: List[str] = []
    gate = SMOKE_MIN_VEC_VS_SCALAR if args.smoke else MIN_VEC_VS_SCALAR
    ratio = speedups[GATED_CASE]["vectorized_vs_scalar"]
    if ratio < gate:
        failures.append(
            f"vectorized path {ratio:.2f}x < {gate}x scalar on {GATED_CASE}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream():
    return make_stream()


@pytest.mark.parametrize("path", ["scalar", "vectorized"])
def test_memento_tau01_paths(benchmark, stream, path):
    driver = {
        "scalar": drive_scalar,
        "vectorized": drive_vectorized,
    }[path]
    result = benchmark(
        lambda: driver(
            Memento(window=WINDOW, counters=COUNTERS, tau=0.1, seed=1), stream
        )
    )
    assert result.updates == N


@pytest.mark.parametrize("executor", ["serial", "persistent"])
def test_executor_four_shards(benchmark, stream, executor):
    def run():
        sharded = ShardedSketch(exec_factory, shards=4, executor=executor)
        try:
            for start in range(0, len(stream), CHUNK):
                sharded.update_many(stream[start : start + CHUNK])
            sharded.query(stream[0])
        finally:
            sharded.close()
        return sharded

    assert benchmark(run).updates == N


if __name__ == "__main__":
    raise SystemExit(main())
