"""Pipelined-ingest benchmark: the front-end vs synchronous sharded feeds.

Extends the ``repro-bench/1`` perf trail (``bench_micro_updates.py``,
``bench_sharded_ingest.py``, ``bench_vectorized_ingest.py``) to the
pipelined ingestion front-end (``ShardedSketch(pipeline=...)``):

* ``python benchmarks/bench_pipelined_ingest.py`` — times the
  **report-scale critical path**: the stream arrives in small batches
  (``REPORT`` packets each, the granularity the netwide controller
  receives per ``BatchReport``), at 1 and 4 shards, synchronous vs
  pipelined on the persistent executor.  This is the path the front-end
  exists for — synchronously, every small batch pays one partition pass
  plus ``S`` pipe messages; pipelined, writes coalesce into
  buffer-sized dispatches and a background thread overlaps partitioning
  (and the blocking pipe sends) with the workers' applies.  Timed
  passes end with a query, so the pipelined numbers pay their full
  ``flush`` + ``collect`` sync.
* two context rows (ungated): the same comparison under **scalar**
  ``update`` calls on a resident 4-shard sketch (synchronously
  ``S`` pipe messages *per packet* — the O(S) path the write buffer
  removes) and under pre-chunked 4096-packet batches (where the
  synchronous path is already amortized and the thread can only win
  the partition/apply overlap).  The executor picks each plan's lane
  from its size: report-scale plans are pickled into the worker pipes,
  chunk-scale ones ride the shared-memory rings.
* the full run gates the front-end's contract: pipelined must reach
  ≥ ``MIN_PIPE_4SHARD``× the synchronous persistent path at 4 shards
  and ≥ ``MIN_PIPE_1SHARD``× at 1 shard (the delegation fast path —
  coalescing must never cost throughput).  ``--smoke`` shrinks the
  workload for CI and relaxes the gate to a plain ≥ 1.0×
  no-regression bound at 4 shards.

Results persist to ``BENCH_pipelined_ingest.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import repro  # noqa: F401 - probe for an installed package
except ModuleNotFoundError:  # uninstalled checkout: fall back to src/
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import generate_trace
from repro.bench import BenchResult, repo_root, write_results
from repro.engine import SketchSpec, build_engine
from repro.traffic.synth import BACKBONE

#: shard geometry: heavy per-shard state so worker applies are
#: representative of a deployed controller (matches the vectorized
#: bench's executor case)
WINDOW = 131_072
COUNTERS = 512
TAU = 0.1

#: report-scale feed: the netwide Batch transport delivers tens of
#: samples per report — this is the sharded controller's arrival pattern
REPORT = 32
#: pre-chunked context feed
CHUNK = 4096
#: pipeline knobs under test (the ShardedSketch defaults)
PIPELINE_BUFFER = 4096

N = 40_000
SCALAR_N = 4_000
SHARD_COUNTS = (1, 4)
GATED_SHARDS = 4

#: full-run gates on the report-scale feed
MIN_PIPE_4SHARD = 1.3
MIN_PIPE_1SHARD = 1.0
#: smoke-mode no-regression gate (CI noise tolerance is the repeats)
SMOKE_MIN_PIPE = 1.0

#: timed modes: (row-name suffix, pipelined?)
MODES = (
    ("sync", False),
    ("pipelined", True),
)


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def case_spec(shards: int, pipelined: bool) -> SketchSpec:
    """The declarative spec of one timed deployment.

    Every timed construction goes through ``build_engine`` on this, and
    the spec rides in the persisted row's metadata — any row reproduces
    from its spec alone (per-shard seeds derive from the base seed via
    the registry's convention).
    """
    payload = {
        "algorithm": {
            "family": "memento",
            "window": WINDOW,
            "counters": COUNTERS,
            "tau": TAU,
            "seed": 1,
        },
        "sharding": {"shards": shards, "executor": "persistent"},
    }
    if pipelined:
        payload["pipeline"] = {"buffer_size": PIPELINE_BUFFER}
    return SketchSpec.from_dict(payload)


def feed_reports(sharded, stream, batch: int = REPORT) -> None:
    """Report-scale delivery: one small ``update_many`` per report."""
    update_many = sharded.update_many
    for start in range(0, len(stream), batch):
        update_many(stream[start : start + batch])


def feed_scalar(sharded, stream) -> None:
    """Per-packet delivery (the resident O(S)-messages path when sync)."""
    update = sharded.update
    for item in stream:
        update(item)


def feed_chunks(sharded, stream, chunk: int = CHUNK) -> None:
    """Pre-chunked delivery: the synchronous path's best case."""
    update_many = sharded.update_many
    for start in range(0, len(stream), chunk):
        update_many(stream[start : start + chunk])


FEEDS = {
    "reports": feed_reports,
    "scalar": feed_scalar,
    "chunks": feed_chunks,
}


def time_feed(
    feed: str,
    shards: int,
    pipelined: bool,
    stream,
    repeats: int,
) -> float:
    """Best wall-seconds for one full feed pass + the query sync point."""
    sharded = build_engine(case_spec(shards, pipelined))
    drive = FEEDS[feed]
    probe = stream[0]
    try:
        # prime residency: one batch seeds the persistent workers, so the
        # scalar feed measures the *resident* per-packet path (S pipe
        # messages per update when synchronous) rather than quietly
        # staying on the in-process never-seeded path
        if shards > 1:
            sharded.update_many(stream[:REPORT])
            sharded.query(probe)
        # warmup pass spawns workers/pipeline thread and fills caches
        drive(sharded, stream)
        sharded.query(probe)
        best = float("inf")
        perf_counter = time.perf_counter
        for _ in range(repeats):
            t0 = perf_counter()
            drive(sharded, stream)
            sharded.query(probe)  # drains the pipeline, pays the collect
            best = min(best, perf_counter() - t0)
    finally:
        sharded.close()
    return best


def run_harness(
    n: int = N,
    scalar_n: int = SCALAR_N,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    repeats: int = 3,
    with_context: bool = True,
) -> Tuple[List[BenchResult], Dict[str, Dict[str, float]]]:
    """Time sync vs pipelined per (feed, shard count).

    Returns the results plus a ``{case: {sync, pipelined, speedup}}``
    summary, keyed ``reports/shards{S}`` for the gated
    critical path and ``scalar/shards4`` / ``chunks/shards4`` for the
    context rows.
    """
    stream = make_stream(n)
    scalar_stream = stream[:scalar_n]
    cases: List[Tuple[str, int, list]] = [
        ("reports", shards, stream) for shards in shard_counts
    ]
    if with_context:
        cases.append(("scalar", GATED_SHARDS, scalar_stream))
        cases.append(("chunks", GATED_SHARDS, stream))
    results: List[BenchResult] = []
    summary: Dict[str, Dict[str, float]] = {}
    for feed, shards, case_stream in cases:
        ops = len(case_stream)
        row: Dict[str, float] = {}
        for mode, pipelined in MODES:
            spec = case_spec(shards, pipelined)
            seconds = time_feed(feed, shards, pipelined, case_stream, repeats)
            row[mode] = ops / seconds
            results.append(
                BenchResult(
                    name=f"{feed}/shards{shards}/{mode}",
                    ops=ops,
                    seconds=seconds,
                    mean_seconds=seconds,
                    repeats=repeats,
                    metadata={
                        "feed": feed,
                        "shards": shards,
                        "mode": mode,
                        "executor": "persistent",
                        "transport": spec.sharding.resolved_transport,
                        "report": REPORT,
                        "chunk": CHUNK,
                        "pipeline_buffer": PIPELINE_BUFFER,
                        "spec": spec.to_dict(),
                    },
                )
            )
        row["speedup"] = row["pipelined"] / row["sync"]
        summary[f"{feed}/shards{shards}"] = row
    return results, summary


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
        help="output JSON path (default: BENCH_pipelined_ingest.json at repo root)",
    )
    args = parser.parse_args(argv)
    n = 4_000 if args.smoke else N
    scalar_n = 1_000 if args.smoke else SCALAR_N
    # best-of keeps the gates stable against scheduler noise
    repeats = 3 if args.smoke else 5
    results, summary = run_harness(
        n=n,
        scalar_n=scalar_n,
        shard_counts=SHARD_COUNTS,
        repeats=repeats,
        with_context=not args.smoke,
    )

    out = args.out or (repo_root() / "BENCH_pipelined_ingest.json")
    write_results(
        out,
        results,
        extra={
            "workload": {
                "packets": n,
                "scalar_packets": scalar_n,
                "window": WINDOW,
                "counters": COUNTERS,
                "tau": TAU,
                "report": REPORT,
                "chunk": CHUNK,
                "pipeline_buffer": PIPELINE_BUFFER,
                "shard_counts": list(SHARD_COUNTS),
            },
            "summary": summary,
            "smoke": args.smoke,
        },
    )

    width = max(len(case) for case in summary)
    print(
        f"{'case'.ljust(width)}  {'sync ops/s':>13}  "
        f"{'pipelined ops/s':>15}  speedup"
    )
    for case, row in summary.items():
        print(
            f"{case.ljust(width)}  {row['sync']:>13,.0f}  "
            f"{row['pipelined']:>15,.0f}  {row['speedup']:>6.2f}x"
        )
    print(f"results -> {out}")

    failures: List[str] = []
    gated = summary[f"reports/shards{GATED_SHARDS}"]["speedup"]
    one = summary["reports/shards1"]["speedup"]
    if args.smoke:
        if gated < SMOKE_MIN_PIPE:
            failures.append(
                f"pipelined {gated:.2f}x < {SMOKE_MIN_PIPE}x synchronous on "
                f"the {GATED_SHARDS}-shard report feed (smoke no-regression)"
            )
    else:
        if gated < MIN_PIPE_4SHARD:
            failures.append(
                f"pipelined {gated:.2f}x < {MIN_PIPE_4SHARD}x synchronous "
                f"persistent on the {GATED_SHARDS}-shard report-scale "
                f"critical path"
            )
        if one < MIN_PIPE_1SHARD:
            failures.append(
                f"pipelined {one:.2f}x < {MIN_PIPE_1SHARD}x synchronous on "
                f"the 1-shard delegation path"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
