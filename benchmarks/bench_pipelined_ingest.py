"""Coalesced-ingest benchmark: coalesced vs flush-each sharded feeds.

Extends the ``repro-bench/1`` perf trail (``bench_micro_updates.py``,
``bench_sharded_ingest.py``, ``bench_vectorized_ingest.py``) to the
write coalescing every :class:`~repro.sharding.ShardedSketch` does
(writes are partitioned and applied every ``COALESCE_ITEMS`` items):

* ``python benchmarks/bench_pipelined_ingest.py`` — times the
  **report-scale critical path**: the stream arrives in small batches
  (``REPORT`` packets each, the granularity the netwide controller
  receives per ``BatchReport``), at 1 and 4 shards on the persistent
  executor, two ways.  ``flush_each`` calls ``flush()`` after every
  write, so each small batch pays its own partition pass plus ``S``
  pipe messages — the uncoalesced path, measured through the public
  API.  ``coalesced`` just writes: the batches coalesce into
  ``COALESCE_ITEMS``-item spills.  Timed passes end with a query, so
  both pay their full ``flush`` + ``collect`` sync.
* two context rows (ungated): the same comparison under **scalar**
  ``update`` calls on a resident 4-shard sketch (flushed each time:
  ``S`` pipe messages *per packet*, the O(S) path coalescing removes)
  and under pre-chunked 4096-packet batches (at ``COALESCE_ITEMS`` a
  batch skips the buffer, so both modes take the same path).  The
  scalar row's timed pass is its 4000 writes plus ``flush()``: the
  collect that a query adds (four W=131072 shard states pickled back,
  several times the writes' own cost) is timed on its own and recorded
  as the row's ``collect_seconds``.  The executor picks each batch's
  lane from its size: report-scale batches are pickled into the worker
  pipes, chunk-scale ones ride the shared-memory ring.
* the full run gates coalescing: it must reach ≥ ``MIN_PIPE_4SHARD``×
  the flush-each path at 4 shards and ≥ ``MIN_PIPE_1SHARD``× at 1
  shard (the delegation fast path — coalescing must never cost
  throughput).  ``--smoke`` shrinks the workload for CI and relaxes
  the gate to a plain ≥ 1.0× no-regression bound at 4 shards.

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
from repro.sharding.sharded import COALESCE_ITEMS
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

N = 40_000
SCALAR_N = 4_000
SHARD_COUNTS = (1, 4)
GATED_SHARDS = 4

#: full-run gates on the report-scale feed
MIN_PIPE_4SHARD = 1.3
MIN_PIPE_1SHARD = 1.0
#: smoke-mode no-regression gate (CI noise tolerance is the repeats)
SMOKE_MIN_PIPE = 1.0

#: timed modes: (row-name suffix, flush after every write?)
MODES = (
    ("flush_each", True),
    ("coalesced", False),
)


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def case_spec(shards: int) -> SketchSpec:
    """The declarative spec of one timed deployment.

    Every timed construction goes through ``build_engine`` on this, and
    the spec rides in the persisted row's metadata — any row reproduces
    from its spec alone (per-shard seeds derive from the base seed via
    the registry's convention).
    """
    return SketchSpec.from_dict({
        "algorithm": {
            "family": "memento",
            "window": WINDOW,
            "counters": COUNTERS,
            "tau": TAU,
            "seed": 1,
        },
        "sharding": {"shards": shards, "executor": "persistent"},
    })


class FlushEach:
    """An engine whose every write is applied at once: ``flush()``
    after each call, so nothing coalesces."""

    def __init__(self, engine) -> None:
        self._engine = engine

    def update(self, item) -> None:
        self._engine.update(item)
        self._engine.flush()

    def update_many(self, items) -> None:
        self._engine.update_many(items)
        self._engine.flush()

    def flush(self) -> None:
        self._engine.flush()

    def query(self, key) -> float:
        return self._engine.query(key)


def feed_reports(sharded, stream, batch: int = REPORT) -> None:
    """Report-scale delivery: one small ``update_many`` per report."""
    update_many = sharded.update_many
    for start in range(0, len(stream), batch):
        update_many(stream[start : start + batch])


def feed_scalar(sharded, stream) -> None:
    """Per-packet delivery (O(S) pipe messages per packet when flushed)."""
    update = sharded.update
    for item in stream:
        update(item)


def feed_chunks(sharded, stream, chunk: int = CHUNK) -> None:
    """Pre-chunked delivery: the flush-each path's best case."""
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
    flush_each: bool,
    stream,
    repeats: int,
) -> Tuple[float, Optional[float]]:
    """Best wall-seconds for one full feed pass + its sync point, and
    for the scalar feed the best separately timed collect.

    The report and chunk feeds end each pass with a query (``flush`` +
    ``collect``).  The scalar feed ends it with ``flush()`` only; the
    query that follows is timed on its own, since its collect costs
    several times the 4000 writes and would otherwise set the row.
    """
    engine = build_engine(case_spec(shards))
    sharded = FlushEach(engine) if flush_each else engine
    drive = FEEDS[feed]
    probe = stream[0]
    split_collect = feed == "scalar"
    try:
        # prime residency: one batch seeds the persistent workers, so the
        # scalar feed measures the *resident* per-packet path (S pipe
        # messages per update when flushed) rather than quietly staying
        # on the in-process never-seeded path
        if shards > 1:
            engine.update_many(stream[:REPORT])
            engine.query(probe)
        # warmup pass spawns workers and fills caches
        drive(sharded, stream)
        sharded.query(probe)
        best = float("inf")
        best_collect = float("inf")
        perf_counter = time.perf_counter
        for _ in range(repeats):
            t0 = perf_counter()
            drive(sharded, stream)
            if split_collect:
                sharded.flush()
                t1 = perf_counter()
                sharded.query(probe)
                best_collect = min(best_collect, perf_counter() - t1)
            else:
                sharded.query(probe)  # applies the buffer, pays the collect
                t1 = perf_counter()
            best = min(best, t1 - t0)
    finally:
        engine.close()
    return best, (best_collect if split_collect else None)


def run_harness(
    n: int = N,
    scalar_n: int = SCALAR_N,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    repeats: int = 3,
    with_context: bool = True,
) -> Tuple[List[BenchResult], Dict[str, Dict[str, float]]]:
    """Time flush-each vs coalesced per (feed, shard count).

    Returns the results plus a ``{case: {flush_each, coalesced,
    speedup}}`` summary, keyed ``reports/shards{S}`` for the gated
    critical path and ``scalar/shards4`` / ``chunks/shards4`` for the
    context rows (the scalar row adds each mode's
    ``<mode>_collect_seconds``).
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
        spec = case_spec(shards)
        for mode, flush_each in MODES:
            seconds, collect = time_feed(
                feed, shards, flush_each, case_stream, repeats
            )
            row[mode] = ops / seconds
            split: Dict[str, float] = {}
            if collect is not None:
                split["collect_seconds"] = collect
                row[f"{mode}_collect_seconds"] = collect
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
                        "coalesce_items": COALESCE_ITEMS,
                        "sync": "query" if collect is None else "flush",
                        "spec": spec.to_dict(),
                        **split,
                    },
                )
            )
        row["speedup"] = row["coalesced"] / row["flush_each"]
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
                "coalesce_items": COALESCE_ITEMS,
                "shard_counts": list(SHARD_COUNTS),
            },
            "summary": summary,
            "smoke": args.smoke,
        },
    )

    width = max(len(case) for case in summary)
    print(
        f"{'case'.ljust(width)}  {'flush_each ops/s':>16}  "
        f"{'coalesced ops/s':>15}  speedup"
    )
    for case, row in summary.items():
        print(
            f"{case.ljust(width)}  {row['flush_each']:>16,.0f}  "
            f"{row['coalesced']:>15,.0f}  {row['speedup']:>6.2f}x"
        )
    print(f"results -> {out}")

    failures: List[str] = []
    gated = summary[f"reports/shards{GATED_SHARDS}"]["speedup"]
    one = summary["reports/shards1"]["speedup"]
    if args.smoke:
        if gated < SMOKE_MIN_PIPE:
            failures.append(
                f"coalesced {gated:.2f}x < {SMOKE_MIN_PIPE}x flush-each on "
                f"the {GATED_SHARDS}-shard report feed (smoke no-regression)"
            )
    else:
        if gated < MIN_PIPE_4SHARD:
            failures.append(
                f"coalesced {gated:.2f}x < {MIN_PIPE_4SHARD}x flush-each "
                f"persistent on the {GATED_SHARDS}-shard report-scale "
                f"critical path"
            )
        if one < MIN_PIPE_1SHARD:
            failures.append(
                f"coalesced {one:.2f}x < {MIN_PIPE_1SHARD}x flush-each on "
                f"the 1-shard delegation path"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
