"""Service-ingest benchmark: the daemon's wire path vs the direct engine.

Extends the ``repro-bench/1`` perf trail to the always-on ingestion
service (``repro.service``):

* ``python benchmarks/bench_service_ingest.py`` — times the sustained
  report-scale critical path (``REPORT``-packet batches, the
  granularity the netwide controller receives per ``BatchReport``)
  three ways on the 4-shard persistent deployment:

  - ``direct``   — ``build_engine`` in-process, the coalescing sharded
    engine the service wraps (the ceiling);
  - ``service``  — the same engine behind :class:`ServiceDaemon`: every
    batch is one fire-and-forget ``report`` call over TCP loopback (the
    client coalesces calls into report frames of
    ``COALESCE_BYTES`` of keys, so a frame carries many batches); the
    timed pass ends with a flush-consistent ``top_k``, which sends the
    pending tail and makes the service pay its full ordered-queue drain;
  - ``service-ckpt`` — ``service`` plus periodic atomic checkpoints
    (every ``CKPT_INTERVAL`` packets); each row records the observed
    checkpoint pause p99, the durability cost ROADMAP item 2 tracks.

* a context row (full run only) repeats direct-vs-service on the bare
  single-process Memento engine, isolating pure protocol overhead from
  the sharded deployment's coalescing interplay.

* the full run gates the service contract: the daemon must sustain
  ≥ 1/``MAX_OVERHEAD`` of the direct sharded throughput on the
  4-shard report feed (service overhead ≤ ``MAX_OVERHEAD``×).
  ``--smoke`` shrinks the workload for CI and gates the same ratio
  against the relaxed ``MAX_OVERHEAD_SMOKE`` bound — still expressed
  as a ≥ 1.0× margin so a regression fails loudly.

Results persist to ``BENCH_service_ingest.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import repro  # noqa: F401 - probe for an installed package
except ModuleNotFoundError:  # uninstalled checkout: fall back to src/
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import ServiceClient, ServiceDaemon, generate_trace
from repro.bench import BenchResult, repo_root, write_results
from repro.engine import SketchSpec, build_engine
from repro.sharding.sharded import COALESCE_ITEMS
from repro.traffic.synth import BACKBONE

#: shard geometry: matches bench_pipelined_ingest.py so the two trails
#: compose — the ``direct`` rows here correspond to its coalesced rows
WINDOW = 131_072
COUNTERS = 512
TAU = 0.1
SHARDS = 4

#: report-scale feed: one ``report`` call per netwide-style batch
REPORT = 32
N = 40_000

#: checkpoint cadence for the ``service-ckpt`` rows
CKPT_INTERVAL = 10_000
SMOKE_CKPT_INTERVAL = 2_000

#: the service contract: daemon throughput ≥ direct/MAX_OVERHEAD on the
#: gated 4-shard report feed (i.e. wire+queue overhead ≤ MAX_OVERHEAD×)
MAX_OVERHEAD = 2.0
#: smoke runs ride CI noise on a tiny workload: relaxed bound, same
#: ≥ 1.0× margin formulation
MAX_OVERHEAD_SMOKE = 4.0

#: timed modes: (row-name suffix, behind the daemon?, checkpointing?)
MODES = (
    ("direct", False, False),
    ("service", True, False),
    ("service-ckpt", True, True),
)


def make_stream(n: int = N) -> list:
    return generate_trace(BACKBONE, n, seed=99).packets_1d()


def case_spec(
    sharded: bool,
    service: bool,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: int = CKPT_INTERVAL,
) -> SketchSpec:
    """The declarative spec of one timed deployment (rides in metadata)."""
    payload: Dict[str, object] = {
        "algorithm": {
            "family": "memento",
            "window": WINDOW,
            "counters": COUNTERS,
            "tau": TAU,
            "seed": 1,
        },
    }
    if sharded:
        payload["sharding"] = {"shards": SHARDS, "executor": "persistent"}
    if service:
        section: Dict[str, object] = {"port": 0}
        if checkpoint_dir is not None:
            section["checkpoint_dir"] = checkpoint_dir
            section["checkpoint_interval"] = checkpoint_interval
        payload["service"] = section
    return SketchSpec.from_dict(payload)


def feed_direct(engine, stream, batch: int = REPORT) -> None:
    update_many = engine.update_many
    for start in range(0, len(stream), batch):
        update_many(stream[start : start + batch])
    engine.top_k(1)  # flush + merge: the pass pays its full sync


def feed_service(client: ServiceClient, stream, batch: int = REPORT) -> None:
    report = client.report
    for start in range(0, len(stream), batch):
        report(stream[start : start + batch])
    client.top_k(1)  # flush-consistent read drains the ordered queue


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty series."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def time_direct(spec: SketchSpec, stream, repeats: int) -> float:
    """Best wall-seconds for one full in-process feed pass."""
    engine = build_engine(spec)
    try:
        feed_direct(engine, stream)  # warmup: spawns the workers
        best = float("inf")
        perf_counter = time.perf_counter
        for _ in range(repeats):
            t0 = perf_counter()
            feed_direct(engine, stream)
            best = min(best, perf_counter() - t0)
    finally:
        engine.close()
    return best


def time_service(
    spec: SketchSpec, stream, repeats: int
) -> Tuple[float, List[float]]:
    """Best wall-seconds for one full over-the-wire feed pass.

    Returns ``(best_seconds, checkpoint_pauses)`` with the pauses the
    daemon recorded across every pass (warmup included).
    """
    with ServiceDaemon(spec) as daemon:
        with ServiceClient.connect(port=daemon.port) as client:
            feed_service(client, stream)  # warmup
            best = float("inf")
            perf_counter = time.perf_counter
            for _ in range(repeats):
                t0 = perf_counter()
                feed_service(client, stream)
                best = min(best, perf_counter() - t0)
            pauses = list(client.stats()["checkpoint_pauses_s"])
    return best, pauses


def run_harness(
    n: int = N,
    repeats: int = 3,
    with_context: bool = True,
    checkpoint_interval: int = CKPT_INTERVAL,
) -> Tuple[List[BenchResult], Dict[str, Dict[str, float]]]:
    """Time direct vs service vs service-ckpt per deployment case.

    Returns the results plus a ``{case: {direct, service, service-ckpt,
    overhead, checkpoint_pause_p99_ms}}`` summary keyed
    ``reports/shards4`` (gated) and ``reports/bare`` (context).
    """
    stream = make_stream(n)
    ops = len(stream)
    cases = [("reports/shards4", True)]
    if with_context:
        cases.append(("reports/bare", False))
    results: List[BenchResult] = []
    summary: Dict[str, Dict[str, float]] = {}
    for case, sharded in cases:
        row: Dict[str, float] = {}
        pauses_p99 = 0.0
        for mode, behind_daemon, checkpointing in MODES:
            if checkpointing and not sharded:
                continue  # durability cost is measured on the gated case
            with tempfile.TemporaryDirectory() as tmp:
                spec = case_spec(
                    sharded,
                    service=behind_daemon,
                    checkpoint_dir=tmp if checkpointing else None,
                    checkpoint_interval=checkpoint_interval,
                )
                pauses: List[float] = []
                if behind_daemon:
                    seconds, pauses = time_service(spec, stream, repeats)
                else:
                    seconds = time_direct(spec, stream, repeats)
            row[mode] = ops / seconds
            p99 = percentile(pauses, 0.99)
            if checkpointing:
                pauses_p99 = p99
            results.append(
                BenchResult(
                    name=f"{case}/{mode}",
                    ops=ops,
                    seconds=seconds,
                    mean_seconds=seconds,
                    repeats=repeats,
                    metadata={
                        "case": case,
                        "mode": mode,
                        "report": REPORT,
                        "checkpoints": len(pauses),
                        "checkpoint_pause_p99_s": p99,
                        "transport": "tcp" if behind_daemon else "inproc",
                        "spec": spec.to_dict(),
                    },
                )
            )
        row["overhead"] = row["direct"] / row["service"]
        row["checkpoint_pause_p99_ms"] = pauses_p99 * 1e3
        summary[case] = row
    return results, summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI: fewer packets, relaxed overhead gate",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_service_ingest.json at repo root)",
    )
    args = parser.parse_args(argv)
    n = 4_000 if args.smoke else N
    # best-of keeps the gate stable against scheduler noise
    repeats = 3 if args.smoke else 5
    max_overhead = MAX_OVERHEAD_SMOKE if args.smoke else MAX_OVERHEAD
    results, summary = run_harness(
        n=n,
        repeats=repeats,
        with_context=not args.smoke,
        checkpoint_interval=SMOKE_CKPT_INTERVAL if args.smoke else CKPT_INTERVAL,
    )

    out = args.out or (repo_root() / "BENCH_service_ingest.json")
    write_results(
        out,
        results,
        extra={
            "workload": {
                "packets": n,
                "window": WINDOW,
                "counters": COUNTERS,
                "tau": TAU,
                "report": REPORT,
                "shards": SHARDS,
                "coalesce_items": COALESCE_ITEMS,
                "checkpoint_interval": (
                    SMOKE_CKPT_INTERVAL if args.smoke else CKPT_INTERVAL
                ),
            },
            "summary": summary,
            "max_overhead": max_overhead,
            "smoke": args.smoke,
        },
    )

    width = max(len(case) for case in summary)
    print(
        f"{'case'.ljust(width)}  {'direct ops/s':>13}  {'service ops/s':>14}  "
        f"{'ckpt ops/s':>12}  overhead  ckpt-p99"
    )
    for case, row in summary.items():
        ckpt = row.get("service-ckpt")
        print(
            f"{case.ljust(width)}  {row['direct']:>13,.0f}  "
            f"{row['service']:>14,.0f}  "
            f"{(f'{ckpt:,.0f}' if ckpt else '-'):>12}  "
            f"{row['overhead']:>7.2f}x  "
            f"{row['checkpoint_pause_p99_ms']:>6.1f}ms"
        )
    print(f"results -> {out}")

    failures: List[str] = []
    gated = summary["reports/shards4"]
    margin = gated["service"] / (gated["direct"] / max_overhead)
    if margin < 1.0:
        failures.append(
            f"service {gated['service']:,.0f} ops/s is "
            f"{gated['overhead']:.2f}x under the direct sharded engine "
            f"on the {SHARDS}-shard report feed — over the "
            f"{max_overhead}x overhead budget (margin {margin:.2f}x < 1.0x)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
