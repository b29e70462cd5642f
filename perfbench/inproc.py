"""The ``memento-direct`` workload, and the sharding layers its traced
run measures.

A bare Memento engine built by ``build_engine`` replays a seeded
Backbone-profile trace, so core.sampling, core.kernel and core.memento
do all the work.  Its traced run (``--trace 1``) also replays the same
trace through an engine built from the same algorithm section plus two
resident workers fed over shared memory and a pipelined front-end,
whose queries collect the workers' state and merge it; the spans of
that phase are the sharding layer's figures.  The sharded engine is not
an end-to-end workload of its own: three busy processes on a two-core
box measure the scheduler and the host more than the program (see
``README.md``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from .clock import Clock, StealFreeClock, thread_time
from .common import Metrics, RunContext, Stream, drive, freeze_inputs, peak_rss_mb, per_unit, put_latency, put_load_layer, timed_setups
from .oracle import grade_heavy_hitters, missed_fraction, sampling_envelope
from .reap import close_all
from .trace import Tracer, covered_ns

__all__ = ["FlatSize", "flat_size", "flat_spec", "run_direct"]


@dataclass(frozen=True)
class FlatSize:
    """Input and sketch sizes of the flat-key workloads."""

    trace: int  # packets in one pass of the trace
    window: int
    counters: int
    tau: float
    theta: float
    batch: int  # packets per update_many call
    top_k: int
    check_every: int  # detection-replay check cadence, in packets


FULL = FlatSize(
    trace=2_000_000, window=1_000_000, counters=1024, tau=1 / 16,
    theta=0.02, batch=8192, top_k=20, check_every=20_000,
)
TINY = FlatSize(
    trace=60_000, window=30_000, counters=256, tau=1 / 16,
    theta=0.05, batch=2048, top_k=10, check_every=3_000,
)

#: seconds between due queries, on the direct and on the sharded engine
PERIOD = 0.025
SHARDED_PERIOD = 0.07
#: set-up repetitions per run (the median is reported)
SETUPS = 20

#: packets of the in-process shard replay (its plan replay is slow)
REPLAY_PACKETS = 262_144

SHARDING = {"shards": 2, "executor": "persistent", "transport": "shm", "query_mode": "sum"}
PIPELINE = {"buffer_size": 4096, "depth": 2}


def flat_size(tiny: bool) -> FlatSize:
    return TINY if tiny else FULL


def flat_spec(size: FlatSize, seed: int, sharded: bool = False, service: Dict = None):
    """The resolved SketchSpec of a flat-key workload."""
    from repro.engine.spec import SketchSpec

    payload: Dict[str, object] = {
        "algorithm": {
            "family": "memento",
            "window": size.window,
            "counters": size.counters,
            "tau": size.tau,
            "seed": seed,
            "sampler": "table",
        }
    }
    if sharded:
        payload["sharding"] = dict(SHARDING)
        payload["pipeline"] = dict(PIPELINE)
    if service is not None:
        payload["service"] = service
    return SketchSpec.from_dict(payload)


def flat_trace(size: FlatSize, seed: int) -> List[int]:
    from repro.traffic.synth import BACKBONE, generate_trace

    return generate_trace(BACKBONE, size.trace, seed=seed).src


def exact_final_window(packets: List[int], window: int) -> Dict[int, int]:
    """Exact counts of the trace's last ``window`` packets, which is the
    final window of every run (runs end on a pass boundary)."""
    from repro.core.exact import ExactWindowCounter

    oracle = ExactWindowCounter(window)
    oracle.update_many(packets[-window:])
    return dict(oracle.items())


def grade_final(m: Metrics, reported, packets, size: FlatSize, shards: int = 1) -> Set[int]:
    """Grade the final heavy hitters; record recall and precision."""
    exact = exact_final_window(packets, size.window)
    envelope = sampling_envelope(size.window, size.counters, size.theta, 1 / size.tau, shards)
    grade = grade_heavy_hitters(reported, exact, size.window, size.theta, envelope)
    m.check("hh_recall reaches the oracle bound", grade.ok, grade.detail())
    m.put("hh_recall", grade.recall, "frac")
    m.put("hh_precision", grade.precision, "frac")
    m.record["hh_envelope_pkts"] = envelope
    return {k for k, c in exact.items() if c >= size.theta * size.window + envelope}


def flat_missed_frac(engine_factory, packets, targets, size: FlatSize) -> float:
    """Detection replay of one pass through a fresh engine."""
    keys = np.asarray(packets, dtype=np.int64)
    engine = engine_factory()
    try:
        return missed_fraction(
            keys,
            targets,
            size.check_every,
            ingest=lambda a, b: engine.update_many(packets[a:b]),
            detect=lambda: set(engine.heavy_hitters(size.theta)),
        )
    finally:
        engine.close()


def run_direct(ctx: RunContext) -> Metrics:
    from repro.engine import build_engine

    name = "memento-direct"
    size = flat_size(ctx.tiny)
    m = Metrics()
    packets = flat_trace(size, ctx.seed)
    spec = flat_spec(size, ctx.seed)
    m.record.update(
        workload=name, seed=ctx.seed, trace_packets=size.trace,
        batch=size.batch, theta=size.theta, spec=spec.to_dict(),
    )
    builds: List[float] = []
    stream = Stream(packets, size.batch)
    freeze_inputs()
    opened = []  # every engine built, closed on every exit path

    def setup():
        started = time.perf_counter()
        engine = build_engine(spec)
        builds.append(time.perf_counter() - started)
        opened.append(engine)
        stream.rewind()
        engine.update_many(stream.next_batch())
        engine.flush()
        return engine

    # all of the engine's work is on this thread, which never waits
    clock = Clock(thread_time)
    reps = 1 if ctx.tiny else SETUPS
    try:
        engine, setups = timed_setups(reps, setup, lambda e: (e.close(), opened.remove(e)), clock)
        m.put("setup_s", statistics.median(setups), "s")
        theta = size.theta
        untraced_s = ctx.seconds / 2 if ctx.trace else ctx.seconds
        ctx.log(f"{name}: timed phase ({untraced_s:.1f}s untraced)")
        phase = drive(
            stream, engine.update_many, lambda: engine.heavy_hitters(theta),
            untraced_s, PERIOD, finish_pass=not ctx.trace, clock=clock,
        )
        m.put("ingest_pps", phase.pps, "pkt/s")
        put_latency(m, phase)
        tracer = Tracer() if ctx.trace else None
        if ctx.trace:
            traced = _traced_direct(ctx, m, engine, stream, size, tracer, clock)
            m.put("trace.pps_ratio", traced.pps / phase.pps, "ratio")
            put_load_layer(m, traced)
            m.put("engine.build_s", statistics.median(builds), "s")
            phase = traced
        m.record["packets_ingested"] = stream.position
        m.record["passes"] = stream.passes
        targets = grade_final(m, phase.final, packets, size)
        m.put(
            "missed_frac",
            flat_missed_frac(lambda: build_engine(spec), packets, targets, size),
            "frac",
        )
        if ctx.trace:
            _sharding_layers(ctx, m, stream, size, tracer, opened)
            tracer.write(ctx.work_dir.parent / f"trace-{name}-seed{ctx.seed}.json")
    finally:
        close_all(opened)
    m.put("peak_rss_mb", peak_rss_mb(), "MB")
    return m


def _traced_direct(ctx, m, engine, stream, size, tracer, clock) -> object:
    """Traced phase of memento-direct: update_many decomposed into the
    sampler's decision column, the kernel's plan and the sketch's
    plan replay, each in its own span."""
    from repro.core.kernel import make_plan
    from repro.core.sampling import make_sampler

    algo = engine.spec.algorithm
    sketch = engine.sketch
    # salted so the decisions do not replay the trace generator's stream
    sampler = make_sampler(algo.tau, method=algo.sampler, seed=ctx.seed + 0x3C6EF372)
    span = tracer.span

    def update_many(items):
        with span("core.memento.update_many"):
            with span("core.sampling.decide"):
                decisions = sampler.decision_array(len(items))
            with span("core.kernel.plan"):
                plan = make_plan(items, decisions)
            with span("core.memento.apply"):
                sketch.ingest_plan(plan, sampled=True)

    sketch.update_many = update_many
    undo_query = tracer.wrap(sketch, "heavy_hitters", "core.memento.query")
    probed = clock.probe_wall_ns
    started = time.perf_counter_ns()
    first = stream.position
    try:
        phase = drive(
            stream,
            lambda batch: tracer.call("engine.update_many", engine.update_many, batch),
            lambda: tracer.call("engine.heavy_hitters", engine.heavy_hitters, size.theta),
            ctx.seconds / 4, PERIOD, finish_pass=True, clock=clock,
        )
    finally:
        del sketch.update_many
        undo_query()
    ended = time.perf_counter_ns()
    packets = stream.position - first
    st = tracer.self_times()
    ns = lambda name: st.get(name, (0, 0))[0]  # noqa: E731
    m.put("core.sampling.decide_ns_per_pkt", per_unit(ns("core.sampling.decide"), packets), "ns/pkt")
    m.put("core.kernel.plan_ns_per_pkt", per_unit(ns("core.kernel.plan"), packets), "ns/pkt")
    m.put("core.memento.apply_ns_per_pkt", per_unit(ns("core.memento.apply"), packets), "ns/pkt")
    m.put("engine.facade_ns_per_pkt", per_unit(ns("engine.update_many"), packets), "ns/pkt")
    queries = st.get("core.memento.query", (0, 0))
    m.put("core.memento.query_ms", per_unit(queries[0], queries[1]) / 1e6, "ms")
    m.put("core.memento.full_update_ratio", sketch.full_updates / sketch.updates, "ratio")
    timed = ended - started - (clock.probe_wall_ns - probed)
    m.put("trace.self_time_coverage", covered_ns(tracer.spans, started, ended) / timed, "frac")
    return phase


def _sharding_layers(ctx, m, stream, size, tracer, opened) -> None:
    """The last quarter of a traced memento-direct run: the same trace
    through a sharded engine (two resident shm workers behind a
    pipeline), traced; its final answer is graded like the direct one.
    Timed on the steal-free wall clock, since the parent waits for its
    workers."""
    from repro.engine import build_engine

    spec = flat_spec(size, ctx.seed, sharded=True)
    m.record["sharded_spec"] = spec.to_dict()
    engine = build_engine(spec)
    opened.append(engine)
    stream.rewind()
    engine.update_many(stream.next_batch())
    engine.flush()  # workers spawned and seeded
    ctx.ledger.note_mp_children()
    ctx.log("memento-direct: sharding layers (traced)")
    phase = _traced_sharded(ctx, m, engine, stream, size, tracer, Clock(StealFreeClock()))
    exact = exact_final_window(stream.packets, size.window)
    envelope = sampling_envelope(size.window, size.counters, size.theta, 1 / size.tau, 2)
    grade = grade_heavy_hitters(phase.final, exact, size.window, size.theta, envelope)
    m.check("sharded engine's hh_recall reaches the oracle bound", grade.ok, grade.detail())
    engine.close()
    opened.remove(engine)


def _traced_sharded(ctx, m, engine, stream, size, tracer, clock) -> object:
    """Traced sharded phase: submit time in the parent, the query split
    into flush, collect, merge and enumerate, then an in-process replay
    of each shard's plans."""
    from repro.core.merge import merge_memento

    span = tracer.span
    theta = size.theta

    def query():
        with span("sharding.query"):
            tracer.call("sharding.flush_wait", engine.flush)
            shards = tracer.call("sharding.collect", lambda: engine.sketch.shards)
            with span("core.merge.merge"):
                merged = merge_memento(shards, counters=sum(s.k for s in shards))
            return tracer.call("core.merge.query", merged.heavy_hitters, theta)

    first = stream.position
    phase = drive(
        stream,
        lambda batch: tracer.call("sharding.submit", engine.update_many, batch),
        query, ctx.seconds / 4, SHARDED_PERIOD, finish_pass=True, clock=clock,
    )
    # the phase's final answer comes from the engine's own query path
    phase.final = engine.heavy_hitters(theta)
    packets = stream.position - first
    st = tracer.self_times()
    m.put("sharding.submit_ns_per_pkt", per_unit(st.get("sharding.submit", (0, 0))[0], packets), "ns/pkt")
    for span_name, metric in (
        ("sharding.flush_wait", "sharding.flush_wait_ms"),
        ("sharding.collect", "sharding.collect_ms"),
        ("core.merge.merge", "core.merge.merge_ms"),
    ):
        ns, calls = st.get(span_name, (0, 0))
        m.put(metric, per_unit(ns, calls) / 1e6, "ms")
    _shard_replay(ctx, m, engine, stream.packets, size, tracer)
    return phase


def _shard_replay(ctx, m, engine, packets, size, tracer) -> None:
    """Replay one pass of each shard's plans in process
    (``plan_from_positions`` + ``ingest_plan``), the per-shard window
    alignment the resident workers do."""
    from repro.core.kernel import plan_from_positions
    from repro.engine import build_engine
    from repro.engine.registry import shard_seed

    sketch = engine.sketch
    shards = sketch.num_shards
    keys = np.asarray(packets, dtype=np.int64)
    unique, inverse = np.unique(keys, return_inverse=True)
    owner_of_unique = np.array([sketch.shard_of(int(k)) for k in unique.tolist()], dtype=np.int64)
    owners = owner_of_unique[inverse]
    counts = np.bincount(owners, minlength=shards)
    m.put("sharding.shard_skew", counts.max() / counts.mean(), "ratio")
    packets = packets[:REPLAY_PACKETS]
    algo = engine.spec.algorithm
    replicas = [
        build_engine({"algorithm": {
            "family": algo.family, "window": algo.window, "counters": algo.counters,
            "tau": algo.tau, "seed": shard_seed(algo.seed, i), "sampler": algo.sampler,
        }}).sketch
        for i in range(shards)
    ]
    span = tracer.span
    for start in range(0, len(packets), size.batch):
        batch = packets[start:start + size.batch]
        n = len(batch)
        with span("sharding.partition"):
            local = owners[start:start + n]
            plans = []
            for j in range(shards):
                positions = np.flatnonzero(local == j)
                plans.append(plan_from_positions([batch[i] for i in positions.tolist()], positions, n))
        for replica, plan in zip(replicas, plans):
            with span("sharding.shard_apply"):
                replica.ingest_plan(plan)
    st = tracer.self_times()
    m.put("sharding.partition_ns_per_pkt", per_unit(st["sharding.partition"][0], len(packets)), "ns/pkt")
    m.put("sharding.shard_apply_ns_per_pkt", per_unit(st["sharding.shard_apply"][0], len(packets)), "ns/pkt")
