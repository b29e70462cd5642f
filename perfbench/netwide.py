"""The ``hhh-netwide`` workload: the paper's Section 6.4 flood through a
network-wide D-H-Memento deployment.

Fifty random /8 subnets flood the Backbone-profile trace at a 70% share
(``traffic.flood``).  The stream is split round-robin over ten
Batch-method ``SamplingPoint``s whose sampling rate and batch size come
from the byte-budget model (1 byte per packet); their reports feed one
``SketchController`` hosting H-Memento over the source hierarchy.  Each
query is a monitoring tick: the detection call ``heavy_prefixes`` and
the HHH call ``output``.  It is the only workload where netwide,
hierarchy and core.h_memento do work.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from .clock import Clock, thread_time
from .common import Metrics, RunContext, Stream, drive, freeze_inputs, peak_rss_mb, per_unit, put_latency, put_load_layer, timed_setups
from .oracle import grade_heavy_hitters, missed_fraction, sampling_envelope
from .reap import close_all
from .trace import Tracer, covered_ns

__all__ = ["NetSize", "run_netwide"]


@dataclass(frozen=True)
class NetSize:
    base: int  # packets of the Backbone trace before the flood is mixed in
    window: int
    points: int
    batch: int  # stream packets per ingest step (split over the points)
    theta_detect: float  # heavy_prefixes threshold (flood subnets hold 1.4%)
    theta_hhh: float  # output threshold: selected << candidates (see README)
    check_every: int


FULL = NetSize(base=150_000, window=100_000, points=10, batch=8000,
               theta_detect=0.005, theta_hhh=0.15, check_every=5000)
TINY = NetSize(base=20_000, window=10_000, points=10, batch=2000,
               theta_detect=0.005, theta_hhh=0.6, check_every=1000)

PERIOD = 0.14  # seconds between due monitoring ticks
SETUPS = 20
SUBNET_MASK = 0xFF000000


def _flood(size: NetSize, seed: int):
    from repro.traffic.flood import FloodSpec, inject_flood
    from repro.traffic.synth import BACKBONE, generate_trace

    base = generate_trace(BACKBONE, size.base, seed=seed).src
    return inject_flood(
        base, spec=FloodSpec(num_subnets=50, share=0.7, subnet_bits=8),
        seed=seed + 1, start_index=size.base // 6,
    )


class Deployment:
    """Ten measurement points and the controller they report to."""

    def __init__(self, spec, tau: float, batch_size: int, points: int, seed: int) -> None:
        from repro.engine import build_engine
        from repro.netwide.controller import SketchController
        from repro.netwide.measurement_point import SamplingPoint

        started = time.perf_counter()
        self.engine = build_engine(spec)
        self.build_s = time.perf_counter() - started
        self.controller = SketchController(self.engine)
        self.points = [
            SamplingPoint(i, tau, batch_size=batch_size, seed=seed + i)
            for i in range(points)
        ]

    def ingest(self, batch) -> None:
        step = len(self.points)
        receive_many = self.controller.receive_many
        for j, point in enumerate(self.points):
            reports = point.observe_many(batch[j::step])
            if reports:
                receive_many(reports)

    def close(self) -> None:
        self.controller.close()


def run_netwide(ctx: RunContext) -> Metrics:
    from repro.core.exact import ExactWindowHHH
    from repro.engine.spec import SketchSpec
    from repro.hierarchy.domain import SRC_HIERARCHY
    from repro.netwide.budget import BudgetModel

    size = TINY if ctx.tiny else FULL
    m = Metrics()
    flood = _flood(size, ctx.seed)
    packets: List[int] = flood.src
    model = BudgetModel(points=size.points, header=64, payload=4, budget=1.0,
                        window=size.window, hierarchy_size=SRC_HIERARCHY.num_patterns,
                        delta=0.001)
    batch_size = model.optimal_batch()
    tau = model.tau(batch_size)
    counters = max(1024, size.window // 8)
    spec = SketchSpec.from_dict({
        "algorithm": {"family": "h_memento", "window": size.window, "counters": counters,
                      "tau": tau, "seed": ctx.seed, "delta": 0.001},
        "hierarchy": {"kind": "src"},
    })
    m.record.update(
        workload="hhh-netwide", seed=ctx.seed, trace_packets=len(packets),
        base_packets=size.base, flood_start=flood.start_index,
        attack_packets=flood.attack_packets, points=size.points,
        report_batch=batch_size, tau=tau, batch=size.batch,
        theta_detect=size.theta_detect, theta_hhh=size.theta_hhh,
        spec=spec.to_dict(),
    )
    theta_d, theta_h = size.theta_detect, size.theta_hhh

    stream = Stream(packets, size.batch)
    freeze_inputs()
    opened = []  # every deployment built, closed on every exit path

    builds: List[float] = []

    def setup():
        deployment = Deployment(spec, tau, batch_size, size.points, ctx.seed)
        opened.append(deployment)
        builds.append(deployment.build_s)
        stream.rewind()
        deployment.ingest(stream.next_batch())
        return deployment

    try:
        reps = 1 if ctx.tiny else SETUPS
        # every point and the controller run on this thread, which never
        # waits: it is timed on its own CPU clock
        clock = Clock(thread_time)
        deployment, setups = timed_setups(reps, setup, lambda d: (d.close(), opened.remove(d)), clock)
        m.put("setup_s", statistics.median(setups), "s")
        controller = deployment.controller

        def tick():
            return controller.heavy_prefixes(theta_d), controller.output(theta_h)

        untraced_s = ctx.seconds / 2 if ctx.trace else ctx.seconds
        ctx.log(f"hhh-netwide: timed phase ({untraced_s:.1f}s untraced)")
        phase = drive(stream, deployment.ingest, tick, untraced_s, PERIOD,
                      finish_pass=not ctx.trace, clock=clock)
        m.put("ingest_pps", phase.pps, "pkt/s")
        put_latency(m, phase)
        if ctx.trace:
            tracer = Tracer()
            traced = _traced(ctx, m, deployment, stream, size, tracer, clock)
            m.put("trace.pps_ratio", traced.pps / phase.pps, "ratio")
            put_load_layer(m, traced)
            m.put("engine.build_s", statistics.median(builds), "s")
            points = deployment.points
            m.put("netwide.bytes_per_pkt", sum(p.bytes_sent for p in points) / sum(p.packets_seen for p in points), "B/pkt")
            m.put("netwide.reports", sum(p.reports_sent for p in points), "count")
            tracer.write(ctx.work_dir.parent / f"trace-hhh-netwide-seed{ctx.seed}.json")
            phase = traced
        detected, hhh = phase.final
        m.record["packets_ingested"] = stream.position
        m.record["passes"] = stream.passes
        m.record["final_hhh"] = sorted(hhh)

        # exact per-prefix counts of the final window (the last W packets)
        oracle = ExactWindowHHH(SRC_HIERARCHY, size.window)
        oracle.update_many(packets[-size.window:])
        exact = {}
        for counter in oracle.counters():
            exact.update(counter.items())
        scale = SRC_HIERARCHY.num_patterns / tau
        envelope = (sampling_envelope(size.window, counters, theta_d, scale)
                    + 2 * theta_d * model.delay_error(batch_size))
        grade = grade_heavy_hitters(detected, exact, size.window, theta_d, envelope)
        m.check("hh_recall reaches the oracle bound", grade.ok, grade.detail())
        m.put("hh_recall", grade.recall, "frac")
        m.put("hh_precision", grade.precision, "frac")
        m.record["hh_envelope_pkts"] = envelope
        m.put("missed_frac", _missed(spec, tau, batch_size, size, ctx.seed, flood, theta_d), "frac")
    finally:
        close_all(opened)
    m.put("peak_rss_mb", peak_rss_mb(), "MB")
    return m


def _missed(spec, tau, batch_size, size, seed, flood, theta_d) -> float:
    """Figure 10c: attack packets that arrive before their subnet is first
    detected, on one pass through a fresh deployment."""
    keys = np.asarray(flood.src, dtype=np.int64) & SUBNET_MASK
    counted = np.asarray(flood.is_attack, dtype=bool)
    targets = {base for base, _ in flood.subnets}
    deployment = Deployment(spec, tau, batch_size, size.points, seed)
    packets = flood.src
    try:
        return missed_fraction(
            keys, targets, size.check_every,
            ingest=lambda a, b: deployment.ingest(packets[a:b]),
            detect=lambda: {p[0] for p in deployment.controller.heavy_prefixes(theta_d) if p[1] == 8},
            counted=counted,
        )
    finally:
        deployment.close()


def _traced(ctx, m, deployment, stream, size, tracer: Tracer, clock):
    """Traced phase: observe/receive spans per point, H-Memento's ingest
    calls under receive, and the tick split into detection and
    ``compute_hhh`` over H-Memento's public estimators."""
    from repro.hierarchy.hhh_output import compute_hhh

    engine = deployment.engine
    controller = deployment.controller
    span = tracer.span
    undo = [
        tracer.wrap(engine, "ingest_samples", "core.h_memento.ingest"),
        tracer.wrap(engine, "ingest_gap", "core.h_memento.ingest"),
    ]
    step = len(deployment.points)
    last = {}  # the last tick's candidate and selected counts

    def ingest(batch):
        for j, point in enumerate(deployment.points):
            with span("netwide.observe"):
                reports = point.observe_many(batch[j::step])
            if reports:
                with span("netwide.receive"):
                    controller.receive_many(reports)

    def counting(fn):
        def estimator(prefix):
            tracer.count("hierarchy.estimator_calls")
            return fn(prefix)
        return estimator

    hierarchy = engine.sketch.hierarchy
    upper, lower = counting(engine.query), counting(engine.query_lower)

    def tick():
        with span("core.h_memento.detect"):
            detected = controller.heavy_prefixes(size.theta_detect)
        with span("hierarchy.hhh"):
            candidates = list(engine.candidates())
            selected = compute_hhh(
                hierarchy, candidates, upper=upper, lower=lower,
                threshold_count=size.theta_hhh * size.window,
                correction=engine.sampling_correction(),
            )
        last.update(candidates=len(candidates), selected=len(selected))
        return detected, selected

    samples_before = controller.samples_ingested
    probed = clock.probe_wall_ns
    started = time.perf_counter_ns()
    first = stream.position
    try:
        phase = drive(stream, ingest, tick, ctx.seconds / 2, PERIOD, finish_pass=True, clock=clock)
    finally:
        for restore in undo:
            restore()
    ended = time.perf_counter_ns()
    packets = stream.position - first
    samples = controller.samples_ingested - samples_before
    st = tracer.self_times()
    ns = lambda name: st.get(name, (0, 0))[0]  # noqa: E731
    m.put("netwide.observe_ns_per_pkt", per_unit(ns("netwide.observe"), packets), "ns/pkt")
    m.put("netwide.receive_ns_per_sample", per_unit(ns("netwide.receive"), samples), "ns/sample")
    m.put("core.h_memento.ingest_ns_per_sample", per_unit(ns("core.h_memento.ingest"), samples), "ns/sample")
    detect_ns, detect_calls = st.get("core.h_memento.detect", (0, 0))
    m.put("core.h_memento.detect_ms", per_unit(detect_ns, detect_calls) / 1e6, "ms")
    hhh_ns, hhh_calls = st.get("hierarchy.hhh", (0, 0))
    m.put("hierarchy.hhh_ms", per_unit(hhh_ns, hhh_calls) / 1e6, "ms")
    m.put("hierarchy.hhh_candidates", last["candidates"], "count")
    m.put("hierarchy.hhh_selected", last["selected"], "count")
    m.put("hierarchy.estimator_calls", per_unit(tracer.counts["hierarchy.estimator_calls"], hhh_calls), "count")
    timed = ended - started - (clock.probe_wall_ns - probed)
    m.put("trace.self_time_coverage", covered_ns(tracer.spans, started, ended) / timed, "frac")
    return phase
