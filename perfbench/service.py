"""The ``memento-service`` workload: ``repro-serve`` hosting bare Memento.

The daemon runs as a child process in its own session, with
checkpointing on.  One connection streams netwide-report-sized
``report`` frames (closed loop); a second connection, on the second
thread, issues flush-consistent ``heavy_hitters`` at a fixed rate (open
loop), so reads wait behind queued writes.  Wire framing, JSON decode
and the daemon's ordered queue dominate; the core kernel is a small
share.  The final answers must equal a direct engine's on the same
stream and seed (service-fed == direct).
"""

from __future__ import annotations

import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import List

from .clock import Clock, StealFreeClock
from .common import Metrics, Phase, QuerySchedule, RunContext, SliceMeter, Stream, freeze_inputs, latency_summary, peak_rss_mb, per_unit, put_latency, put_load_layer, timed_setups
from .inproc import flat_missed_frac, flat_size, flat_spec, flat_trace, grade_final
from .oracle import same_answers
from .reap import close_all, stop_popen
from .trace import Tracer

__all__ = ["run_service"]

FRAME = 32  # packets per report frame (a netwide Batch report's size)
PERIOD = 0.025  # seconds between due queries on the query connection
SETUPS = 5
CHECKPOINT_INTERVAL = {False: 1_000_000, True: 20_000}  # keyed by tiny
READY_TIMEOUT_S = 60.0
#: backpressure budget: bounds the writes a read can queue behind
INFLIGHT_BYTES = 128 * 1024


class Daemon:
    """One running ``repro-serve`` plus the ingest connection."""

    def __init__(self, proc: subprocess.Popen, port: int, client) -> None:
        self.proc = proc
        self.port = port
        self.client = client

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            stop_popen(self.proc)


def _read_ready_line(proc: subprocess.Popen, timeout_s: float) -> dict:
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("repro-serve did not report listening in time")
        readable, _, _ = select.select([proc.stdout], [], [], remaining)
        if readable:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"repro-serve exited early (code {proc.poll()})")
            return json.loads(line)


def run_service(ctx: RunContext) -> Metrics:
    from repro.engine import build_engine
    from repro.service.client import ServiceClient, ServiceError

    size = flat_size(ctx.tiny)
    m = Metrics()
    packets = flat_trace(size, ctx.seed)
    ckpt_dir = ctx.work_dir / "checkpoints"
    spec = flat_spec(size, ctx.seed, service={
        "host": "127.0.0.1", "port": 0, "checkpoint_dir": str(ckpt_dir),
        "checkpoint_interval": CHECKPOINT_INTERVAL[ctx.tiny], "checkpoint_retain": 2,
        "max_inflight_bytes": INFLIGHT_BYTES,
    })
    direct_spec = flat_spec(size, ctx.seed)
    spec_path = ctx.work_dir / "service-spec.json"
    spec.to_file(spec_path)
    m.record.update(
        workload="memento-service", seed=ctx.seed, trace_packets=size.trace,
        frame_packets=FRAME, theta=size.theta, spec=spec.to_dict(),
    )
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    stderr_path = ctx.work_dir / "repro-serve.stderr"

    stream = Stream(packets, FRAME)
    freeze_inputs()
    opened: List[Daemon] = []  # closed on every exit path

    def setup() -> Daemon:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        with open(stderr_path, "ab") as stderr:
            proc = ctx.ledger.spawn(
                [sys.executable, "-m", "repro.service", str(spec_path)],
                stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=str(ctx.work_dir),
            )
        ctx.log(f"memento-service: daemon pid {proc.pid} session {proc.pid}")
        try:
            port = int(_read_ready_line(proc, READY_TIMEOUT_S)["port"])
            client = ServiceClient.connect(port=port, timeout=READY_TIMEOUT_S)
        except BaseException:
            stop_popen(proc)
            raise
        daemon = Daemon(proc, port, client)
        opened.append(daemon)
        stream.rewind()
        client.report(stream.next_batch())
        client.flush()
        return daemon

    # the client, the daemon and the query thread wait for each other:
    # everything is timed on the steal-free wall clock
    clock = Clock(StealFreeClock())
    query_client = None
    try:
        reps = 1 if ctx.tiny else SETUPS
        daemon, setups = timed_setups(reps, setup, lambda d: (d.close(), opened.remove(d)), clock)
        m.put("setup_s", statistics.median(setups), "s")
        client = daemon.client
        query_client = ServiceClient.connect(port=daemon.port, timeout=READY_TIMEOUT_S)
        untraced_s = ctx.seconds / 2 if ctx.trace else ctx.seconds
        ctx.log(f"memento-service: timed phase ({untraced_s:.1f}s untraced)")
        phase = _phase(stream, client.report, client, query_client, size.theta,
                       untraced_s, finish_pass=not ctx.trace, errors=(ServiceError,), clock=clock)
        m.put("ingest_pps", phase.pps, "pkt/s")
        put_latency(m, phase)
        if ctx.trace:
            tracer = Tracer()
            traced = _phase(
                stream,
                lambda items: tracer.call("service.report_call", client.report, items),
                client, query_client, size.theta, ctx.seconds / 2,
                finish_pass=True, errors=(ServiceError,), clock=clock,
            )
            m.put("trace.pps_ratio", traced.pps / phase.pps, "ratio")
            put_load_layer(m, traced)
            st = tracer.self_times()
            m.put("service.report_call_ns_per_pkt",
                  per_unit(st.get("service.report_call", (0, 0))[0], traced.packets), "ns/pkt")
            m.put("trace.self_time_coverage",
                  st.get("service.report_call", (0, 0))[0] / (traced.elapsed * 1e9), "frac")
            _wire_probe(m, packets, tracer)
            stats = client.stats()
            pauses = stats.get("checkpoint_pauses_s") or []
            m.put("service.checkpoint_pause_ms", statistics.median(pauses) * 1e3 if pauses else 0.0, "ms")
            m.put("service.inflight_peak_bytes", stats.get("inflight_peak_bytes", 0), "B")
            files = sorted(ckpt_dir.glob("*"), key=lambda p: p.stat().st_mtime)
            m.put("service.checkpoint_bytes", files[-1].stat().st_size if files else 0, "B")
            tracer.write(ctx.work_dir.parent / f"trace-memento-service-seed{ctx.seed}.json")
            phase = traced
        # outside the timed phase: the final answers against a direct
        # engine fed the same stream, and against the exact oracle
        service_top = client.top_k(size.top_k)
        service_hh = phase.final
        position = client.flush()
        m.check("daemon position equals packets sent", position == stream.position,
                f"daemon {position}, sent {stream.position}")
        m.record["packets_ingested"] = stream.position
        m.record["passes"] = stream.passes
        with build_engine(direct_spec) as direct:
            for _ in range(int(stream.passes)):
                for start in range(0, len(packets), 1 << 16):
                    direct.update_many(packets[start:start + (1 << 16)])
            ok, detail = same_answers(
                (service_top, service_hh),
                (direct.top_k(size.top_k), direct.heavy_hitters(size.theta)),
            )
            m.check("service-fed answers equal direct", ok, detail)
            if ctx.trace:
                costs = []
                for _ in range(5):
                    started = time.perf_counter()
                    direct.heavy_hitters(size.theta)
                    costs.append(time.perf_counter() - started)
                wait = latency_summary(phase.schedule.latencies)["p50_ms"] - statistics.median(costs) * 1e3
                m.put("service.query_wait_ms", wait, "ms")
                started = time.perf_counter()
                build_engine(direct_spec)
                m.put("engine.build_s", time.perf_counter() - started, "s")
        targets = grade_final(m, service_hh, packets, size)
        m.put("missed_frac", flat_missed_frac(lambda: build_engine(direct_spec), packets, targets, size), "frac")
    finally:
        close_all([c for c in (query_client,) if c is not None] + opened)
    m.put("peak_rss_mb", peak_rss_mb(), "MB")
    return m


def _phase(stream, report, client, query_client, theta, seconds, finish_pass, errors, clock) -> Phase:
    """One timed phase: closed-loop reports on this thread, open-loop
    queries on a second thread and connection.  Rates, due times and
    latencies are read from ``clock`` and scaled by its host-speed
    factor; the phase lasts ``seconds`` of wall time."""
    first = stream.position
    meter = SliceMeter(clock, first)
    start = clock()
    schedule = QuerySchedule(PERIOD, start)
    stop = threading.Event()
    crashed: List[BaseException] = []

    def query_loop() -> None:
        try:
            while True:
                due = schedule.next_due
                while clock() < due:
                    if stop.wait(due - clock()):
                        return
                issued = clock()
                try:
                    query_client.heavy_hitters(theta)
                    ok = True
                except errors:
                    ok = False
                # the median factor: a probe here would stop the clock
                # while the ingest thread goes on reporting
                schedule.done(due, issued, clock(), clock.factor, ok)
        except BaseException as exc:  # surfaced by the main thread
            crashed.append(exc)

    querier = threading.Thread(target=query_loop, name="perfbench-query", daemon=True)
    querier.start()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if time.perf_counter() >= deadline and (not finish_pass or stream.at_pass_end):
                break
            meter.tick(stream.position)
            report(stream.next_batch())
        # flush-consistent: ordered after every report on this connection
        final = client.heavy_hitters(theta)
        elapsed = clock() - start
    finally:
        stop.set()
        querier.join(timeout=60.0)
        if querier.is_alive():
            query_client.close()  # unblocks a stuck recv
            querier.join(timeout=10.0)
    if crashed:
        raise crashed[0]
    return Phase(stream.position - first, elapsed, schedule, final, meter)


def _wire_probe(m: Metrics, packets, tracer: Tracer) -> None:
    """``encode_frame`` / ``decode_payload`` over one pass of the
    workload's own report frames."""
    from repro.service.protocol import decode_payload, encode_frame

    wire = 0
    for start in range(0, len(packets), FRAME):
        message = {"op": "report", "items": packets[start:start + FRAME]}
        with tracer.span("service.encode"):
            frame = encode_frame(message)
        with tracer.span("service.decode"):
            decode_payload(frame[4:])
        wire += len(frame)
    st = tracer.self_times()
    m.put("service.encode_ns_per_pkt", per_unit(st["service.encode"][0], len(packets)), "ns/pkt")
    m.put("service.decode_ns_per_pkt", per_unit(st["service.decode"][0], len(packets)), "ns/pkt")
    m.put("service.wire_bytes_per_pkt", wire / len(packets), "B/pkt")
