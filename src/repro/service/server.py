"""The always-on ingestion daemon: asyncio front-end over one engine.

:class:`IngestServer` hosts a single
:class:`~repro.engine.HeavyHitterEngine` behind the ``repro-wire/2``
protocol (:mod:`repro.service.protocol`) on TCP and/or a unix socket.
Reports are binary key columns (a 6-byte header — op ``0x01``, dtype
``0x01`` uint32 or ``0x02`` int64, little-endian uint32 count — then the
little-endian keys); control ops and responses are JSON objects.  Many
clients connect concurrently; every accepted op — fire-and-forget
``report``/``gap`` frames and synchronous ``flush``/``query``/
``heavy_hitters``/``top_k``/``stats``/``checkpoint`` requests — enters
one ordered queue drained by a pump task, and all engine work runs on a
single dedicated thread, so the engine observes a serial op stream
exactly as a synchronous caller would have produced.

**Multi-frame reads**: a client handler reads whatever its socket has
(up to 64 KiB) and parses every complete frame in one pass; each run of
consecutive report columns becomes one queued op, and the pump joins
queued columns again before one engine hop.  The engine thread hands
the joined column to ``update_many`` as a zero-copy numpy view:
Memento boxes only the keys it samples (``column[positions].tolist()``)
and every other family converts the column with one ``tolist()``, so
sketch keys stay Python ``int`` and a service-fed engine's state (and
its pickled checkpoint bytes) equals a directly fed engine's.

**Backpressure** is real, not a growing queue: each run's (or gap
frame's) wire bytes are charged against ``ServiceSpec.max_inflight_bytes``
*before* the handler reads from its client again, and credited back
only after the engine applied the op.  A full budget therefore stops
the server reading, the socket buffers fill, and the transport pushes
back on the producing clients (one over-budget op is admitted when the
pipeline is idle so a single oversized report cannot deadlock).  The
observed high-water mark is exported in ``stats`` as
``inflight_peak_bytes``.

**Flush-consistent reads**: query ops travel the same queue as reports
and call ``engine.flush()`` first, so a response reflects every report
frame any client had submitted before the query was accepted.  A
handler queues the report columns parsed ahead of a JSON op before
that op, so per-connection order is the wire order.

**Checkpoints**: with ``ServiceSpec.checkpoint_dir`` configured, the
pump snapshots the engine through :class:`~repro.service.checkpoint
.CheckpointStore` every ``checkpoint_interval`` accepted items (and
once more on clean shutdown).  Ingestion pauses for the snapshot —
pause durations are recorded and exported in ``stats`` — which is what
makes the checkpoint a consistent cut: its ``position`` equals exactly
the items applied.

A malformed frame, or EOF inside a frame, drops that client; what it
sent before the bad frame stays applied.  A failed engine apply poisons
the pump exactly like a failed sharded apply: later reports are
consumed-and-dropped (their budget is still credited back, so no client
deadlocks) and the first failure surfaces on every subsequent
synchronous op and in ``stats``.

:class:`ServiceDaemon` wraps the server in a background thread with its
own event loop for synchronous callers (tests, examples, benchmarks);
``close()`` unwinds engine → executor → sockets, in that
order, on both classes.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.facade import HeavyHitterEngine, SpecLike, _coerce_spec, build_engine
from ..engine.spec import SketchSpec
from .checkpoint import CheckpointStore
from .protocol import ProtocolError, encode_frame, join_columns, split_frames

__all__ = ["ClientStalledError", "IngestServer", "ServiceDaemon"]

#: Queue sentinel asking the pump task to exit.
_STOP = object()

#: Most bytes one socket read takes; every complete frame in them is
#: parsed before the next read.
_READ_BYTES = 64 * 1024

#: Request ops that get a response (``report`` and ``gap`` get none).
_SYNC_OPS = ("flush", "query", "heavy_hitters", "top_k", "stats", "checkpoint")

#: Seconds a reply may wait for its client to read it (``drain()``)
#: before the client is dropped as stalled.
DRAIN_TIMEOUT = 10.0


class ClientStalledError(ConnectionError):
    """A client left a reply unread for :data:`DRAIN_TIMEOUT` seconds.

    Its connection handler drops it: the unread replies are discarded
    and the connection is aborted.  Other clients never wait on it, and
    ``stats`` counts the drop as ``stalled_clients``.
    """


class IngestServer:
    """Asyncio ingestion daemon for one engine (use from a running loop).

    ``spec`` must carry a ``service`` section
    (:class:`~repro.engine.ServiceSpec`).  By default the engine is
    built from the spec; pass ``engine=``/``position=`` to serve a
    restored engine resuming mid-stream (what ``repro-serve --restore``
    does).  The server owns the engine either way: :meth:`stop` (or the
    ``async with`` exit) closes it.

    Synchronous callers should use :class:`ServiceDaemon` instead.
    """

    def __init__(
        self,
        spec: SpecLike,
        engine: Optional[HeavyHitterEngine] = None,
        position: int = 0,
        hierarchy: object = None,
    ) -> None:
        spec = _coerce_spec(spec)
        if spec.service is None:
            raise ValueError(
                "spec has no service section — add one (e.g. "
                '{"service": {"port": 0}}) to host it as a daemon'
            )
        if position < 0:
            raise ValueError(f"position must be non-negative, got {position}")
        self._spec: SketchSpec = spec
        self._service = spec.service
        self._engine = (
            engine if engine is not None else build_engine(spec, hierarchy)
        )
        self._position = int(position)
        self._store: Optional[CheckpointStore] = None
        if self._service.checkpoint_dir is not None:
            self._store = CheckpointStore(
                self._service.checkpoint_dir,
                retain=self._service.checkpoint_retain,
            )
        self._last_checkpoint_position = self._position
        self._checkpoints_written = 0
        self._checkpoint_pauses: List[float] = []
        self._inflight = 0
        self._inflight_peak = 0
        self._stalled_clients = 0
        self._failure: Optional[str] = None
        self._started = False
        self._closed = False
        self.port: Optional[int] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._handler_tasks: set = set()
        self._queue: Optional[asyncio.Queue] = None
        self._condition: Optional[asyncio.Condition] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "IngestServer":
        """Bind the configured listeners and start the pump.

        A bind failure unwinds whatever was already brought up before
        re-raising, so a failed start leaks nothing.
        """
        if self._started:
            return self
        try:
            self._queue = asyncio.Queue()
            self._condition = asyncio.Condition()
            # ONE engine thread: the queue order is the engine's op order
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-engine"
            )
            self._pump_task = asyncio.get_running_loop().create_task(
                self._pump()
            )
            service = self._service
            if service.port is not None:
                server = await asyncio.start_server(
                    self._handle, host=service.host, port=service.port
                )
                self.port = server.sockets[0].getsockname()[1]
                self._servers.append(server)
            if service.unix_socket is not None:
                sock_path = Path(service.unix_socket)
                sock_path.unlink(missing_ok=True)
                server = await asyncio.start_unix_server(
                    self._handle, path=str(sock_path)
                )
                self._servers.append(server)
        except BaseException:
            await self.stop()
            raise
        self._started = True
        return self

    async def stop(self) -> None:
        """Drain and unwind: listeners → clients → pump → engine.

        Idempotent, and safe after a partial start.  Remaining queued
        ops are applied, a final checkpoint is written when
        checkpointing is on and the engine is healthy, then the engine
        closes (releasing its worker processes) and the engine thread exits.
        An engine whose ``close`` raises (a sharded engine holding a
        failed apply or a dead worker) is still fully unwound before
        the error propagates.
        """
        if self._closed:
            return
        self._closed = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks, return_exceptions=True)
        if self._pump_task is not None:
            self._queue.put_nowait((_STOP, None, 0, None))
            await self._pump_task
        loop = asyncio.get_running_loop()
        try:
            if (
                self._executor is not None
                and self._store is not None
                and self._failure is None
                and self._position > self._last_checkpoint_position
            ):
                await loop.run_in_executor(self._executor, self._do_checkpoint)
        finally:
            try:
                if self._executor is not None:
                    await loop.run_in_executor(self._executor, self._engine.close)
                else:
                    self._engine.close()
            finally:
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                if self._service.unix_socket is not None:
                    Path(self._service.unix_socket).unlink(missing_ok=True)

    async def __aenter__(self) -> "IngestServer":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> HeavyHitterEngine:
        """The hosted engine (the server owns its lifecycle)."""
        return self._engine

    @property
    def position(self) -> int:
        """Global stream position: items + gap counts applied so far."""
        return self._position

    @property
    def spec(self) -> SketchSpec:
        """The spec (with service section) this daemon serves."""
        return self._spec

    def service_stats(self) -> Dict[str, object]:
        """The service-level counters merged into the ``stats`` op."""
        pauses = self._checkpoint_pauses
        return {
            "position": self._position,
            "inflight_bytes": self._inflight,
            "inflight_peak_bytes": self._inflight_peak,
            "max_inflight_bytes": self._service.max_inflight_bytes,
            "clients": len(self._handler_tasks),
            "stalled_clients": self._stalled_clients,
            "checkpoints_written": self._checkpoints_written,
            "last_checkpoint_position": self._last_checkpoint_position,
            "checkpoint_pauses_s": list(pauses),
            "failure": self._failure,
        }

    # ------------------------------------------------------------------
    # backpressure budget
    # ------------------------------------------------------------------
    async def _acquire(self, nbytes: int) -> None:
        """Charge ``nbytes`` against the inflight budget, waiting while
        full.  One over-budget op is admitted when the pipeline is idle
        so a single oversized report cannot deadlock the stream."""
        budget = self._service.max_inflight_bytes
        async with self._condition:
            while self._inflight > 0 and self._inflight + nbytes > budget:
                await self._condition.wait()
            self._inflight += nbytes
            if self._inflight > self._inflight_peak:
                self._inflight_peak = self._inflight

    async def _release(self, nbytes: int) -> None:
        async with self._condition:
            self._inflight -= nbytes
            self._condition.notify_all()

    # ------------------------------------------------------------------
    # the pump: ordered op stream -> engine thread
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        carry: Optional[Tuple] = None
        while True:
            op = carry if carry is not None else await self._queue.get()
            carry = None
            kind, payload, nbytes, future = op
            if kind is _STOP:
                return
            if kind == "report":
                # merge consecutive report ops into one engine hop: the
                # executor handoff (~tens of µs) would otherwise dominate
                # report-sized batches
                column = payload
                total_bytes = nbytes
                while True:
                    try:
                        nxt = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt[0] == "report":
                        column = join_columns(column, nxt[1])
                        total_bytes += nxt[2]
                    else:
                        carry = nxt
                        break
                await self._apply(loop, self._engine_report, column)
                await self._release(total_bytes)
            elif kind == "gap":
                await self._apply(loop, self._engine_gap, payload)
                await self._release(nbytes)
            else:
                try:
                    result = await loop.run_in_executor(
                        self._executor, self._engine_sync_op, kind, payload
                    )
                except Exception as exc:
                    if not future.cancelled():
                        future.set_exception(exc)
                else:
                    if not future.cancelled():
                        future.set_result(result)
                continue
            if (
                self._store is not None
                and self._failure is None
                and self._position - self._last_checkpoint_position
                >= self._service.checkpoint_interval
            ):
                await loop.run_in_executor(self._executor, self._do_checkpoint)

    async def _apply(self, loop: asyncio.AbstractEventLoop, fn, payload) -> None:
        """Run one ingest op on the engine thread; first failure poisons."""
        if self._failure is not None:
            return
        try:
            await loop.run_in_executor(self._executor, fn, payload)
        except Exception:
            self._failure = traceback.format_exc()

    # --- engine-thread bodies -----------------------------------------
    def _engine_report(self, column: array) -> None:
        # a zero-copy view: the engine boxes only the keys it keeps, as
        # Python ints, so pickled state matches a directly fed engine's
        self._engine.update_many(np.frombuffer(column, dtype=column.typecode))
        self._position += len(column)

    def _engine_gap(self, count: int) -> None:
        self._engine.ingest_gap(count)
        self._position += count

    def _engine_sync_op(self, kind: str, payload: Dict[str, object]) -> Dict[str, object]:
        if self._failure is not None and kind != "stats":
            raise RuntimeError(
                "ingestion failed; daemon is poisoned:\n" + self._failure
            )
        if kind == "flush":
            self._engine.flush()
            return {"position": self._position}
        if kind == "query":
            self._engine.flush()
            return {"value": self._engine.query(payload["key"])}
        if kind == "heavy_hitters":
            self._engine.flush()
            heavy = self._engine.heavy_hitters(float(payload["theta"]))
            return {"items": [[key, value] for key, value in heavy.items()]}
        if kind == "top_k":
            self._engine.flush()
            top = self._engine.top_k(int(payload["k"]))
            return {"items": [[key, value] for key, value in top]}
        if kind == "stats":
            stats = dict(self._engine.stats())
            stats.update(self.service_stats())
            return {"stats": stats}
        if kind == "checkpoint":
            if self._store is None:
                raise RuntimeError(
                    "checkpointing is disabled: the spec's service section "
                    "has no checkpoint_dir"
                )
            path = self._do_checkpoint()
            return {"path": str(path), "position": self._position}
        raise RuntimeError(f"unknown op {kind!r}")

    def _do_checkpoint(self) -> Path:
        """Snapshot + persist (engine thread; ingestion is paused here)."""
        began = time.perf_counter()
        self._engine.flush()
        state = self._engine.snapshot_state()
        path = self._store.save(self._spec, self._position, state)
        self._checkpoint_pauses.append(time.perf_counter() - began)
        self._checkpoints_written += 1
        self._last_checkpoint_position = self._position
        return path

    # ------------------------------------------------------------------
    # per-client handler
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        loop = asyncio.get_running_loop()
        buf = bytearray()
        try:
            while True:
                # every complete frame already read, in one pass; each
                # run of report columns arrives joined into one column
                frames, used = split_frames(buf)
                if not frames:
                    chunk = await reader.read(_READ_BYTES)
                    if not chunk:
                        if buf:
                            raise ProtocolError("stream truncated inside a frame")
                        break
                    buf += chunk
                    continue
                del buf[:used]
                for message, nbytes in frames:
                    if isinstance(message, array):
                        await self._acquire(nbytes)
                        self._queue.put_nowait(("report", message, nbytes, None))
                        continue
                    op = message.get("op")
                    if op == "gap":
                        count = message.get("count")
                        if not isinstance(count, int) or count < 0:
                            raise ProtocolError(f"bad gap count {count!r}")
                        await self._acquire(nbytes)
                        self._queue.put_nowait(("gap", count, nbytes, None))
                        continue
                    request_id = message.get("id")
                    if op not in _SYNC_OPS:
                        response = {
                            "id": request_id,
                            "ok": False,
                            "error": f"unknown op {op!r}",
                        }
                    else:
                        future = loop.create_future()
                        self._queue.put_nowait((op, message, 0, future))
                        try:
                            response = {"id": request_id, "ok": True}
                            response.update(await future)
                        except Exception as exc:
                            response = {
                                "id": request_id, "ok": False, "error": str(exc)
                            }
                    writer.write(encode_frame(response))
                    try:
                        await asyncio.wait_for(writer.drain(), DRAIN_TIMEOUT)
                    except asyncio.TimeoutError:
                        raise ClientStalledError(
                            f"reply {request_id!r} unread for {DRAIN_TIMEOUT} s"
                        ) from None
        except ClientStalledError:
            # its unread replies go nowhere: a graceful close would wait
            # for the client to read them
            self._stalled_clients += 1
            writer.transport.abort()
        except asyncio.CancelledError:
            # stop(): likewise, whether or not the client reads
            writer.transport.abort()
            raise
        except (ProtocolError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._handler_tasks.discard(task)
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), DRAIN_TIMEOUT)
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.TimeoutError:
                writer.transport.abort()
            except asyncio.CancelledError:
                writer.transport.abort()
                raise


class ServiceDaemon:
    """Thread-hosted :class:`IngestServer` for synchronous callers.

    Runs the server's event loop on a background thread; ``start()``
    blocks until the listeners are bound (so ``daemon.port`` is the
    real ephemeral port), ``close()`` runs the full server unwind and
    joins the thread.  Context-managed::

        with ServiceDaemon(spec) as daemon:
            client = ServiceClient.connect(port=daemon.port)
    """

    def __init__(
        self,
        spec: SpecLike,
        engine: Optional[HeavyHitterEngine] = None,
        position: int = 0,
        hierarchy: object = None,
    ) -> None:
        self._server = IngestServer(
            spec, engine=engine, position=position, hierarchy=hierarchy
        )
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: what the server's stop raised on the loop thread; ``close``
        #: re-raises it in the caller's thread
        self._stop_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None

    @property
    def server(self) -> IngestServer:
        """The wrapped server (port, position, stats live here)."""
        return self._server

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (after :meth:`start`), or ``None``."""
        return self._server.port

    @property
    def position(self) -> int:
        """Global stream position applied so far."""
        return self._server.position

    def start(self) -> "ServiceDaemon":
        """Spin up the loop thread; returns once listeners are bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise RuntimeError(
                "service failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        try:
            await self._server.stop()
        except BaseException as exc:
            self._stop_error = exc

    def close(self) -> None:
        """Stop the server, join the loop thread (idempotent); raises
        what the server's stop raised (say, a failed engine close)."""
        thread = self._thread
        if thread is None:
            # never started (or already closed): still owns the engine
            asyncio.run(self._server.stop())
            return
        if thread.is_alive() and self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        thread.join()
        self._thread = None
        error, self._stop_error = self._stop_error, None
        if error is not None:
            raise error

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()
