"""Client library for the ingestion service (sync + asyncio).

:class:`ServiceClient` is the blocking-socket client (examples, tests,
benchmarks, supervisors); :class:`AsyncServiceClient` is the same
surface over asyncio streams.  Both speak ``repro-wire/2``
(:mod:`repro.service.protocol`) and expose the engine's unified query
surface plus the service ops:

* ``report(items)`` / ``gap(count)`` — fire-and-forget ingestion; the
  server never responds, so a client can saturate the socket, and the
  transport (not the client) carries the daemon's backpressure.
  ``report`` validates its batch and appends the keys to one pending
  key column: uint32 while every key fits, int64 once one does not.
  Any other key (a float, a string, a tuple, an integer outside int64)
  raises :class:`TypeError` or :class:`OverflowError` and leaves the
  pending column as it was.  The pending column leaves as one report
  frame once it holds :data:`COALESCE_BYTES` of keys, or together with
  the next other op on the same connection, written ahead of that op's
  own frame — so a ``gap`` is never held back and the daemon sees this
  connection's ops in call order.  ``close()`` sends what is still
  pending before it closes the socket.
* ``flush()`` — synchronous barrier: returns the stream position once
  every previously-reported item is applied; ingestion failures
  poison the daemon and surface here as :class:`ServiceError`.
* ``query(key)`` / ``heavy_hitters(theta)`` / ``top_k(k)`` /
  ``stats()`` — flush-consistent reads.
* ``checkpoint()`` — force a checkpoint now; returns its path and
  position.

Reports still pending in one client are invisible to the others: a
second connection's ``flush()`` sees them only after this client sends
them (any other op, a full column, or ``close()``).  A daemon whose
``max_inflight_bytes`` is below one coalesced frame admits such frames
one at a time (its idle-pipeline oversize admission).

The sync client turns ``TCP_NODELAY`` on for TCP connections (asyncio
streams already run with it), so a ``flush()`` or query written after
reports does not wait for the daemon's delayed ACK.

Control ops and responses travel as JSON, so non-JSON keys in answers
(tuples — hierarchical prefix entries) come back as lists; the helpers
convert them back to tuples so ``heavy_hitters`` round-trips for every
family.
"""

from __future__ import annotations

import asyncio
import socket
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .protocol import (
    ProtocolError,
    encode_column,
    encode_frame,
    join_columns,
    read_frame_async,
    read_frame_sync,
    report_column,
)

__all__ = ["AsyncServiceClient", "COALESCE_BYTES", "ServiceClient", "ServiceError"]

#: Pending report-key bytes at which a client sends its coalesced report
#: frame.  Query latency grows with the frame (reads queue behind whole
#: frames) and 4 KiB loses ingest throughput; 8 and 16 KiB read alike,
#: 32 KiB bought ~5% more ingest for ~0.4 ms more query p50.  16 KiB
#: keeps the latency and holds less unsent data per client.
COALESCE_BYTES = 16 * 1024


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false`` (or the stream broke)."""


class _PendingReports:
    """The report keys a client has accepted but not yet sent: one
    uint32/int64 column, widened the way :func:`join_columns` widens."""

    __slots__ = ("_column",)

    def __init__(self) -> None:
        self._column: Optional[array] = None

    def add(self, items: Sequence[int]) -> bytes:
        """Validate ``items`` and append them; returns the frame bytes
        due now (empty while the column is below the threshold).

        A batch that raises (a named key error, or
        :class:`ProtocolError` for a frame past ``MAX_FRAME``) leaves
        the pending column unchanged."""
        batch = report_column(items)
        pending = self._column
        column = batch if pending is None else join_columns(pending, batch)
        if len(column) * column.itemsize < COALESCE_BYTES:
            self._column = column
            return b""
        try:
            frame = encode_column(column)
        except ProtocolError:
            if column is pending:  # join_columns extended it in place
                del pending[len(pending) - len(batch):]
            raise
        self._column = None
        return frame

    def take(self) -> bytes:
        """The pending column as one report frame (empty when nothing
        is pending); the column is cleared."""
        column = self._column
        if not column:
            return b""
        self._column = None
        return encode_column(column)


def _rekey(key: object) -> Hashable:
    """JSON round-trip repair: list-encoded tuple keys become tuples."""
    if isinstance(key, list):
        return tuple(_rekey(part) for part in key)
    return key


def _check(response: Optional[Dict[str, object]], request_id: int) -> Dict[str, object]:
    if response is None:
        raise ServiceError("connection closed by the daemon mid-request")
    if response.get("id") != request_id:
        raise ServiceError(
            f"response id {response.get('id')!r} does not match request "
            f"{request_id} — stream out of sync"
        )
    if not response.get("ok"):
        raise ServiceError(str(response.get("error", "unknown daemon error")))
    return response


class ServiceClient:
    """Blocking client for one daemon connection (context-managed)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._next_id = 0
        self._closed = False
        self._pending = _PendingReports()

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_socket: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> "ServiceClient":
        """Open a connection to a daemon's TCP port or unix socket."""
        if (port is None) == (unix_socket is None):
            raise ValueError("pass exactly one of port= or unix_socket=")
        if unix_socket is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(unix_socket)
            except BaseException:
                sock.close()
                raise
        else:
            sock = socket.create_connection((host, port), timeout=timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except BaseException:
                sock.close()
                raise
        return cls(sock)

    # --- fire-and-forget ingestion ------------------------------------
    def report(self, items: Sequence[int]) -> None:
        """Submit a batch of integer packet keys (no response).

        The keys join the pending column, which is sent once full or
        ahead of the next other op.  Raises :class:`TypeError`
        (non-integer key) or :class:`OverflowError` (key outside int64)
        with nothing pending changed."""
        frames = self._pending.add(items)
        if frames:
            self._sock.sendall(frames)

    def gap(self, count: int) -> None:
        """Advance the daemon's window for ``count`` unobserved packets."""
        frame = encode_frame({"op": "gap", "count": int(count)})
        self._sock.sendall(self._pending.take() + frame)

    # --- synchronous ops ----------------------------------------------
    def _request(self, message: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request_id = self._next_id
        message["id"] = request_id
        frame = encode_frame(message)
        try:
            self._sock.sendall(self._pending.take() + frame)
            response = read_frame_sync(self._sock)
        except (ProtocolError, OSError) as exc:
            raise ServiceError(f"daemon connection failed: {exc}") from None
        return _check(response, request_id)

    def flush(self) -> int:
        """Barrier: every prior report applied; returns stream position."""
        return int(self._request({"op": "flush"})["position"])

    def query(self, key: Hashable) -> float:
        """Flush-consistent frequency estimate for ``key``."""
        return float(self._request({"op": "query", "key": key})["value"])

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Flush-consistent heavy hitters above ``theta``."""
        response = self._request({"op": "heavy_hitters", "theta": theta})
        return {_rekey(key): value for key, value in response["items"]}

    def top_k(self, k: int) -> List[Tuple[Hashable, float]]:
        """Flush-consistent ``k`` largest tracked keys."""
        response = self._request({"op": "top_k", "k": int(k)})
        return [(_rekey(key), value) for key, value in response["items"]]

    def stats(self) -> Dict[str, object]:
        """Engine + service stats (position, inflight peak, checkpoints)."""
        return dict(self._request({"op": "stats"})["stats"])

    def checkpoint(self) -> Tuple[str, int]:
        """Force a checkpoint; returns ``(path, position)``."""
        response = self._request({"op": "checkpoint"})
        return str(response["path"]), int(response["position"])

    # --- lifecycle ----------------------------------------------------
    def close(self) -> None:
        """Send the pending reports, then close the connection
        (idempotent).  The socket is closed even when the send fails,
        which raises :class:`ServiceError`."""
        if not self._closed:
            self._closed = True
            try:
                tail = self._pending.take()
                if tail:
                    self._sock.sendall(tail)
            except OSError as exc:
                raise ServiceError(
                    f"daemon connection failed: pending reports not sent: {exc}"
                ) from None
            finally:
                self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(
        self, exc_type: object, exc: Optional[BaseException], tb: object
    ) -> None:
        try:
            self.close()
        except ServiceError as close_error:
            if exc is None:
                raise
            # the exception already leaving the block stays the one raised
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(str(close_error))


class AsyncServiceClient:
    """Asyncio twin of :class:`ServiceClient` (``async with``-managed)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._closed = False
        self._pending = _PendingReports()

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_socket: Optional[str] = None,
    ) -> "AsyncServiceClient":
        """Open a connection to a daemon's TCP port or unix socket."""
        if (port is None) == (unix_socket is None):
            raise ValueError("pass exactly one of port= or unix_socket=")
        if unix_socket is not None:
            reader, writer = await asyncio.open_unix_connection(unix_socket)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # --- fire-and-forget ingestion ------------------------------------
    async def report(self, items: Sequence[int]) -> None:
        """Submit a batch of integer packet keys (no response; the
        ``drain()`` after a sent frame is where the daemon's
        backpressure reaches this coroutine).

        Coalesced exactly as :meth:`ServiceClient.report`; raises
        :class:`TypeError` (non-integer key) or :class:`OverflowError`
        (key outside int64) with nothing pending changed."""
        frames = self._pending.add(items)
        if frames:
            self._writer.write(frames)
            await self._writer.drain()

    async def gap(self, count: int) -> None:
        """Advance the daemon's window for ``count`` unobserved packets."""
        frame = encode_frame({"op": "gap", "count": int(count)})
        self._writer.write(self._pending.take() + frame)
        await self._writer.drain()

    # --- synchronous ops ----------------------------------------------
    async def _request(self, message: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request_id = self._next_id
        message["id"] = request_id
        frame = encode_frame(message)
        try:
            self._writer.write(self._pending.take() + frame)
            await self._writer.drain()
            response = await read_frame_async(self._reader)
        except (ProtocolError, OSError) as exc:
            raise ServiceError(f"daemon connection failed: {exc}") from None
        return _check(response, request_id)

    async def flush(self) -> int:
        """Barrier: every prior report applied; returns stream position."""
        return int((await self._request({"op": "flush"}))["position"])

    async def query(self, key: Hashable) -> float:
        """Flush-consistent frequency estimate for ``key``."""
        return float((await self._request({"op": "query", "key": key}))["value"])

    async def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Flush-consistent heavy hitters above ``theta``."""
        response = await self._request({"op": "heavy_hitters", "theta": theta})
        return {_rekey(key): value for key, value in response["items"]}

    async def top_k(self, k: int) -> List[Tuple[Hashable, float]]:
        """Flush-consistent ``k`` largest tracked keys."""
        response = await self._request({"op": "top_k", "k": int(k)})
        return [(_rekey(key), value) for key, value in response["items"]]

    async def stats(self) -> Dict[str, object]:
        """Engine + service stats (position, inflight peak, checkpoints)."""
        return dict((await self._request({"op": "stats"}))["stats"])

    async def checkpoint(self) -> Tuple[str, int]:
        """Force a checkpoint; returns ``(path, position)``."""
        response = await self._request({"op": "checkpoint"})
        return str(response["path"]), int(response["position"])

    # --- lifecycle ----------------------------------------------------
    async def close(self) -> None:
        """Send the pending reports, then close the connection
        (idempotent)."""
        if not self._closed:
            self._closed = True
            tail = self._pending.take()
            if tail:
                self._writer.write(tail)
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
