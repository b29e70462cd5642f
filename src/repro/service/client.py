"""Client library for the ingestion service (sync + asyncio).

:class:`ServiceClient` is the blocking-socket client (examples, tests,
benchmarks, supervisors); :class:`AsyncServiceClient` is the same
surface over asyncio streams.  Both speak ``repro-wire/2``
(:mod:`repro.service.protocol`) and expose the engine's unified query
surface plus the service ops:

* ``report(items)`` / ``gap(count)`` — fire-and-forget ingestion; the
  server never responds, so a client can saturate the socket, and the
  transport (not the client) carries the daemon's backpressure.
  ``report`` sends one binary key column: uint32 when every key fits,
  int64 otherwise.  Any other key (a float, a string, a tuple, an
  integer outside int64) raises :class:`TypeError` or
  :class:`OverflowError` before anything is sent.
* ``flush()`` — synchronous barrier: returns the stream position once
  every previously-reported item is applied; ingestion failures
  poison the daemon and surface here as :class:`ServiceError`.
* ``query(key)`` / ``heavy_hitters(theta)`` / ``top_k(k)`` /
  ``stats()`` — flush-consistent reads.
* ``checkpoint()`` — force a checkpoint now; returns its path and
  position.

Control ops and responses travel as JSON, so non-JSON keys in answers
(tuples — hierarchical prefix entries) come back as lists; the helpers
convert them back to tuples so ``heavy_hitters`` round-trips for every
family.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .protocol import (
    ProtocolError,
    encode_frame,
    encode_report,
    read_frame_async,
    read_frame_sync,
    send_frame_sync,
)

__all__ = ["AsyncServiceClient", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false`` (or the stream broke)."""


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
        return cls(sock)

    # --- fire-and-forget ingestion ------------------------------------
    def report(self, items: Sequence[int]) -> None:
        """Submit a batch of integer packet keys (no response).

        Raises :class:`TypeError` (non-integer key) or
        :class:`OverflowError` (key outside int64) before sending."""
        self._sock.sendall(encode_report(items))

    def gap(self, count: int) -> None:
        """Advance the daemon's window for ``count`` unobserved packets."""
        send_frame_sync(self._sock, {"op": "gap", "count": int(count)})

    # --- synchronous ops ----------------------------------------------
    def _request(self, message: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request_id = self._next_id
        message["id"] = request_id
        try:
            send_frame_sync(self._sock, message)
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
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncServiceClient:
    """Asyncio twin of :class:`ServiceClient` (``async with``-managed)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._closed = False

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
        """Submit a batch of integer packet keys (no response; ``drain()``
        is where the daemon's backpressure reaches this coroutine).

        Raises :class:`TypeError` (non-integer key) or
        :class:`OverflowError` (key outside int64) before sending."""
        self._writer.write(encode_report(items))
        await self._writer.drain()

    async def gap(self, count: int) -> None:
        """Advance the daemon's window for ``count`` unobserved packets."""
        self._writer.write(encode_frame({"op": "gap", "count": int(count)}))
        await self._writer.drain()

    # --- synchronous ops ----------------------------------------------
    async def _request(self, message: Dict[str, object]) -> Dict[str, object]:
        self._next_id += 1
        request_id = self._next_id
        message["id"] = request_id
        try:
            self._writer.write(encode_frame(message))
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
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
