"""``repro-wire/2``: the service's length-prefixed frame format.

One frame = a 4-byte big-endian payload length followed by that many
payload bytes.  The explicit prefix gives the server an exact byte count
per frame *before* parsing, which is what the inflight-bytes
backpressure budget meters, and lets a reader find every complete frame
in its buffer in one pass.  The payload's first byte says what it is:

* ``0x01`` — a **report column**, fire-and-forget ingestion of integer
  packet keys::

      offset  size       field
      0       1          op     0x01
      1       1          dtype  0x01 = uint32, 0x02 = int64
      2       4          count  little-endian uint32: number of keys
      6       count * w  keys   little-endian, w = 4 (uint32) or 8 (int64)

  Clients send uint32 when every key fits and int64 otherwise; other
  keys are refused before anything is sent.
* ``{`` — a UTF-8 JSON object: every control op (``gap``, ``flush``,
  ``query``, ``heavy_hitters``, ``top_k``, ``stats``, ``checkpoint``)
  and every response.  Requests carry ``{"op": ..., "id": ...}`` plus
  op-specific fields; responses echo ``id`` and carry ``{"ok": true,
  ...}`` or ``{"ok": false, "error": ...}``.

Any other first byte, an unknown dtype code, or a count that disagrees
with the payload length is a :class:`ProtocolError`.  Report and gap
frames get no response, so a client can saturate the socket; any
ingestion failure surfaces on the next synchronous op (``flush``/query)
and in :class:`~repro.service.server.IngestServer` stats.

Both async (async client) and blocking-socket (sync client) request
helpers live here, beside the server's buffer splitter, so the sides
cannot drift.
"""

from __future__ import annotations

import asyncio
import json
import operator
import socket
import struct
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DTYPE_INT64",
    "DTYPE_UINT32",
    "MAX_FRAME",
    "OP_REPORT",
    "ProtocolError",
    "decode_payload",
    "decode_report",
    "encode_column",
    "encode_frame",
    "encode_report",
    "join_columns",
    "read_frame_async",
    "read_frame_sync",
    "report_column",
    "split_frames",
]

#: Hard per-frame ceiling (payload bytes).  A length prefix beyond this
#: is treated as a corrupt or hostile stream, not an allocation request.
MAX_FRAME = 64 * 1024 * 1024

#: First payload byte of a binary report column (JSON starts with ``{``).
OP_REPORT = 0x01
#: Report column dtype codes.
DTYPE_UINT32 = 0x01
DTYPE_INT64 = 0x02

_LEN = struct.Struct(">I")
#: op byte, dtype code, little-endian key count
_REPORT_HEADER = struct.Struct("<BBI")
_JSON_START = ord("{")
#: dtype code -> ``array`` typecode, and back
_TYPECODES = {DTYPE_UINT32: "I", DTYPE_INT64: "q"}
_DTYPES = {typecode: code for code, typecode in _TYPECODES.items()}
_WIDTHS = {typecode: array(typecode).itemsize for typecode in _DTYPES}
#: key columns travel little-endian whatever the host order
_SWAP = sys.byteorder != "little"

#: A decoded frame: a JSON message or a report column.
Message = Union[Dict[str, object], array]


class ProtocolError(RuntimeError):
    """A malformed frame: bad length prefix, truncation, bad JSON, or a
    report column with an unknown op/dtype byte or a wrong count."""


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialize one JSON message to its on-wire bytes (prefix + JSON)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(_check_length(len(payload))) + payload


def decode_payload(payload: bytes) -> Dict[str, object]:
    """Parse a JSON frame payload into its message dict."""
    try:
        message = json.loads(payload)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must encode an object, got {type(message).__name__}"
        )
    return message


def encode_report(items: Sequence[object]) -> bytes:
    """Serialize integer packet keys to one report-column frame.

    The column is uint32 when every key fits and int64 otherwise.
    Raises :class:`TypeError` for a key that is not an integer and
    :class:`OverflowError` for one outside int64, before any bytes
    exist to send.

    The one-call encoder for tools that write frames to a raw socket
    (the wire tests and fuzzers); the clients, which coalesce reports,
    call its halves :func:`report_column` and :func:`encode_column`.
    """
    return encode_column(report_column(items))


def report_column(items: Sequence[object]) -> array:
    """The keys of one report as a native-order ``array`` column.

    Typecode ``"I"`` (uint32) when every key fits, ``"q"`` (int64)
    otherwise; raises the same named errors as :func:`encode_report`.
    """
    try:
        return array("I", items)
    except OverflowError:
        return _int64_column(items)
    except TypeError:
        raise _key_type_error(items) from None


def encode_column(column: array) -> bytes:
    """Serialize a :func:`report_column` column to one report frame
    (``column`` itself is left as it is)."""
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    keys = column.tobytes()
    size = _REPORT_HEADER.size + len(keys)
    if size > MAX_FRAME:
        raise ProtocolError(f"frame of {size} bytes exceeds MAX_FRAME={MAX_FRAME}")
    return b"".join((
        _LEN.pack(size),
        _REPORT_HEADER.pack(OP_REPORT, _DTYPES[column.typecode], len(column)),
        keys,
    ))


def _int64_column(items: Sequence[object]) -> array:
    try:
        return array("q", items)
    except OverflowError:
        bad = next(
            (key for key in items
             if not -(2**63) <= operator.index(key) < 2**63),
            None,
        )
        raise OverflowError(
            f"report key {bad} is outside int64: repro-wire/2 report "
            f"columns carry uint32 or int64 keys"
        ) from None
    except TypeError:
        raise _key_type_error(items) from None


def _key_type_error(items: Sequence[object]) -> TypeError:
    bad = next(
        (key for key in items if not hasattr(key, "__index__")), None
    )
    return TypeError(
        f"report keys must be integers (repro-wire/2 report columns "
        f"carry uint32 or int64 keys), got {type(bad).__name__} {bad!r}"
    )


def decode_report(payload: Union[bytes, memoryview]) -> array:
    """Parse a report-column payload into an ``array`` of its keys
    (typecode ``"I"`` for uint32, ``"q"`` for int64)."""
    return _append_column(None, payload, 0, len(payload))


def _append_column(
    run: Optional[array], buf: Union[bytes, memoryview], start: int, stop: int
) -> array:
    """Validate the report payload at ``buf[start:stop]`` and append its
    keys to ``run`` (see :func:`join_columns`); a new column when
    ``run`` is ``None``."""
    size = stop - start
    if size < _REPORT_HEADER.size:
        raise ProtocolError(
            f"report frame of {size} bytes is shorter than its "
            f"{_REPORT_HEADER.size}-byte header"
        )
    op, dtype, count = _REPORT_HEADER.unpack_from(buf, start)
    if op != OP_REPORT:
        raise ProtocolError(f"unknown op byte 0x{op:02x}")
    typecode = _TYPECODES.get(dtype)
    if typecode is None:
        raise ProtocolError(f"unknown report dtype code 0x{dtype:02x}")
    keys = size - _REPORT_HEADER.size
    if count * _WIDTHS[typecode] != keys:
        raise ProtocolError(
            f"report count {count} disagrees with its {keys} key bytes "
            f"({_WIDTHS[typecode]} per key)"
        )
    keys_view = buf[start + _REPORT_HEADER.size:stop]
    if run is not None and run.typecode == typecode and not _SWAP:
        run.frombytes(keys_view)
        return run
    column = array(typecode)
    column.frombytes(keys_view)
    if _SWAP:
        column.byteswap()
    return column if run is None else join_columns(run, column)


def join_columns(head: array, tail: array) -> array:
    """``head`` followed by ``tail``; extends ``head`` in place when the
    dtypes agree and widens both to int64 when they differ."""
    if head.typecode != tail.typecode:
        if head.typecode != "q":
            head = array("q", head)
        if tail.typecode != "q":
            tail = array("q", tail)
    head.extend(tail)
    return head


def _check_length(length: int) -> int:
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}"
        )
    return length


def split_frames(buf: bytearray) -> Tuple[List[Tuple[Message, int]], int]:
    """Decode every complete frame at the front of ``buf``.

    Returns ``(frames, consumed)``: ``frames`` holds ``(message,
    wire_bytes)`` pairs in stream order, where each run of consecutive
    report columns is joined into one column and ``wire_bytes`` sums
    the run's frames (prefixes included) — the quantity the server's
    inflight-bytes budget meters.  ``consumed`` is how many bytes of
    ``buf`` those frames used; the rest is an incomplete frame.

    A malformed frame raises :class:`ProtocolError`, except that when
    good frames precede it they are returned first and the malformed
    frame stays at the front of the unconsumed bytes, so the caller's
    next call raises.
    """
    frames: List[Tuple[Message, int]] = []
    run: Optional[array] = None  # the report column being joined
    run_bytes = 0
    pos = 0
    end = len(buf)
    unpack_length = _LEN.unpack_from
    with memoryview(buf) as view:
        while end - pos >= _LEN.size:
            try:
                start = pos + _LEN.size
                length = _check_length(unpack_length(view, pos)[0])
                stop = start + length
                if stop > end:
                    break
                first = view[start] if length else None
                if first == OP_REPORT:
                    if run is None:
                        run_bytes = 0
                    run = _append_column(run, view, start, stop)
                    run_bytes += stop - pos
                    pos = stop
                    continue
                if first != _JSON_START:
                    raise ProtocolError(
                        "empty frame" if first is None
                        else f"unknown op byte 0x{first:02x}"
                    )
                message = decode_payload(bytes(view[start:stop]))
            except ProtocolError:
                if frames or run is not None:
                    break
                raise
            if run is not None:
                frames.append((run, run_bytes))
                run = None
            frames.append((message, stop - pos))
            pos = stop
    if run is not None:
        frames.append((run, run_bytes))
    return frames, pos


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, object]]:
    """Read one JSON frame; ``None`` on clean EOF at a frame boundary."""
    try:
        raw = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("stream truncated inside a length prefix") from None
    length = _check_length(_LEN.unpack(raw)[0])
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("stream truncated inside a frame") from None
    return decode_payload(payload)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"stream truncated: wanted {count} bytes, got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Blocking :func:`read_frame_async`; ``None`` on clean EOF."""
    first = sock.recv(1)
    if not first:
        return None
    raw = first + _recv_exactly(sock, _LEN.size - 1)
    length = _check_length(_LEN.unpack(raw)[0])
    return decode_payload(_recv_exactly(sock, length))
