"""``repro-wire/2`` framing: encode/decode round-trips and guards."""

from __future__ import annotations

import socket
import struct
import threading
from array import array

import pytest

from repro.service.protocol import (
    DTYPE_INT64,
    DTYPE_UINT32,
    MAX_FRAME,
    OP_REPORT,
    ProtocolError,
    decode_payload,
    decode_report,
    encode_frame,
    encode_report,
    join_columns,
    read_frame_sync,
    split_frames,
)


class TestEncodeDecode:
    def test_round_trip(self):
        message = {"op": "gap", "count": 3, "id": 7}
        raw = encode_frame(message)
        length = struct.unpack(">I", raw[:4])[0]
        assert length == len(raw) - 4
        assert decode_payload(raw[4:]) == message

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_payload(b"[1, 2, 3]")

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_payload(b"{nope")

    def test_bad_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_payload(b'{"op": "\xff"}')

    def test_oversized_frame_rejected(self):
        huge = {"blob": "x" * (MAX_FRAME + 1)}
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_frame(huge)


class TestSyncSocketIO:
    def pair(self):
        return socket.socketpair()

    def test_round_trip_over_socketpair(self):
        a, b = self.pair()
        try:
            a.sendall(encode_frame({"op": "gap", "count": 4}))
            a.sendall(encode_frame({"op": "flush", "id": 1}))
            assert read_frame_sync(b) == {"op": "gap", "count": 4}
            assert read_frame_sync(b) == {"op": "flush", "id": 1}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self.pair()
        try:
            a.close()
            assert read_frame_sync(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = self.pair()
        try:
            raw = encode_frame({"op": "flush", "id": 1})
            a.sendall(raw[: len(raw) - 2])
            a.close()
            with pytest.raises(ProtocolError, match="truncated"):
                read_frame_sync(b)
        finally:
            b.close()

    def test_hostile_length_prefix_raises(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError, match="MAX_FRAME"):
                read_frame_sync(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_across_recv_chunks(self):
        # bigger than one recv() buffer: exercises the re-read loop
        message = {"id": 1, "ok": True, "items": [[i, 1.0] for i in range(50_000)]}
        a, b = self.pair()
        try:
            writer = threading.Thread(
                target=a.sendall, args=(encode_frame(message),)
            )
            writer.start()
            assert read_frame_sync(b) == message
            writer.join()
        finally:
            a.close()
            b.close()


class TestReportColumns:
    def test_uint32_layout(self):
        raw = encode_report([1, 2, 2**32 - 1])
        assert struct.unpack(">I", raw[:4])[0] == len(raw) - 4 == 6 + 3 * 4
        assert raw[4:10] == struct.pack("<BBI", OP_REPORT, DTYPE_UINT32, 3)
        assert raw[10:] == struct.pack("<3I", 1, 2, 2**32 - 1)
        column = decode_report(raw[4:])
        assert column.typecode == "I"
        assert column.tolist() == [1, 2, 2**32 - 1]

    @pytest.mark.parametrize("wide", [-1, 2**32, -(2**63), 2**63 - 1])
    def test_int64_chosen_when_a_key_does_not_fit(self, wide):
        keys = [5, wide, 6]
        raw = encode_report(keys)
        assert raw[4:10] == struct.pack("<BBI", OP_REPORT, DTYPE_INT64, 3)
        assert raw[10:] == struct.pack("<3q", *keys)
        assert decode_report(raw[4:]).tolist() == keys

    def test_empty_report_round_trips(self):
        assert decode_report(encode_report([])[4:]).tolist() == []

    @pytest.mark.parametrize(
        "keys, error, match",
        [
            ([1, 1.5], TypeError, "float"),
            ([None], TypeError, "NoneType"),
            ([1, 2**64], OverflowError, str(2**64)),
            ([-(2**63) - 1], OverflowError, "outside int64"),
        ],
    )
    def test_unencodable_keys_are_named(self, keys, error, match):
        with pytest.raises(error, match=match):
            encode_report(keys)

    def test_count_must_agree_with_length(self):
        payload = bytearray(encode_report([1, 2, 3])[4:])
        struct.pack_into("<I", payload, 2, 2)
        with pytest.raises(ProtocolError, match="count 2 disagrees"):
            decode_report(bytes(payload))

    def test_unknown_dtype_code_rejected(self):
        payload = bytearray(encode_report([1, 2])[4:])
        payload[1] = 0x7F
        with pytest.raises(ProtocolError, match="dtype code 0x7f"):
            decode_report(bytes(payload))

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_report(bytes([OP_REPORT, DTYPE_UINT32]))

    def test_join_widens_mixed_dtypes(self):
        head = array("I", [1, 2])
        assert join_columns(head, array("I", [3])) is head
        joined = join_columns(array("I", [1]), array("q", [-2]))
        assert joined.typecode == "q" and joined.tolist() == [1, -2]
        joined = join_columns(array("q", [-1]), array("I", [2]))
        assert joined.typecode == "q" and joined.tolist() == [-1, 2]


class TestSplitFrames:
    def test_runs_join_and_order_is_kept(self):
        reports = [encode_report([1, 2]), encode_report([2**40]), encode_report([3])]
        flush = encode_frame({"op": "flush", "id": 1})
        tail = encode_report([4])
        stream = b"".join(reports) + flush + tail
        buf = bytearray(stream + tail[:5])  # plus an incomplete frame
        frames, used = split_frames(buf)
        assert used == len(stream)
        assert [
            (m.tolist() if isinstance(m, array) else m, n) for m, n in frames
        ] == [
            ([1, 2, 2**40, 3], sum(map(len, reports))),
            ({"op": "flush", "id": 1}, len(flush)),
            ([4], len(tail)),
        ]

    def test_incomplete_buffer_yields_nothing(self):
        raw = encode_report([1, 2, 3])
        for cut in range(len(raw)):
            assert split_frames(bytearray(raw[:cut])) == ([], 0)

    def test_good_frames_come_before_the_bad_one(self):
        good = encode_report([1]) + encode_frame({"op": "stats", "id": 2})
        bad = struct.pack(">I", 1) + b"\x7f"
        buf = bytearray(good + bad)
        frames, used = split_frames(buf)
        assert used == len(good) and len(frames) == 2
        del buf[:used]
        with pytest.raises(ProtocolError, match="unknown op byte 0x7f"):
            split_frames(buf)

    def test_empty_and_hostile_frames_raise(self):
        with pytest.raises(ProtocolError, match="empty frame"):
            split_frames(bytearray(struct.pack(">I", 0)))
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            split_frames(bytearray(struct.pack(">I", MAX_FRAME + 1)))
