"""``repro-ckpt/1``: envelope round-trips, torn-file fallback, atomicity."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import pickletools
import struct
import sys
import zlib
from itertools import chain
from pathlib import Path

import pytest

from repro.engine import SketchSpec, build_engine
from repro.engine.registry import algorithm_info, registered_algorithms
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import (
    MAGIC,
    STATE_GLOBALS,
    CheckpointError,
    CheckpointStore,
    atomic_write_bytes,
    read_checkpoint,
    write_checkpoint,
)

SPEC = SketchSpec.from_dict(
    {
        "algorithm": {
            "family": "memento",
            "window": 2048,
            "counters": 64,
            "tau": 0.25,
            "seed": 7,
        }
    }
)


def engine_state(n=500):
    with build_engine(SPEC) as engine:
        engine.update_many([i % 50 for i in range(n)])
        return engine.snapshot_state()


#: a bare Memento checkpoint written before the FIFO layout: the sketch
#: pickled its ``k + 1`` block deques, and Space Saving its bucket chain
#: without the key order.  Spec: window 600, 40 counters, tau 0.5, seed
#: 7, geometric sampler; position 1500 of :func:`fixture_stream`.
BLOCK_DEQUE_CHECKPOINT = Path(__file__).parent / "data" / "memento_block_deques.ckpt"


def fixture_stream():
    return [i % 5 if i % 4 == 0 else (i * i) % 37 for i in range(2400)]


def memento_digest(m):
    """The sketch's whole state; ``y``'s key order is left out (a
    pre-order pickle lists ``y``'s keys in chain order)."""
    y = m._y.__getstate__()
    del y["order"]
    state = {
        key: value
        for key, value in vars(m).items()
        if key not in ("_y", "_sampler")
    }
    state["_offsets"] = list(state["_offsets"].items())  # with its order
    return state, pickle.dumps(m._sampler), y


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"

    def test_no_tmp_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        state = engine_state()
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, state)
        checkpoint = read_checkpoint(path)
        assert checkpoint.spec == SPEC
        assert checkpoint.position == 500
        assert checkpoint.state["kind"] == "bare"
        assert checkpoint.path == path
        assert checkpoint.created_unix > 0

    def test_magic_is_versioned(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 1, engine_state(10))
        assert path.read_bytes().startswith(MAGIC)

    def test_negative_position_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            write_checkpoint(tmp_path / "c.bin", SPEC, -1, {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.bin")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"certainly not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    @pytest.mark.parametrize("keep", [4, 10, 60])
    def test_truncation_detected_everywhere(self, tmp_path, keep):
        # cut inside the header length, the header, and the state blob
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 9, engine_state(10))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(MAGIC) + keep])
        with pytest.raises(CheckpointError, match="truncated|torn"):
            read_checkpoint(path)

    def test_corrupt_state_crc_detected(self, tmp_path):
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 9, engine_state(10))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)


class TestBlockDequeCheckpoint:
    def test_restores_and_replays_like_an_uninterrupted_run(self, tmp_path):
        checkpoint = read_checkpoint(BLOCK_DEQUE_CHECKPOINT)
        stream = fixture_stream()
        with build_engine(checkpoint.spec) as engine, build_engine(
            checkpoint.spec
        ) as reference:
            engine.restore_state(checkpoint.state)
            restored = engine._sketch
            assert not hasattr(restored, "_queues")
            assert len(restored._counts) == restored.k + 1
            assert sum(restored._counts) == len(restored._fifo) > 0
            engine.update_many(stream[checkpoint.position :])
            reference.update_many(stream)
            assert memento_digest(engine._sketch) == memento_digest(
                reference._sketch
            )
            assert engine.heavy_hitters(0.02) == reference.heavy_hitters(0.02)
            # and the restored sketch checkpoints in the FIFO layout
            store = CheckpointStore(tmp_path)
            store.save(checkpoint.spec, len(stream), engine.snapshot_state())
            again, _ = store.restore()
            with again:
                assert memento_digest(again._sketch) == memento_digest(
                    reference._sketch
                )

    def test_prefix_state_matches_the_fifo_layout(self):
        checkpoint = read_checkpoint(BLOCK_DEQUE_CHECKPOINT)
        with build_engine(checkpoint.spec) as live:
            live.update_many(fixture_stream()[: checkpoint.position])
            assert memento_digest(checkpoint.state["state"]) == memento_digest(
                live._sketch
            )


#: bare H-Memento checkpoints written while the shared Memento counted
#: prefix tuples: window 600, seed 7, tau 0.5 and 60 counters (``src``)
#: or tau 1 and 150 counters (``src_dst``); position 1500 of
#: :func:`hmemento_stream`.
TUPLE_KEY_CHECKPOINTS = {
    kind: Path(__file__).parent / "data" / f"h_memento_{kind}_tuple_keys.ckpt"
    for kind in ("src", "src_dst")
}

#: digests of :func:`hmemento_answers` at the checkpoint, recorded by the
#: sketch that wrote it
TUPLE_KEY_ANSWERS = {
    "src": "f4fdb649379d00d70160765a9c696ed2cbcb37c71ae97fd53c96832ff30aaab8",
    "src_dst": "0bcfb1b672b833e1ebe86e7ad2354f5c1aeeaf5a19614fa89ada70f929f73c92",
}


def hmemento_stream(kind):
    src = [
        0x0A000000 | (i % 7) << 8 | (i * i) % 11 if i % 3 == 0
        else (i * 2654435761) % 2**32
        for i in range(2400)
    ]
    if kind == "src":
        return src
    return [(s, 0xC0A80000 | (s >> 7) % 5) for s in src]


def hmemento_answers(h):
    return (
        list(h.heavy_prefixes(0.2).items()),
        sorted(h.output(0.25, conservative=False)),
        sorted(h.output(0.6)),
        list(h.candidates()),
        h.entries(),
    )


def answers_digest(h):
    return hashlib.sha256(repr(hmemento_answers(h)).encode()).hexdigest()


def restore_fixture(directory, kind):
    fixture = TUPLE_KEY_CHECKPOINTS[kind]
    (directory / "ckpt-000000001500.bin").write_bytes(fixture.read_bytes())
    return CheckpointStore(directory).restore()


class TestTupleKeyedHMementoCheckpoint:
    @pytest.mark.parametrize("kind", sorted(TUPLE_KEY_CHECKPOINTS))
    def test_restores_to_codes_answering_as_recorded(self, tmp_path, kind):
        engine, position = restore_fixture(tmp_path, kind)
        with engine:
            assert position == 1500
            inner = engine.sketch._memento
            keys = list(chain(inner._offsets, inner._fifo, inner._y._index))
            assert keys and all(type(key) is int for key in keys)
            assert answers_digest(engine.sketch) == TUPLE_KEY_ANSWERS[kind]

    @pytest.mark.parametrize("kind", sorted(TUPLE_KEY_CHECKPOINTS))
    def test_replays_like_an_uninterrupted_run(self, tmp_path, kind):
        engine, position = restore_fixture(tmp_path, kind)
        stream = hmemento_stream(kind)
        with engine, build_engine(read_checkpoint(
            TUPLE_KEY_CHECKPOINTS[kind]
        ).spec) as reference:
            engine.update_many(stream[position:])
            reference.update_many(stream)
            assert hmemento_answers(engine.sketch) == hmemento_answers(
                reference.sketch
            )
            restored, live = engine.sketch._memento, reference.sketch._memento
            # the fixture's shared Memento runs at quantum 1 with the y an
            # older layout filled; the replay's frame flush emptied it
            assert restored.sample_block == 1 and not restored._y.monitored
            assert memento_digest(restored) == memento_digest(live)
            assert list(restored._y._index) == list(live._y._index)
            assert pickle.dumps(engine.sketch) == pickle.dumps(reference.sketch)
            # and the restored sketch checkpoints in the code layout
            store = CheckpointStore(tmp_path / "again")
            store.save(reference.spec, len(stream), engine.snapshot_state())
            again, _ = store.restore()
            with again:
                assert pickle.dumps(again.sketch) == pickle.dumps(reference.sketch)


class TestStore:
    def test_save_names_by_position(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(SPEC, 1234, engine_state(10))
        assert path.name == "ckpt-000000001234.bin"

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for position in (100, 200, 300):
            store.save(SPEC, position, engine_state(10))
        assert [p.name for p in store.list()] == [
            "ckpt-000000000200.bin",
            "ckpt-000000000300.bin",
        ]

    def test_load_latest_picks_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=3)
        for position in (100, 200, 300):
            store.save(SPEC, position, engine_state(10))
        assert store.load_latest().position == 300

    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=3)
        store.save(SPEC, 100, engine_state(10))
        newest = store.save(SPEC, 200, engine_state(20))
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])  # simulate a torn write
        checkpoint = store.load_latest()
        assert checkpoint.position == 100

    def test_all_torn_raises_with_details(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(SPEC, 100, engine_state(10))
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="all candidates failed"):
            store.load_latest()

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointStore(tmp_path).load_latest()

    def test_restore_rebuilds_equivalent_engine(self, tmp_path):
        stream = [i % 50 for i in range(2000)]
        with build_engine(SPEC) as reference:
            reference.update_many(stream)
            expected = reference.top_k(10)
        with build_engine(SPEC) as source:
            source.update_many(stream[:1500])
            store = CheckpointStore(tmp_path)
            store.save(SPEC, 1500, source.snapshot_state())
        engine, position = store.restore()
        try:
            assert position == 1500
            engine.update_many(stream[position:])
            assert engine.top_k(10) == expected
        finally:
            engine.close()

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            CheckpointStore(tmp_path, retain=0)


def dumps(state):
    """Pickle ``state`` the way ``write_checkpoint`` does."""
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def write_envelope(path, header, blob=b""):
    """Write an envelope with an arbitrary (JSON-encodable) header."""
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack(">I", len(encoded)) + encoded + blob)
    return path


def good_header(blob):
    return {
        "schema": "repro-ckpt/1",
        "spec": SPEC.to_dict(),
        "position": 7,
        "state_len": len(blob),
        "state_crc": zlib.crc32(blob),
        "created_unix": 1.5,
    }


def header_without(field):
    def build(blob):
        header = good_header(blob)
        del header[field]
        return header

    return build


def header_with(field, value):
    def build(blob):
        return {**good_header(blob), field: value}

    return build


#: (case id, header builder, expected message) — every malformed header
#: shape must end in CheckpointError, never a raw KeyError/AttributeError
BAD_HEADERS = [
    ("list", lambda blob: [], "not an object"),
    ("string", lambda blob: "repro-ckpt/1", "not an object"),
    ("null", lambda blob: None, "not an object"),
    ("number", lambda blob: 3, "not an object"),
    *(
        (f"missing-{field}", header_without(field), f"'{field}' is missing")
        for field in ("spec", "position", "state_len", "state_crc", "created_unix")
    ),
    ("spec-list", header_with("spec", []), "'spec' is missing or not"),
    ("position-string", header_with("position", "7"), "'position'"),
    ("position-bool", header_with("position", True), "'position'"),
    ("state_len-float", header_with("state_len", 3.0), "'state_len'"),
    ("state_crc-null", header_with("state_crc", None), "'state_crc'"),
    ("created-string", header_with("created_unix", "now"), "'created_unix'"),
    (
        "spec-mistyped-field",
        header_with(
            "spec",
            {"algorithm": {"family": "memento", "window": "x", "counters": 4}},
        ),
        "embedded spec is invalid",
    ),
]


class TestHeaderShape:
    @pytest.mark.parametrize(
        "build, message",
        [case[1:] for case in BAD_HEADERS],
        ids=[case[0] for case in BAD_HEADERS],
    )
    def test_malformed_header_is_a_checkpoint_error(self, tmp_path, build, message):
        blob = dumps(engine_state(10))
        path = write_envelope(tmp_path / "c.bin", build(blob), blob)
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)

    def test_well_formed_header_reads(self, tmp_path):
        blob = dumps(engine_state(10))
        path = write_envelope(tmp_path / "c.bin", good_header(blob), blob)
        assert read_checkpoint(path).position == 7

    @pytest.mark.parametrize(
        "build",
        [case[1] for case in BAD_HEADERS],
        ids=[case[0] for case in BAD_HEADERS],
    )
    def test_store_falls_back_past_a_malformed_header(self, tmp_path, build):
        store = CheckpointStore(tmp_path, retain=3)
        store.save(SPEC, 100, engine_state(10))
        blob = dumps(engine_state(20))
        write_envelope(store.path_for(200), build(blob), blob)
        assert store.load_latest().position == 100
        engine, position = store.restore()
        engine.close()
        assert position == 100


def referenced_globals(blob):
    """Every ``(module, name)`` a pickle's GLOBAL / STACK_GLOBAL opcodes
    name, found by walking its opcodes (strings reach STACK_GLOBAL
    directly or through the memo)."""
    found = set()
    memo = {}
    strings = []  # string pushes, in order
    last = None  # the value the previous opcode pushed, if a string
    for opcode, arg, _ in pickletools.genops(blob):
        name = opcode.name
        if name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            last = arg
            strings.append(arg)
        elif name == "MEMOIZE":
            memo[len(memo)] = last
        elif name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = last
        elif name in ("GET", "BINGET", "LONG_BINGET"):
            last = memo.get(arg)
            strings.append(last)
        elif name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            last = None
        elif name == "STACK_GLOBAL":
            found.add((strings[-2], strings[-1]))
            last = None
        else:
            last = None
    return found


def family_specs():
    """A small spec per registered family (and per named hierarchy for
    the hierarchical ones), bare and sharded."""
    for family in registered_algorithms():
        info = algorithm_info(family)
        algorithm = {"family": family, "seed": 3}
        if info.needs_window:
            algorithm["window"] = 512
        if info.counter_mode != "none":
            algorithm["counters"] = 64
        for hierarchy in ("src", "src_dst") if info.hierarchical else (None,):
            for shards in (None, 2):
                payload = {"algorithm": algorithm}
                if hierarchy is not None:
                    payload["hierarchy"] = {"kind": hierarchy}
                if shards is not None:
                    payload["sharding"] = {"shards": shards}
                name = "-".join(
                    str(part) for part in (family, hierarchy, shards) if part
                )
                yield name, SketchSpec.from_dict(payload)


def family_stream(spec, n=3000):
    keys = [(i * 2654435761) % 2**32 for i in range(n)]
    if spec.hierarchy is not None and spec.hierarchy.kind == "src_dst":
        return list(zip(keys, reversed(keys)))
    return keys


FAMILY_SPECS = list(family_specs())


class Crafted:
    """Pickles as a call of ``target(arg)`` — a hostile state blob."""

    def __init__(self, target, arg=0):
        self.call = (target, (arg,))

    def __reduce__(self):
        return self.call


class TestRestrictedUnpickling:
    @pytest.fixture(scope="class")
    def snapshots(self):
        blobs = {}
        for name, spec in FAMILY_SPECS:
            with build_engine(spec) as engine:
                engine.update_many(family_stream(spec))
                blobs[name] = (spec, dumps(engine.snapshot_state()))
        return blobs

    def test_allow_list_covers_every_family_snapshot(self, snapshots):
        referenced = set()
        for spec, blob in snapshots.values():
            referenced |= referenced_globals(blob)
        assert referenced <= STATE_GLOBALS, sorted(referenced - STATE_GLOBALS)
        # no stale entry: every project class allowed is one a snapshot uses
        ours = {entry for entry in STATE_GLOBALS if entry[0].startswith("repro.")}
        assert ours <= referenced, sorted(ours - referenced)

    @pytest.mark.parametrize("name", [name for name, _ in FAMILY_SPECS])
    def test_every_family_snapshot_restores(self, tmp_path, snapshots, name):
        spec, blob = snapshots[name]
        store = CheckpointStore(tmp_path)
        store.save(spec, 3000, pickle.loads(blob))
        engine, position = store.restore()
        try:
            assert position == 3000
            with build_engine(spec) as reference:
                reference.update_many(family_stream(spec))
                # a restored Space Saving keeps its key order, so keys are
                # listed, and top_k ties broken, as the live sketch does
                restored = engine.heavy_hitters(0.01)
                assert restored == reference.heavy_hitters(0.01)
                if isinstance(restored, dict):
                    assert list(restored) == list(reference.heavy_hitters(0.01))
                assert engine.top_k(25) == reference.top_k(25)
        finally:
            engine.close()

    @pytest.mark.parametrize(
        "blob, qualified",
        [
            # protocol-0 GLOBAL opcodes naming the module as written
            (b"cos\nsystem\n(I0\ntR.", "os.system"),
            (b"csys\nexit\n(I0\ntR.", "sys.exit"),
            # a protocol-5 STACK_GLOBAL, as pickle.dumps spells os.system
            (dumps(Crafted(os.system)), f"{os.system.__module__}.system"),
        ],
        ids=["os.system", "sys.exit", "stack-global"],
    )
    def test_crafted_state_naming_a_foreign_global_is_refused(
        self, tmp_path, blob, qualified
    ):
        # the argument 0 keeps even an unrestricted loader from running
        # anything but a TypeError (os.system) or SystemExit (sys.exit)
        path = write_envelope(tmp_path / "c.bin", good_header(blob), blob)
        with pytest.raises(CheckpointError, match=f"disallowed global {qualified}"):
            read_checkpoint(path)

    def test_base_exception_from_load_is_a_checkpoint_error(
        self, tmp_path, monkeypatch
    ):
        # widen the allow-list so the crafted state reaches sys.exit
        monkeypatch.setattr(
            checkpoint_module, "STATE_GLOBALS", STATE_GLOBALS | {("sys", "exit")}
        )

        blob = dumps(Crafted(sys.exit, 3))
        path = write_envelope(tmp_path / "c.bin", good_header(blob), blob)
        with pytest.raises(CheckpointError, match="SystemExit"):
            read_checkpoint(path)


class TestSamplerStateValidation:
    """A ``TableSampler`` state that does not describe its whole table
    is refused when the checkpoint is read, not on first use."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"bits": bytes(100)}, "100 packed bytes"),
            ({"pos": 1 << 16}, "outside"),
            ({"tau": 0.0}, "tau"),
        ],
        ids=["short-bits", "pos-past-table", "tau-zero"],
    )
    def test_inconsistent_table_is_a_checkpoint_error(
        self, tmp_path, monkeypatch, changes, message
    ):
        from repro.core.sampling import TableSampler

        packed = TableSampler.__getstate__
        monkeypatch.setattr(
            TableSampler,
            "__getstate__",
            lambda sampler: {**packed(sampler), **changes},
        )
        path = write_checkpoint(tmp_path / "c.bin", SPEC, 500, engine_state())
        with pytest.raises(CheckpointError, match=message):
            read_checkpoint(path)
