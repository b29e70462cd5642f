"""Seeded mutation fuzz of ``repro-ckpt/1`` checkpoints.

A checkpoint of every registered family is mutated four ways and
restored through :meth:`CheckpointStore.restore`, the daemon's
``--restore`` path:

* truncation, at seeded cut points;
* hostile header lengths (off by one, zero, past the file, 2**32 - 1);
* an embedded spec that names another family, a sharded stack, or the
  same family with another geometry;
* bit flips in the pickled state with the CRC recomputed, so every
  flip reaches the unpickler and the engine's shape check;
* one chosen flip per family, a ``MEMOIZE`` opcode (``0x94``) turned
  into ``BYTEARRAY8`` (``0x96``), whose next eight bytes then declare a
  length past the end of the state.

The first three end in :class:`CheckpointError` or in a restore whose
answers equal the original's.  A bit flip inside a count, a key or a
memo reference can decode to a well-formed state holding other values,
which nothing in a checkpoint (its CRC is recomputed here by
construction) can tell from the real one, unless the sketch's counters
then disagree with themselves; so for flips the loader's contract is
pinned instead: a restore either raises ``CheckpointError`` or returns
an engine whose queries answer, never another exception, and the fuzz
must reach both refusals and clean restores.  The chosen flip
must be refused by the opcode walk that precedes unpickling, so the
unpickler never allocates the declared length (nor prints CPython's
``SystemError ... exported buffers`` to stderr).

The case counts are fixed and the whole module runs in a few seconds.
"""

from __future__ import annotations

import json
import pickletools
import random
import struct
import sys
import zlib
from collections import Counter

import pytest

from repro.engine import SketchSpec, build_engine
from repro.engine.registry import algorithm_info, registered_algorithms
from repro.service.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)

SEED = 0x5EED
TRUNCATIONS = 12
HOSTILE_LENGTHS = 6
FLIPS = 60
POSITION = 3000


def family_spec(family, **overrides):
    """A small bare spec of ``family`` (``src`` hierarchy if it has one)."""
    info = algorithm_info(family)
    algorithm = {"family": family, "seed": 3}
    if info.needs_window:
        algorithm["window"] = 512
    if info.counter_mode != "none":
        algorithm["counters"] = 64
    algorithm.update(overrides)
    payload = {"algorithm": algorithm}
    if info.hierarchical:
        payload["hierarchy"] = {"kind": "src"}
    return SketchSpec.from_dict(payload)


FAMILIES = list(registered_algorithms())


def answers(engine):
    return engine.heavy_hitters(0.01), engine.top_k(25)


class Original:
    """One family's checkpoint, split into its parts, and its answers."""

    def __init__(self, family, directory):
        spec = family_spec(family)
        with build_engine(spec) as engine:
            engine.update_many(
                [(i * 2654435761) % 2**32 for i in range(POSITION)]
            )
            self.answers = answers(engine)  # queried before the snapshot
            path = write_checkpoint(
                directory / "original.bin",
                spec,
                POSITION,
                engine.snapshot_state(),
            )
        self.raw = path.read_bytes()
        offset = len(MAGIC)
        (length,) = struct.unpack_from(">I", self.raw, offset)
        offset += 4
        self.header = json.loads(self.raw[offset : offset + length])
        self.blob = self.raw[offset + length :]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    directory = tmp_path_factory.mktemp("originals")
    return {family: Original(family, directory) for family in FAMILIES}


def envelope(header, blob, length=None):
    encoded = json.dumps(header).encode("utf-8")
    if length is None:
        length = len(encoded)
    return MAGIC + struct.pack(">I", length) + encoded + blob


def restore(directory, raw):
    """Restore ``raw`` as the only checkpoint in ``directory``: the
    engine, or ``None`` when the restore raises CheckpointError."""
    store = CheckpointStore(directory)
    store.path_for(POSITION).write_bytes(raw)
    try:
        engine, position = store.restore()
    except CheckpointError:
        return None
    assert position == POSITION
    return engine


def restored_answers(directory, raw):
    """The restored engine's answers, or ``None`` when refused."""
    engine = restore(directory, raw)
    if engine is None:
        return None
    with engine:
        return answers(engine)


@pytest.mark.parametrize("family", FAMILIES)
def test_unmutated_checkpoint_restores(tmp_path, originals, family):
    original = originals[family]
    assert restored_answers(tmp_path, original.raw) == original.answers


@pytest.mark.parametrize("family", FAMILIES)
def test_truncation_is_refused(tmp_path, originals, family):
    raw = originals[family].raw
    rng = random.Random(f"{SEED}-truncate-{family}")
    cuts = {0, len(MAGIC) + 2, len(raw) - 1}
    cuts.update(rng.randrange(len(raw)) for _ in range(TRUNCATIONS))
    for cut in sorted(cuts):
        assert restore(tmp_path, raw[:cut]) is None, cut


@pytest.mark.parametrize("family", FAMILIES)
def test_hostile_header_length_is_refused(tmp_path, originals, family):
    original = originals[family]
    true = len(json.dumps(original.header).encode("utf-8"))
    rng = random.Random(f"{SEED}-length-{family}")
    lengths = {0, 1, true - 1, true + 1, true + len(original.blob), 2**32 - 1}
    while len(lengths) < 6 + HOSTILE_LENGTHS:
        length = rng.randrange(2**32)
        if length != true:
            lengths.add(length)
    for length in sorted(lengths):
        raw = envelope(original.header, original.blob, length)
        assert restore(tmp_path, raw) is None, length


def mismatched_specs(family):
    """Every spec that is not the checkpoint's own: the other families,
    a sharded stack of the same family, and the same family with
    another geometry."""
    for other in FAMILIES:
        if other != family:
            yield other, family_spec(other)
    sharded = family_spec(family).to_dict()
    sharded["sharding"] = {"shards": 2}
    yield "sharded", SketchSpec.from_dict(sharded)
    info = algorithm_info(family)
    if info.needs_window:
        yield "geometry", family_spec(family, window=1024)
    elif info.counter_mode != "none":
        yield "geometry", family_spec(family, counters=32)


@pytest.mark.parametrize("family", FAMILIES)
def test_mismatched_spec_is_refused_or_answers_the_same(
    tmp_path, originals, family
):
    original = originals[family]
    for name, spec in mismatched_specs(family):
        header = {**original.header, "spec": spec.to_dict()}
        got = restored_answers(tmp_path, envelope(header, original.blob))
        if name == "geometry":
            # the engine adopts the pickled sketch whole, geometry included
            assert got == original.answers
        else:
            assert got is None, name


def test_bit_flips_past_the_crc_raise_only_checkpoint_errors(
    tmp_path, originals
):
    rng = random.Random(f"{SEED}-flip")
    tally = Counter()
    for family in FAMILIES:
        original = originals[family]
        for _ in range(FLIPS):
            blob = bytearray(original.blob)
            for _ in range(rng.randint(1, 3)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            blob = bytes(blob)
            header = {**original.header, "state_crc": zlib.crc32(blob)}
            # any exception but CheckpointError fails the test here
            engine = restore(tmp_path, envelope(header, blob))
            if engine is None:
                tally["refused"] += 1
                continue
            with engine:
                try:
                    got = answers(engine)
                except Exception:
                    tally["queries fail"] += 1
                    continue
            if got == original.answers:
                tally["same answers"] += 1
            else:
                tally["other answers"] += 1
    assert sum(tally.values()) == FLIPS * len(FAMILIES)
    assert tally["refused"] > 0 and tally["same answers"] > 0, tally
    # a restored engine whose queries fail should have been refused
    assert tally["queries fail"] == 0, tally


@pytest.mark.parametrize("family", FAMILIES)
def test_a_length_past_the_end_is_refused_before_allocating(
    tmp_path, originals, family, capfd
):
    original = originals[family]
    blob = original.blob
    for opcode, _, pos in pickletools.genops(blob):
        declared = int.from_bytes(blob[pos + 1 : pos + 9], "little")
        # past the end, and a size the C unpickler would try to allocate
        if opcode.name == "MEMOIZE" and len(blob) < declared <= sys.maxsize:
            break
    else:
        pytest.fail("no MEMOIZE opcode followed by a length to allocate")
    flipped = blob[:pos] + b"\x96" + blob[pos + 1 :]
    header = {**original.header, "state_crc": zlib.crc32(flipped)}
    path = tmp_path / "flipped.bin"
    path.write_bytes(envelope(header, flipped))
    capfd.readouterr()
    # refused by the walk, which names the opcode, not by a MemoryError
    with pytest.raises(CheckpointError, match=f"expected {declared} bytes in a bytearray8"):
        read_checkpoint(path)
    assert "exported buffers" not in capfd.readouterr().err
