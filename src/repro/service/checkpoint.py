"""``repro-ckpt/1``: versioned, atomic engine checkpoints.

One checkpoint file is a self-describing envelope::

    b"repro-ckpt/1\\n"                       # magic + schema version
    <4-byte big-endian header length>
    <header JSON>                            # spec, position, state CRC
    <pickled engine state snapshot>

The header carries the **resolved** :class:`~repro.engine.SketchSpec`
dict, so :meth:`CheckpointStore.restore` rebuilds the exact engine via
:func:`~repro.engine.build_engine` before adopting the pickled state —
a checkpoint is sufficient on its own, no side-channel config.  The
``position`` field is the global stream position (items accepted) at
snapshot time: a supervisor replays the tail from there and, under
fixed seeds, lands byte-identical to an uninterrupted run (pinned by
``tests/integration/test_failure_injection.py``).

Durability discipline: envelopes are written via
:func:`atomic_write_bytes` (tmp file + fsync + ``os.replace``), so a
crash mid-write leaves either the previous file or a ``.tmp`` orphan —
never a half-written checkpoint under the final name.  Reads verify
magic, the header's shape, length, and CRC; the state's opcodes are
walked (``pickletools.genops``) before anything is built, so an opcode
whose declared length runs past the state's end is refused before the
unpickler allocates that length; and the state is unpickled by a loader
that resolves only the globals engine snapshots reference
(:data:`STATE_GLOBALS`), so a crafted file cannot name ``os.system``;
every failure is a :class:`CheckpointError`.  :class:`CheckpointStore`
walks checkpoints newest-first and falls back past torn/corrupt files to
the previous good one.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import struct
import time
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..engine.spec import SketchSpec

__all__ = [
    "MAGIC",
    "STATE_GLOBALS",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "atomic_write_bytes",
    "read_checkpoint",
    "write_checkpoint",
]

MAGIC = b"repro-ckpt/1\n"

_HLEN = struct.Struct(">I")


#: every global an engine snapshot's pickle references, as
#: ``(module, name)``: the sketch classes of the registered families,
#: their samplers and hierarchies, and the numpy reconstructors of their
#: RNGs and arrays.  ``tests/service/test_checkpoint.py`` derives the set
#: from bare and sharded snapshots of every family and checks it against
#: this one.
STATE_GLOBALS = frozenset(
    {
        ("collections", "deque"),
        ("numpy", "dtype"),
        ("numpy._core.numeric", "_frombuffer"),
        ("numpy.core.numeric", "_frombuffer"),  # the numpy 1.x spelling
        ("numpy.random._pcg64", "PCG64"),
        ("numpy.random._pickle", "__bit_generator_ctor"),
        ("numpy.random._pickle", "__generator_ctor"),
        ("numpy.random.bit_generator", "SeedSequence"),
        ("numpy.random.bit_generator", "__pyx_unpickle_SeedSequence"),
        ("repro.core.exact", "ExactWindowCounter"),
        ("repro.core.h_memento", "HMemento"),
        ("repro.core.memento", "Memento"),
        ("repro.core.mst", "MST"),
        ("repro.core.mst", "WindowBaseline"),
        ("repro.core.rhhh", "RHHH"),
        ("repro.core.sampling", "BernoulliSampler"),
        ("repro.core.sampling", "GeometricSampler"),
        ("repro.core.sampling", "TableSampler"),
        ("repro.core.space_saving", "SpaceSaving"),
        ("repro.hierarchy.domain", "Hierarchy1D"),
        ("repro.hierarchy.domain", "Hierarchy2D"),
    }
)

#: header fields past ``schema`` and the JSON types each must have
_HEADER_FIELDS = (
    ("spec", dict, "an object"),
    ("position", int, "an integer"),
    ("state_len", int, "an integer"),
    ("state_crc", int, "an integer"),
    ("created_unix", (int, float), "a number"),
)


class CheckpointError(RuntimeError):
    """A missing, torn, or corrupt checkpoint file."""


class _StateUnpickler(pickle.Unpickler):
    """Unpickles a snapshot, resolving only :data:`STATE_GLOBALS`."""

    def find_class(self, module: str, name: str) -> object:
        if (module, name) not in STATE_GLOBALS:
            raise CheckpointError(
                f"state references the disallowed global {module}.{name}"
            )
        return super().find_class(module, name)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives next to the target (same filesystem, so
    ``os.replace`` is atomic) and is fsynced before the rename; readers
    therefore only ever observe the previous content or the complete
    new content.  This is the sanctioned write path for checkpoint
    files — ``repro-lint`` RL007 flags any other write in this package.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """A decoded checkpoint: the spec, stream position, and state.

    ``state`` is the engine snapshot as produced by
    :meth:`~repro.engine.HeavyHitterEngine.snapshot_state`; ``spec`` is
    the spec the engine was built from, so the pair fully determines a
    restored engine.
    """

    spec: SketchSpec
    position: int
    state: object
    created_unix: float
    path: Optional[Path] = None


def write_checkpoint(
    path: Union[str, Path],
    spec: SketchSpec,
    position: int,
    state: object,
) -> Path:
    """Encode and atomically persist one ``repro-ckpt/1`` envelope."""
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "schema": "repro-ckpt/1",
            "spec": spec.to_dict(),
            "position": int(position),
            "state_len": len(blob),
            "state_crc": zlib.crc32(blob),
            "created_unix": time.time(),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    envelope = MAGIC + _HLEN.pack(len(header)) + header + blob
    return atomic_write_bytes(path, envelope)


def read_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Decode and verify one envelope; raises :class:`CheckpointError`
    on any truncation, magic/schema mismatch, malformed header, CRC
    failure, state whose opcodes do not parse (an argument running past
    the end included), or state that does not unpickle under
    :data:`STATE_GLOBALS`."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a repro-ckpt/1 file)")
    offset = len(MAGIC)
    if len(raw) < offset + _HLEN.size:
        raise CheckpointError(f"{path}: truncated inside the header length")
    (header_len,) = _HLEN.unpack_from(raw, offset)
    offset += _HLEN.size
    if len(raw) < offset + header_len:
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(raw[offset : offset + header_len])
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from None
    offset += header_len
    if not isinstance(header, dict):
        raise CheckpointError(
            f"{path}: header is a JSON {type(header).__name__}, not an object"
        )
    if header.get("schema") != "repro-ckpt/1":
        raise CheckpointError(
            f"{path}: unsupported schema {header.get('schema')!r}"
        )
    for field, kind, described in _HEADER_FIELDS:
        value = header.get(field)
        # JSON true/false decode to bool, which is an int subclass
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(
                f"{path}: header field {field!r} is missing or not {described}"
            )
    blob = raw[offset:]
    if len(blob) != header["state_len"]:
        raise CheckpointError(
            f"{path}: state is {len(blob)} bytes, header says "
            f"{header['state_len']} (torn write?)"
        )
    if zlib.crc32(blob) != header["state_crc"]:
        raise CheckpointError(f"{path}: state CRC mismatch")
    try:
        spec = SketchSpec.from_dict(header["spec"])
    except (ValueError, TypeError) as exc:  # TypeError: a mistyped field
        raise CheckpointError(f"{path}: embedded spec is invalid: {exc}") from None
    import pickletools  # only restores need it: off the daemon's import path

    try:
        # the C unpickler allocates a counted opcode's declared length
        # before reading it (BYTEARRAY8 takes any 8-byte length); the
        # walk reads each argument from the state itself and raises
        # ValueError for one that runs past its end
        for _ in pickletools.genops(blob):
            pass
        state = _StateUnpickler(io.BytesIO(blob)).load()
    except KeyboardInterrupt:
        raise  # the operator's, not the file's
    except BaseException as exc:
        # a crafted state can raise anything, SystemExit included
        raise CheckpointError(
            f"{path}: cannot unpickle state: {exc!r}"
        ) from None
    return Checkpoint(
        spec=spec,
        position=int(header["position"]),
        state=state,
        created_unix=float(header["created_unix"]),
        path=path,
    )


class CheckpointStore:
    """A directory of position-stamped checkpoints with retention.

    Files are named ``ckpt-{position:012d}.bin`` so lexicographic order
    is stream order.  :meth:`save` writes atomically and prunes to the
    newest ``retain`` files; :meth:`load_latest` walks newest-first and
    skips torn/corrupt files (returning the previous good one), which is
    the crash-recovery contract the failure-injection tests pin.
    """

    def __init__(self, directory: Union[str, Path], retain: int = 2) -> None:
        if retain <= 0:
            raise ValueError(f"retain must be positive, got {retain}")
        self.directory = Path(directory)
        self.retain = retain
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, position: int) -> Path:
        """The file a checkpoint at ``position`` is stored under."""
        return self.directory / f"ckpt-{position:012d}.bin"

    def list(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        return sorted(self.directory.glob("ckpt-*.bin"))

    def save(self, spec: SketchSpec, position: int, state: object) -> Path:
        """Persist one checkpoint and prune past the retention limit."""
        path = write_checkpoint(self.path_for(position), spec, position, state)
        for stale in self.list()[: -self.retain]:
            stale.unlink(missing_ok=True)
        return path

    def load_latest(self) -> Checkpoint:
        """Decode the newest readable checkpoint (falling back past torn
        files); raises :class:`CheckpointError` when none is usable."""
        failures = []
        for path in reversed(self.list()):
            try:
                return read_checkpoint(path)
            except CheckpointError as exc:
                failures.append(str(exc))
        if failures:
            raise CheckpointError(
                "no readable checkpoint; all candidates failed:\n  "
                + "\n  ".join(failures)
            )
        raise CheckpointError(f"no checkpoints in {self.directory}")

    def restore(self, hierarchy: object = None) -> Tuple[object, int]:
        """Rebuild an engine from the newest good checkpoint.

        Returns ``(engine, position)``: the engine is built via
        :func:`~repro.engine.build_engine` from the checkpointed spec,
        then adopts the pickled state, so replaying the stream from
        ``position`` onward reproduces an uninterrupted run exactly.  A
        state the spec's engine cannot adopt (another family's sketch,
        or one damaged past its CRC) raises :class:`CheckpointError`.
        """
        from ..engine.facade import build_engine

        checkpoint = self.load_latest()
        engine = build_engine(checkpoint.spec, hierarchy=hierarchy)
        try:
            engine.restore_state(checkpoint.state)
        except ValueError as exc:
            engine.close()
            raise CheckpointError(
                f"{checkpoint.path}: state does not fit its spec: {exc}"
            ) from None
        return engine, checkpoint.position
