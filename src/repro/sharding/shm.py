"""Zero-copy shared-memory plan lane for resident shard workers.

Every :class:`~repro.sharding.executors.PersistentProcessExecutor`
worker gets one :class:`PlanRing`.  A per-shard plan (positions + owned
items) that is large enough — at least
:data:`~repro.sharding.executors.RING_MIN_ITEMS` items — travels through
it instead of being pickled into the worker pipe, because for columnar
feeds the payload *is* a couple of numpy columns and serializing them
per batch is pure overhead:

* the **parent** writes the plan columns into the next free slot of a
  per-worker ring inside one ``multiprocessing.shared_memory`` segment
  and pipes only a tiny descriptor — slot index plus a
  ``(dtype, length)`` layout per column;
* the **worker** maps the same segment once at startup and reconstructs
  each column as a zero-copy ``np.ndarray`` view over the slot, valid
  for the duration of that one apply;
* slot reclamation is a single monotonically increasing **retired
  counter** the worker stores into the segment's control header after
  every apply (even a poisoned one).  The parent never blocks on an ack
  message: a slot is free again once ``issued - retired < slots``, and
  ``write`` only waits when every slot is still in flight
  (backpressure-when-full).

Small tasks, payloads that don't fit a slot, and tasks with no
vectorizable column at all go as the pickle-over-pipe message instead,
so the ring never limits what the executor can carry.

:func:`split_task` / :func:`rebuild_task` translate between executor
task tuples and ring columns: 1-D numeric/fixed-width-string arrays ride
as columns, ``list`` payloads of ints/strs/bytes are encoded through
:func:`repro.core.kernel.encode_items_column` and decoded back to the
identical lists on the worker (so both lanes deliver *equal* task
arguments), and anything else stays an inline (pickled) object.

Lifecycle: the creating side owns the segment and ``unlink``\\ s it on
``close()``; attaching sides only unmap.  Worker processes are always
children of the creator, so they share its resource-tracker process and
their attach-time re-registration dedups into the parent's entry — no
tracker bookkeeping is needed on the worker side, and the tracker stays
the crash safety net that unlinks segments if the parent dies without
closing.  :func:`leaked_segments` is the test-suite guard's probe.

Examples
--------
>>> import numpy as np
>>> ring = PlanRing(slots=2, slot_bytes=4096)
>>> slot, layouts = ring.write([np.arange(4, dtype=np.int64)])
>>> reader = PlanRing.attach(ring.name, slots=2, slot_bytes=4096)
>>> [view.tolist() for view in reader.read(slot, layouts)]
[[0, 1, 2, 3]]
>>> reader.retire()
>>> reader.close()
>>> ring.close()
>>> leaked_segments()
[]
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
from multiprocessing import shared_memory

from ..core.kernel import encode_items_column

__all__ = [
    "PlanRing",
    "split_task",
    "rebuild_task",
    "leaked_segments",
    "SEGMENT_PREFIX",
    "TRACKER_FORK_LOCK",
]

#: Serializes worker **forks** against resource-tracker critical
#: sections.  Creating/unlinking a ``SharedMemory`` segment registers it
#: with the process-global ``multiprocessing.resource_tracker``, whose
#: internal lock is NOT reinitialized across ``fork()``: a worker forked
#: (by one engine's calling thread — say an in-process daemon's engine
#: thread) at the instant another thread (a second engine's) holds that
#: lock inherits it locked forever, and the child then deadlocks on its first tracker call — its attach-time
#: ``SharedMemory`` registration — before ever reading its pipe, which
#: in turn wedges the parent's next ``collect()``.  Every parent-side
#: tracker touchpoint in this package (ring create/unlink) and every
#: ``Process.start()`` in the persistent executor takes this lock, so a
#: fork can never observe the tracker lock mid-critical-section (the
#: worker-side :meth:`PlanRing.attach` must NOT take it — the child
#: inherits it in the locked state).  An ``RLock`` because a
#: GC-triggered ``PlanRing.__del__`` may fire inside a locked region on
#: the same thread.
TRACKER_FORK_LOCK = threading.RLock()

#: Shared-memory segment name prefix (``{prefix}_{pid}_{token}``): the
#: pid scopes :func:`leaked_segments` to the creating process.
SEGMENT_PREFIX = "repro_plan"

#: Control header bytes at the start of the segment (one cache line);
#: holds the worker-written retired counter (uint64 at offset 0).
_CTRL_BYTES = 64

#: Column starts are 8-byte aligned inside a slot so every numeric view
#: is a properly aligned ndarray.
_ALIGN = 8

#: Default seconds ``write`` waits for a free slot before concluding the
#: worker is stalled.
DEFAULT_WRITE_TIMEOUT = 60.0


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class PlanRing:
    """A single-producer/single-consumer slot ring in shared memory.

    The parent constructs (owns) the segment; the worker maps it with
    :meth:`attach`.  ``slots`` bounds the plans in flight; each slot is
    ``slot_bytes`` of column payload.  Producer-side state is the local
    ``issued`` counter; consumer progress is the shared retired counter,
    so no locks are needed: the producer only writes slots the consumer
    has retired, and the consumer only reads slots the producer pointed
    it at through the pipe descriptor (the pipe preserves order).
    """

    __slots__ = ("slots", "slot_bytes", "_shm", "_owner", "_retired", "_issued")

    slots: int
    slot_bytes: int
    _shm: Optional[shared_memory.SharedMemory]
    _owner: bool
    _retired: Optional[np.ndarray]
    _issued: int

    def __init__(
        self,
        slots: int = 8,
        slot_bytes: int = 1 << 20,
        *,
        name: Optional[str] = None,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if slot_bytes <= 0:
            raise ValueError(f"slot_bytes must be positive, got {slot_bytes}")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        if name is None:
            name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        with TRACKER_FORK_LOCK:  # creation registers with the tracker
            self._shm = shared_memory.SharedMemory(
                name=name,
                create=True,
                size=_CTRL_BYTES + self.slots * self.slot_bytes,
            )
        self._owner = True
        self._retired = np.ndarray((1,), dtype=np.uint64, buffer=self._shm.buf)
        self._retired[0] = 0
        self._issued = 0

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "PlanRing":
        """Map an existing ring (worker side; never unlinks).

        Attaching re-registers the name with the resource tracker, but
        workers are children of the creator and share its tracker
        process, so the registration dedups into the owner's entry; the
        owner's ``unlink`` retires it exactly once.
        """
        ring = cls.__new__(cls)
        ring.slots = int(slots)
        ring.slot_bytes = int(slot_bytes)
        # deliberately NOT under TRACKER_FORK_LOCK: attach runs in the
        # freshly forked worker, which inherited that lock in the locked
        # state (the parent holds it across the fork precisely so the
        # tracker's own lock is free here) — taking it would self-
        # deadlock, and no sibling thread exists in the child to race
        shm = shared_memory.SharedMemory(name=name)
        ring._shm = shm
        ring._owner = False
        ring._retired = np.ndarray((1,), dtype=np.uint64, buffer=shm.buf)
        ring._issued = 0
        return ring

    @property
    def name(self) -> str:
        """The shared-memory segment name (ships in the worker's args)."""
        assert self._shm is not None, "ring is closed"
        return self._shm.name

    def in_flight(self) -> int:
        """Slots written but not yet retired by the consumer."""
        assert self._retired is not None, "ring is closed"
        return self._issued - int(self._retired[0])

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def write(
        self,
        columns: Sequence[np.ndarray],
        timeout: Optional[float] = DEFAULT_WRITE_TIMEOUT,
    ) -> Optional[Tuple[int, List[Tuple[str, int]]]]:
        """Copy ``columns`` into the next free slot.

        Returns ``(slot, layouts)`` where ``layouts`` is one
        ``(dtype_str, length)`` pair per column — everything the
        consumer needs to rebuild the views — or ``None`` when the
        payload exceeds ``slot_bytes`` (the caller falls back to the
        pipe).  Blocks while all slots are in flight; raises
        ``RuntimeError`` after ``timeout`` seconds of no consumer
        progress (a dead or wedged worker must not hang the parent).
        """
        assert self._shm is not None, "ring is closed"
        columns = [np.ascontiguousarray(col) for col in columns]
        if sum(_aligned(col.nbytes) for col in columns) > self.slot_bytes:
            return None
        if self.in_flight() >= self.slots:
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            while self.in_flight() >= self.slots:
                if deadline is not None and time.monotonic() > deadline:
                    raise RuntimeError(
                        f"shared-memory plan ring {self.name} full for "
                        f"{timeout}s ({self.slots} slots in flight) — "
                        f"worker stalled or dead"
                    )
                time.sleep(0.0002)
        slot = self._issued % self.slots
        base = _CTRL_BYTES + slot * self.slot_bytes
        buf = self._shm.buf
        offset = 0
        layouts: List[Tuple[str, int]] = []
        for col in columns:
            view = np.ndarray(
                col.shape, dtype=col.dtype, buffer=buf, offset=base + offset
            )
            np.copyto(view, col, casting="no")
            del view
            layouts.append((col.dtype.str, int(col.shape[0])))
            offset += _aligned(col.nbytes)
        self._issued += 1
        return slot, layouts

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def read(
        self, slot: int, layouts: Sequence[Tuple[str, int]]
    ) -> List[np.ndarray]:
        """Zero-copy views over one written slot's columns.

        The views alias the slot: they are valid until :meth:`retire`
        frees it for reuse, so consumers must drop them (or copy) before
        retiring.
        """
        assert self._shm is not None, "ring is closed"
        base = _CTRL_BYTES + slot * self.slot_bytes
        buf = self._shm.buf
        offset = 0
        views: List[np.ndarray] = []
        for dtype_str, length in layouts:
            dtype = np.dtype(dtype_str)
            views.append(
                np.ndarray((length,), dtype=dtype, buffer=buf, offset=base + offset)
            )
            offset += _aligned(length * dtype.itemsize)
        return views

    def retire(self) -> None:
        """Mark the oldest in-flight slot consumed (frees it for reuse).

        A single aligned 8-byte store of the incremented counter; the
        producer polls it, so no message crosses the pipe.
        """
        assert self._retired is not None, "ring is closed"
        self._retired[0] += np.uint64(1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment; the owning side also unlinks it (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self._retired = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a column view outlived us
            # the mapping lives until the stray view dies; unlink still
            # removes the name so nothing persists past the process
            pass
        if self._owner:
            try:
                with TRACKER_FORK_LOCK:  # unlink unregisters with the tracker
                    shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - interpreter-teardown best effort
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._shm is None else self.name
        return (
            f"PlanRing({state}, slots={self.slots}, "
            f"slot_bytes={self.slot_bytes}, owner={self._owner})"
        )


# ----------------------------------------------------------------------
# task <-> column translation
# ----------------------------------------------------------------------
def split_task(task: Sequence) -> Optional[tuple]:
    """Split an executor task tuple into ring columns plus a recipe.

    Returns ``(columns, recipe)`` — ``columns`` the arrays to ship
    through the ring, ``recipe`` one entry per task element telling
    :func:`rebuild_task` how to restore it:

    * ``("arr", i)`` — element was a 1-D numeric/fixed-width array;
      restored as the zero-copy view of column ``i``;
    * ``("list", i)`` — element was a list that
      :func:`~repro.core.kernel.encode_items_column` encoded losslessly;
      restored as the *equal* list (``column.tolist()``);
    * ``("obj", value)`` — element rides inline in the pipe descriptor
      (pickled as usual).

    Returns ``None`` when no element can ride a column — the caller
    should send the classic pipe message instead.
    """
    columns: List[np.ndarray] = []
    recipe: List[tuple] = []
    for arg in task:
        if (
            isinstance(arg, np.ndarray)
            and arg.ndim == 1
            and arg.dtype.kind in "iufSU"
        ):
            recipe.append(("arr", len(columns)))
            columns.append(arg)
            continue
        if isinstance(arg, list):
            encoded = encode_items_column(arg)
            if encoded is not None:
                recipe.append(("list", len(columns)))
                columns.append(encoded)
                continue
        recipe.append(("obj", arg))
    if not columns:
        return None
    return columns, recipe


def rebuild_task(views: Sequence[np.ndarray], recipe: Sequence[tuple]) -> tuple:
    """Restore the task tuple :func:`split_task` described (worker side).

    ``("arr", i)`` elements come back as the slot views themselves —
    valid only until the slot is retired; ``("list", i)`` elements
    decode to plain Python lists (safe past retirement); ``("obj", v)``
    elements pass through.
    """
    args = []
    for kind, payload in recipe:
        if kind == "arr":
            args.append(views[payload])
        elif kind == "list":
            args.append(views[payload].tolist())
        else:
            args.append(payload)
    return tuple(args)


def leaked_segments(pid: Optional[int] = None) -> List[str]:
    """Names of this process's plan segments still present in ``/dev/shm``.

    The session-wide test guard calls this after every ring should have
    been closed; a non-empty result means some teardown path dropped an
    ``unlink``.  Returns ``[]`` on platforms without ``/dev/shm``.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    prefix = f"{SEGMENT_PREFIX}_{os.getpid() if pid is None else pid}_"
    try:
        return sorted(
            entry.name for entry in root.iterdir()
            if entry.name.startswith(prefix)
        )
    except OSError:  # pragma: no cover - raced teardown
        return []
