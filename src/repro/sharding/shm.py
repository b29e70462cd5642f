"""Zero-copy shared-memory batch lane for resident shard workers.

A :class:`~repro.sharding.executors.PersistentProcessExecutor` owns one
:class:`PlanRing`, read by all of its workers.  An integer batch of at
least :data:`~repro.sharding.executors.RING_MIN_ITEMS` keys travels
through it as two columns — the keys and their owner shards — instead
of being pickled into every worker pipe:

* the **parent** copies the columns once into the next free slot of one
  ``multiprocessing.shared_memory`` segment and pipes the same small
  descriptor — slot index plus a ``(dtype, length)`` layout per column —
  to every worker;
* each **worker** maps the segment once at startup, reads the columns
  as zero-copy ``np.ndarray`` views valid for that one apply, and
  selects its own keys from them;
* the segment's header holds one **retired counter per worker**, which
  that worker bumps after every apply (even a poisoned one).  The
  parent never waits for an ack message: a slot is free again once
  every worker has retired it (``issued - min(retired) < slots``), and
  ``write`` only waits when every slot is still in flight
  (backpressure-when-full), calling its ``poll`` hook on every turn of
  the wait so a dead worker is named instead of waited out.

Batches below ``RING_MIN_ITEMS``, batches that do not fit a slot and
non-integer batches are pickled into the worker pipes instead, so the
ring never limits what the executor can carry.

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
>>> ring = PlanRing(slots=2, slot_bytes=4096, readers=2)
>>> slot, layouts = ring.write([np.arange(4, dtype=np.int64)])
>>> workers = [PlanRing.attach(ring.name, 2, 4096, 2, reader) for reader in (0, 1)]
>>> [view.tolist() for view in workers[0].read(slot, layouts)]
[[0, 1, 2, 3]]
>>> workers[0].retire()
>>> ring.in_flight()  # worker 1 still holds the slot
1
>>> workers[1].retire()
>>> ring.in_flight()
0
>>> for worker in workers:
...     worker.close()
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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from multiprocessing import shared_memory

__all__ = [
    "PlanRing",
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

#: Column starts are 8-byte aligned inside a slot so every numeric view
#: is a properly aligned ndarray.
_ALIGN = 8

#: Default seconds ``write`` waits for a free slot before concluding a
#: worker is stalled.
DEFAULT_WRITE_TIMEOUT = 60.0


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


class PlanRing:
    """A single-producer, multi-reader slot ring in shared memory.

    The parent constructs (owns) the segment; each of the ``readers``
    workers maps it with :meth:`attach`, naming its own reader index.
    ``slots`` bounds the batches in flight; each slot is ``slot_bytes``
    of column payload.  The segment starts with a header of one uint64
    retired counter per reader.  Producer-side state is the local
    ``issued`` counter; each reader only stores its own counter, so no
    locks are needed: the producer only overwrites a slot every reader
    has retired, and a reader only reads slots the producer pointed it
    at through its pipe (the pipe preserves order).
    """

    __slots__ = (
        "slots", "slot_bytes", "_shm", "_owner", "_retired", "_reader", "_issued"
    )

    slots: int
    slot_bytes: int
    _shm: Optional[shared_memory.SharedMemory]
    _owner: bool
    _retired: Optional[np.ndarray]
    _reader: int
    _issued: int

    def __init__(
        self,
        slots: int = 8,
        slot_bytes: int = 1 << 20,
        readers: int = 1,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if slot_bytes <= 0:
            raise ValueError(f"slot_bytes must be positive, got {slot_bytes}")
        if readers <= 0:
            raise ValueError(f"readers must be positive, got {readers}")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
        with TRACKER_FORK_LOCK:  # creation registers with the tracker
            self._shm = shared_memory.SharedMemory(
                name=name,
                create=True,
                size=8 * readers + self.slots * self.slot_bytes,
            )
        self._owner = True
        self._retired = np.ndarray((readers,), dtype=np.uint64, buffer=self._shm.buf)
        self._retired[:] = 0
        self._reader = -1
        self._issued = 0

    @classmethod
    def attach(
        cls, name: str, slots: int, slot_bytes: int, readers: int, reader: int
    ) -> "PlanRing":
        """Map an existing ring as reader ``reader`` (worker side; never
        unlinks).

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
        ring._retired = np.ndarray((readers,), dtype=np.uint64, buffer=shm.buf)
        ring._reader = int(reader)
        ring._issued = 0
        return ring

    @property
    def name(self) -> str:
        """The shared-memory segment name (ships in the worker's args)."""
        assert self._shm is not None, "ring is closed"
        return self._shm.name

    def _base(self, slot: int) -> int:
        assert self._retired is not None, "ring is closed"
        return int(self._retired.nbytes) + slot * self.slot_bytes

    def in_flight(self) -> int:
        """Slots written but not yet retired by every reader."""
        assert self._retired is not None, "ring is closed"
        return self._issued - int(self._retired.min())

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def write(
        self,
        columns: Sequence[np.ndarray],
        timeout: Optional[float] = DEFAULT_WRITE_TIMEOUT,
        poll: Optional[Callable[[], None]] = None,
    ) -> Optional[Tuple[int, List[Tuple[str, int]]]]:
        """Copy ``columns`` into the next free slot.

        Returns ``(slot, layouts)`` where ``layouts`` is one
        ``(dtype_str, length)`` pair per column — everything a reader
        needs to rebuild the views — or ``None`` when the payload
        exceeds ``slot_bytes`` (the caller falls back to the pipe).
        Blocks while all slots are in flight, calling ``poll`` (which
        may raise, say for a dead reader) on every turn of the wait;
        raises ``RuntimeError`` after ``timeout`` seconds of no reader
        progress (a wedged worker must not hang the parent).
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
                if poll is not None:
                    poll()
                if deadline is not None and time.monotonic() > deadline:
                    raise RuntimeError(
                        f"shared-memory plan ring {self.name} full for "
                        f"{timeout}s ({self.slots} slots in flight) — "
                        f"worker stalled or dead"
                    )
                time.sleep(0.0002)
        slot = self._issued % self.slots
        base = self._base(slot)
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
    # reader side
    # ------------------------------------------------------------------
    def read(
        self, slot: int, layouts: Sequence[Tuple[str, int]]
    ) -> List[np.ndarray]:
        """Zero-copy views over one written slot's columns.

        The views alias the slot: they are valid until :meth:`retire`
        frees it for reuse, so readers must drop them (or copy) before
        retiring.
        """
        assert self._shm is not None, "ring is closed"
        base = self._base(slot)
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
        """Mark this reader done with its oldest slot.

        A single aligned 8-byte store into this reader's own counter;
        the producer polls the minimum, so no message crosses the pipe.
        """
        assert self._retired is not None, "ring is closed"
        self._retired[self._reader] += np.uint64(1)

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
