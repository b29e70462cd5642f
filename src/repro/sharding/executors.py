"""Resident shard workers: the ``persistent`` executor.

:class:`repro.sharding.sharded.ShardedSketch` applies shard work in the
calling thread (``executor="serial"``) or hands it to a
:class:`PersistentProcessExecutor` (``executor="persistent"``, or an
instance of it): one long-lived worker process per shard holding the
shard sketch **resident**.  The initial state is shipped once
(``seed``), each batch sends only its keys, and state returns to the
parent only on demand (``collect``, which :class:`ShardedSketch`
triggers lazily at the first query after ingestion).

Every worker runs the same function the serial loop runs.  An integer
batch is broadcast: ``submit(fn, tasks, columns)`` hands every worker
the batch's key and owner columns, and each worker selects its own keys
from them.  Columns of at least :data:`RING_MIN_ITEMS` items that fit a
slot are copied **once** into the executor's one
:class:`~repro.sharding.shm.PlanRing` and every pipe carries only the
slot descriptor; smaller or oversized columns are pickled into each
pipe with the task.  Non-integer batches go as one pickled per-shard
task each (``submit`` without columns), and window advances as one
pickled ``broadcast``.  Every lane delivers equal arguments, pinned
against serial ingestion by ``tests/sharding/test_shm_transport.py``
and against each shard's scalar replay by
``tests/sharding/test_scalar_replay.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

from .shm import PlanRing, TRACKER_FORK_LOCK

__all__ = [
    "PersistentProcessExecutor",
    "RING_MIN_ITEMS",
]

#: Smallest column broadcast (in items) that goes through the
#: shared-memory ring; smaller ones are pickled into the pipes.  Set at
#: the measured break-even of the two lanes for one worker: 2000 submits
#: of ``(positions, items)`` int64 columns, lane forced, per-task wall
#: time, medians of 5 runs on a 2-vCPU x86-64 VM under Python 3.11.
#: Pickle vs ring: 39.0 vs 45.7 µs at 8 items, 55.3 vs 58.9 at 256, 49.7
#: vs 52.7 at 384, 56.3 vs 55.9 at 512, 73.0 vs 69.9 at 1024, 166.9 vs
#: 124.6 at 4096.  The ring's fixed cost (slot bookkeeping, column
#: layouts, rebuilding the views) only pays off once the copy it saves
#: is a few KiB; with ``S`` workers a broadcast saves ``S`` copies.
RING_MIN_ITEMS = 512

#: How long :meth:`PersistentProcessExecutor.collect` waits for a worker
#: reply before raising.  A healthy worker answers in milliseconds even
#: with a large resident state; the deadline exists so a wedged or dead
#: worker turns into a loud, diagnosable failure instead of an infinite
#: parent hang.
DEFAULT_COLLECT_TIMEOUT = 120.0


def _persistent_worker(
    conn,
    ring_args: Tuple[str, int, int, int, int],
    stale_fds: Tuple[int, ...] = (),
) -> None:
    """Loop of one resident shard worker (module-level: must pickle).

    The worker owns its shard sketch for the lifetime of the process.
    Messages: ``("seed", shard)`` installs state; ``("apply", fn, *args)``
    runs ``fn(shard, *args)`` in place; ``("apply_cols", fn, slot,
    layouts, *args)`` runs ``fn(shard, *columns, *args)`` over zero-copy
    views of one slot of the shared ring named by ``ring_args`` (this
    worker's reader index last), retiring the slot afterwards **whether
    or not the apply succeeded** (a poisoned worker that stopped
    retiring would deadlock the parent's backpressure wait);
    ``("collect",)`` ships the current state (or the first recorded
    failure) back; ``("stop",)`` exits.  A failed apply
    poisons the worker — later applies are skipped and the error
    surfaces at the next collect — so the parent never silently
    continues on half-applied state.

    Orphan safety: a plain blocking ``recv`` cannot notice a SIGKILLed
    parent under the fork start method — every later-forked sibling
    (and this worker itself) inherits a copy of the pipe's write end,
    so EOF never arrives.  ``stale_fds`` are those inherited parent-end
    descriptors (this pipe's and earlier siblings'); closing them first
    thing restores real EOF/EPIPE semantics, so a worker blocked
    **sending** a reply when the parent dies gets ``BrokenPipeError``
    instead of sleeping forever on a socket its own inherited fd keeps
    alive.  The loop additionally polls the pipe and exits when the
    process is re-parented (``getppid`` changed) as a belt-and-braces
    path; either way the shared resource tracker unlinks the shm ring
    once the last worker is gone.
    """
    for fd in stale_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed elsewhere
            pass
    shard = None
    error: Optional[str] = None
    parent_pid = os.getppid()
    ring = PlanRing.attach(*ring_args)
    try:
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: parent died without ("stop",)
            try:
                msg = conn.recv()
            except EOFError:  # parent went away
                return
            kind = msg[0]
            if kind == "apply":
                if error is None:
                    try:
                        fn = msg[1]
                        fn(shard, *msg[2:])
                    except BaseException:
                        error = traceback.format_exc()
            elif kind == "apply_cols":
                try:
                    if error is None:
                        fn, slot, layouts = msg[1:4]
                        columns = ring.read(slot, layouts)
                        try:
                            fn(shard, *columns, *msg[4:])
                        finally:
                            # drop the zero-copy views before the slot
                            # is handed back for reuse
                            del columns
                except BaseException:
                    error = traceback.format_exc()
                finally:
                    ring.retire()
            elif kind == "collect":
                try:
                    _send_state(conn, shard, error)
                except OSError:
                    # the parent closed its end (a collect deadline tears
                    # the workers down): nobody is left to answer
                    return
            elif kind == "seed":
                shard = msg[1]
                error = None
            elif kind == "stop":
                conn.close()
                return
    finally:
        ring.close()


def _send_state(conn, shard, error: Optional[str]) -> None:
    """Answer a collect with the shard, or with the recorded failure (a
    shard that cannot be pickled answers with that traceback)."""
    if error is None:
        try:
            conn.send(("state", shard))
            return
        except OSError:
            raise
        except Exception:  # an unpicklable shard
            error = traceback.format_exc()
    conn.send(("error", error))


class PersistentProcessExecutor:
    """Resident shard workers: state stays put, only batches cross over.

    One worker process per shard, all reading one shared-memory
    :class:`~repro.sharding.shm.PlanRing`.  ``seed(shards)`` ships each
    shard's initial state once; ``submit(fn, tasks, columns)`` sends
    one ``fn(shard, *columns, *task)`` application per worker **without
    waiting** (applies on one worker are strictly ordered by its pipe);
    ``collect()`` is the synchronization point that returns the current
    shard states (and raises if any worker failed since the last seed).
    ``close()`` terminates the workers; the sketch re-seeds lazily
    afterwards.

    A collect that runs into its deadline, a pipe that fails because
    its worker died (``OSError``/``EOFError`` in ``submit``,
    ``broadcast`` or ``collect``), and a worker found dead by
    :meth:`check_alive` (which the ring's backpressure wait calls) tear
    the workers down before raising a ``RuntimeError`` that names the
    worker: unread replies would otherwise answer the *next* collect
    with the previous round's state.  Until the next ``seed()`` every
    ``submit``/``broadcast``/``collect`` then raises a ``RuntimeError``
    naming that cause.
    """

    def __init__(
        self,
        mp_context: Optional[str] = None,
        *,
        ring_slots: int = 8,
        ring_slot_bytes: int = 1 << 20,
    ) -> None:
        if ring_slots <= 0:
            raise ValueError(f"ring_slots must be positive, got {ring_slots}")
        if ring_slot_bytes <= 0:
            raise ValueError(
                f"ring_slot_bytes must be positive, got {ring_slot_bytes}"
            )
        self._ctx = mp.get_context(mp_context)
        self.ring_slots = int(ring_slots)
        self.ring_slot_bytes = int(ring_slot_bytes)
        self._workers: List = []
        self._conns: List = []
        self._ring: Optional[PlanRing] = None
        #: why the workers were torn down under a caller that still
        #: expects them (a collect deadline); cleared by ``seed``
        self._broken: Optional[str] = None

    @property
    def seeded(self) -> bool:
        """Whether resident workers currently hold shard state."""
        return bool(self._workers)

    def seed(self, shards: Sequence) -> None:
        """Spawn one resident worker per shard and ship initial state.

        The shared-memory ring and every worker register before their
        state ships, so a mid-loop failure (an unpicklable shard, a dead
        pipe) tears every spawned worker and the segment down via
        :meth:`close` instead of leaking processes blocked on ``recv``
        or unlinked segments.
        """
        self.close()
        self._broken = None
        shards = list(shards)
        # under fork, each worker inherits the parent end of its own
        # pipe and of every earlier sibling's; hand those fd numbers to
        # the child so it can close them and restore EOF/EPIPE semantics
        # (meaningless under spawn, where fds are not inherited)
        fork = self._ctx.get_start_method() == "fork"
        try:
            ring = self._ring = PlanRing(
                self.ring_slots, self.ring_slot_bytes, readers=len(shards)
            )
            for index, shard in enumerate(shards):
                parent_conn, child_conn = self._ctx.Pipe()
                stale_fds = (
                    tuple(c.fileno() for c in self._conns)
                    + (parent_conn.fileno(),)
                    if fork
                    else ()
                )
                worker = self._ctx.Process(
                    target=_persistent_worker,
                    args=(
                        child_conn,
                        (ring.name, ring.slots, ring.slot_bytes, len(shards), index),
                        stale_fds,
                    ),
                    daemon=True,
                )
                # under fork, starting a worker while another thread (a
                # second engine's caller, say) sits in a resource-
                # tracker critical section would hand the child that
                # lock in a locked state — it then deadlocks on its
                # attach-time tracker registration before ever reading
                # its pipe.  TRACKER_FORK_LOCK serializes the fork
                # against every tracker touchpoint in this package.
                with TRACKER_FORK_LOCK:
                    worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._conns.append(parent_conn)
                parent_conn.send(("seed", shard))
        except BaseException:
            self.close()
            raise

    def _live_conns(self) -> List:
        """The worker pipes, or a ``RuntimeError`` when none may be used."""
        if self._broken is not None:
            raise RuntimeError(
                f"persistent executor was torn down: {self._broken}; "
                f"seed() it again before submitting or collecting"
            )
        if not self._conns:
            raise RuntimeError(
                "persistent executor has no resident workers; seed() it "
                "before submitting or collecting"
            )
        return self._conns

    def _tear_down(
        self, reason: str, cause: Optional[BaseException] = None
    ) -> NoReturn:
        """Close the workers, refuse work until re-seeded, and raise."""
        self.close()
        self._broken = reason
        raise RuntimeError(reason) from cause

    def _worker_died(
        self, index: int, cause: Optional[BaseException] = None
    ) -> NoReturn:
        """Tear down after worker ``index`` exited or its pipe failed."""
        worker = self._workers[index]
        worker.join(timeout=1.0)  # its end of the pipe is gone: it is exiting
        how = "" if cause is None else f"; its pipe raised {type(cause).__name__}"
        self._tear_down(
            f"persistent shard worker {index} died (exitcode "
            f"{worker.exitcode}){how}",
            cause,
        )

    def check_alive(self) -> None:
        """Raise the named error if a resident worker has exited."""
        for index, worker in enumerate(self._workers):
            if not worker.is_alive():
                self._worker_died(index)

    def submit(
        self,
        fn: Callable,
        tasks: Sequence[Tuple],
        columns: Sequence = (),
    ) -> None:
        """Send one ``fn(shard, *columns, *task)`` application per worker
        (no wait).

        ``columns`` are shared by every worker.  When they hold at least
        :data:`RING_MIN_ITEMS` items and fit a slot they are copied once
        into the ring and every pipe carries only the slot descriptor;
        otherwise they are pickled into every pipe with the task, so
        submit never fails on payload size.  The only wait is ring
        backpressure: with every slot still in flight, the write blocks
        until all workers retire one, and names a worker that died
        meanwhile.
        """
        conns = self._live_conns()
        if len(tasks) != len(conns):
            raise RuntimeError(
                f"{len(tasks)} tasks for {len(conns)} resident workers"
            )
        head: Tuple = ("apply", fn, *columns)
        if columns and len(columns[0]) >= RING_MIN_ITEMS:
            assert self._ring is not None
            written = self._ring.write(columns, poll=self.check_alive)
            if written is not None:
                head = ("apply_cols", fn, *written)
        for index, conn in enumerate(conns):
            try:
                conn.send(head + tuple(tasks[index]))
            except (OSError, EOFError) as exc:
                self._worker_died(index, exc)

    def broadcast(self, fn: Callable, *args) -> None:
        """Send the same ``fn(shard, *args)`` application to every worker."""
        for index, conn in enumerate(self._live_conns()):
            try:
                conn.send(("apply", fn, *args))
            except (OSError, EOFError) as exc:
                self._worker_died(index, exc)

    def collect(
        self, timeout: Optional[float] = DEFAULT_COLLECT_TIMEOUT
    ) -> List:
        """Fetch current shard states (the sync point; raises on failure).

        Each worker gets up to ``timeout`` seconds to start replying
        (``None`` waits forever).  The deadline is far above any healthy
        reply latency — it exists so a wedged or silently-dead worker
        surfaces as a ``RuntimeError`` naming the worker and its state
        instead of deadlocking the parent (and CI) indefinitely.  On a
        deadline the workers and the ring are closed before the error is
        raised, and the executor refuses further work until re-seeded.
        """
        conns = self._live_conns()
        for index, conn in enumerate(conns):
            try:
                conn.send(("collect",))
            except (OSError, EOFError) as exc:
                self._worker_died(index, exc)
        states: List = []
        failures: List[str] = []
        for index, conn in enumerate(conns):
            try:
                if timeout is not None and not conn.poll(timeout):
                    worker = self._workers[index]
                    status = (
                        "alive"
                        if worker.is_alive()
                        else f"dead (exitcode {worker.exitcode})"
                    )
                    self._tear_down(
                        f"persistent shard worker {index} sent no reply "
                        f"for {timeout}s (worker {status}) — wedged or "
                        f"deadlocked"
                    )
                kind, payload = conn.recv()
            except (OSError, EOFError) as exc:
                self._worker_died(index, exc)
            if kind == "error":
                failures.append(payload)
                states.append(None)
            else:
                states.append(payload)
        if failures:
            raise RuntimeError(
                "persistent shard worker(s) failed:\n" + "\n".join(failures)
            )
        return states

    def close(self) -> None:
        """Stop all resident workers (idempotent); state in them is lost.

        The shared-memory ring is closed (and unlinked) only after the
        workers joined, so no worker is left applying against an
        unlinked mapping; when a worker had to be terminated the segment
        is still unlinked here — the parent owns the ring.
        """
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=5)
        if self._ring is not None:
            self._ring.close()
        self._workers = []
        self._conns = []
        self._ring = None

    def __del__(self):  # pragma: no cover - interpreter-teardown best effort
        try:
            self.close()
        except Exception:
            pass
