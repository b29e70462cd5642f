"""Executors for per-shard ingestion work.

:class:`repro.sharding.sharded.ShardedSketch` hands each shard's batch
plan to an executor; the executor decides where the work runs.  Two
strategies ship, the two that win somewhere on the measured trail:

* :class:`SerialExecutor` — run shard plans one after another in the
  calling thread.  Zero overhead, the default, and the baseline the
  sharded-ingest bench gates against.
* :class:`PersistentProcessExecutor` — one long-lived worker process per
  shard holding the shard sketch **resident**: the initial state is
  shipped once (``seed``), each batch sends only its per-shard plan
  (positions + owned items), and state returns to the parent only on
  demand (``collect``, which :class:`ShardedSketch` triggers lazily at
  the first query after ingestion).  Marked ``stateful = True`` so the
  sharding layer switches to the seed/submit/collect protocol instead
  of ``map``.

  Each plan takes one of two lanes, picked per task from its size.  A
  task that splits into ring columns, holds at least
  :data:`RING_MIN_ITEMS` items and fits a slot is written into the
  worker's :class:`~repro.sharding.shm.PlanRing` shared-memory ring and
  the pipe carries only a slot descriptor; every other task is pickled
  into the pipe whole.  Both lanes deliver equal task arguments, pinned
  against serial ingestion by ``tests/sharding/test_shm_transport.py``
  and against each shard's scalar replay by
  ``tests/sharding/test_scalar_replay.py``.

``SerialExecutor`` implements ``map(fn, tasks)`` — apply ``fn(*task)``
for each task, returning results in task order — and ``close()``.  Any
object with that surface can be passed wherever an executor name is
accepted; objects additionally exposing the stateful protocol
(``stateful``/``seed``/``submit``/``broadcast``/``collect``) get the
resident-worker treatment.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .shm import PlanRing, TRACKER_FORK_LOCK, rebuild_task, split_task

__all__ = [
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
    "RING_MIN_ITEMS",
]

#: Smallest task (in items: the longest array or list among its
#: arguments) that goes through the shared-memory ring; smaller tasks
#: are pickled into the pipe.  Set at the measured break-even of the two
#: lanes: one resident worker, 2000 submits of ``(positions, items)``
#: int64 columns, lane forced, per-task wall time, medians of 5 runs on
#: a 2-vCPU x86-64 VM under Python 3.11.  Pickle vs ring: 39.0 vs
#: 45.7 µs at 8 items, 55.3 vs 58.9 at 256, 49.7 vs 52.7 at 384, 56.3 vs
#: 55.9 at 512, 73.0 vs 69.9 at 1024, 166.9 vs 124.6 at 4096.  The
#: ring's fixed cost (slot bookkeeping, column layouts, rebuilding the
#: views) only pays off once the copy it saves is a few KiB.
RING_MIN_ITEMS = 512

#: How long :meth:`PersistentProcessExecutor.collect` waits for a worker
#: reply before raising.  A healthy worker answers in milliseconds even
#: with a large resident state; the deadline exists so a wedged or dead
#: worker turns into a loud, diagnosable failure instead of an infinite
#: parent hang.
DEFAULT_COLLECT_TIMEOUT = 120.0


class SerialExecutor:
    """Run shard plans sequentially in the calling thread (the default)."""

    def map(self, fn: Callable, tasks: Sequence[Tuple]) -> List:
        """Apply ``fn(*task)`` per task, in order."""
        return [fn(*task) for task in tasks]

    def close(self) -> None:
        """Nothing to release."""


def _persistent_worker(
    conn,
    ring_args: Tuple[str, int, int],
    stale_fds: Tuple[int, ...] = (),
) -> None:
    """Loop of one resident shard worker (module-level: must pickle).

    The worker owns its shard sketch for the lifetime of the process.
    Messages: ``("seed", shard)`` installs state; ``("apply", fn, *args)``
    runs ``fn(shard, *args)`` in place; ``("apply_cols", fn, slot,
    layouts, recipe)`` rebuilds the args as zero-copy views over the
    shared-memory ring named by ``ring_args`` and applies them, retiring
    the slot afterwards **whether or not the apply succeeded** (a
    poisoned worker that stopped retiring would deadlock the parent's
    backpressure wait); ``("collect",)`` ships the current state (or the
    first recorded failure) back; ``("stop",)`` exits.  A failed apply
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
    path; either way the shared resource tracker unlinks any shm rings
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
                        fn, slot, layouts, recipe = msg[1:5]
                        args = rebuild_task(ring.read(slot, layouts), recipe)
                        try:
                            fn(shard, *args)
                        finally:
                            # drop the zero-copy views before the slot
                            # is handed back for reuse
                            del args
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
    """Resident shard workers: state stays put, only plans cross over.

    One worker process per shard, each with its own shared-memory plan
    ring.  ``seed(shards)`` ships each shard's initial state once;
    ``submit(fn, tasks)`` sends one ``fn(shard, *task)`` application per
    worker **without waiting** (the parent can partition the next batch
    while workers apply — applies on one worker are strictly ordered by
    the pipe); ``collect()`` is the synchronization point that returns
    the current shard states (and raises if any worker failed since the
    last seed).  ``close()`` terminates the workers; the sketch re-seeds
    lazily afterwards.

    A collect that runs into its deadline, and a pipe that fails
    because its worker died (``OSError``/``EOFError`` in ``submit``,
    ``broadcast`` or ``collect``), tear the workers down before raising
    a ``RuntimeError`` that names the worker: unread replies would
    otherwise answer the *next* collect with the previous round's state.
    Until the next ``seed()`` every ``submit``/``broadcast``/``collect``
    then raises a ``RuntimeError`` naming that cause.
    """

    stateful = True

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
        self._rings: List[PlanRing] = []
        #: why the workers were torn down under a caller that still
        #: expects them (a collect deadline); cleared by ``seed``
        self._broken: Optional[str] = None

    @property
    def seeded(self) -> bool:
        """Whether resident workers currently hold shard state."""
        return bool(self._workers)

    def seed(self, shards: Sequence) -> None:
        """Spawn one resident worker per shard and ship initial state.

        Workers and their shared-memory rings register before their
        state ships, so a mid-loop failure (an unpicklable shard, a dead
        pipe) tears every spawned worker and segment down via
        :meth:`close` instead of leaking processes blocked on ``recv``
        or unlinked segments.
        """
        self.close()
        self._broken = None
        # under fork, each worker inherits the parent end of its own
        # pipe and of every earlier sibling's; hand those fd numbers to
        # the child so it can close them and restore EOF/EPIPE semantics
        # (meaningless under spawn, where fds are not inherited)
        fork = self._ctx.get_start_method() == "fork"
        try:
            for shard in shards:
                ring = PlanRing(self.ring_slots, self.ring_slot_bytes)
                self._rings.append(ring)
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
                        (ring.name, ring.slots, ring.slot_bytes),
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

    def _worker_died(self, index: int, cause: BaseException) -> NoReturn:
        """Tear down after worker ``index``'s pipe failed under us."""
        worker = self._workers[index]
        worker.join(timeout=1.0)  # its end of the pipe is gone: it is exiting
        self._tear_down(
            f"persistent shard worker {index} died (exitcode "
            f"{worker.exitcode}); its pipe raised {type(cause).__name__}",
            cause,
        )

    def submit(self, fn: Callable, tasks: Sequence[Tuple]) -> None:
        """Send one ``fn(shard, *task)`` application per worker (no wait).

        A task goes through the worker's ring when it splits into
        columns, holds at least :data:`RING_MIN_ITEMS` items and fits a
        slot; the pipe then carries only the slot descriptor.  Every
        other task is pickled into the pipe whole, so submit never fails
        on payload shape.  The only wait is ring backpressure: with
        every slot still in flight, the write blocks until the worker
        retires one.
        """
        conns = self._live_conns()
        if len(tasks) != len(conns):
            raise RuntimeError(
                f"{len(tasks)} tasks for {len(conns)} resident workers"
            )
        for index, (conn, ring) in enumerate(zip(conns, self._rings)):
            try:
                conn.send(_task_message(ring, fn, tasks[index]))
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
        deadline the workers and rings are closed before the error is
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

        Shared-memory rings are closed (and unlinked) only after the
        workers joined, so no worker is left applying against an
        unlinked mapping; a worker that had to be terminated still gets
        its segment unlinked here — the parent owns every ring.
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
        for ring in self._rings:
            ring.close()
        self._workers = []
        self._conns = []
        self._rings = []

    def __del__(self):  # pragma: no cover - interpreter-teardown best effort
        try:
            self.close()
        except Exception:
            pass


def _task_message(ring: PlanRing, fn: Callable, task: Tuple) -> Tuple:
    """The pipe message for one task: a ring slot descriptor when the
    task splits into columns, holds at least :data:`RING_MIN_ITEMS`
    items and fits a slot, else the task pickled whole."""
    items = max(
        (len(arg) for arg in task if isinstance(arg, (np.ndarray, list))),
        default=0,
    )
    if items >= RING_MIN_ITEMS:
        split = split_task(task)
        if split is not None:
            columns, recipe = split
            written = ring.write(columns)
            if written is not None:
                slot, layouts = written
                return ("apply_cols", fn, slot, layouts, recipe)
    return ("apply", fn, *task)


_EXECUTORS = {
    "serial": SerialExecutor,
    "persistent": PersistentProcessExecutor,
}


def make_executor(spec: object = "serial"):
    """Resolve an executor: a name (``serial``/``persistent``) or any
    ready object exposing one of the protocols.

    The stateful (resident-worker) protocol is checked **first**: an
    executor declaring ``stateful`` with the full
    ``seed``/``submit``/``broadcast``/``collect``/``close`` surface gets
    the resident treatment even when it also exposes a stateless
    ``map()`` — matching how :class:`ShardedSketch` routes ingestion off
    the ``stateful`` flag.
    """
    if isinstance(spec, str):
        try:
            cls = _EXECUTORS[spec]
        except KeyError:
            raise ValueError(
                f"unknown executor {spec!r}; expected one of "
                f"{sorted(_EXECUTORS)}"
            ) from None
        return cls()
    if getattr(spec, "stateful", False):
        # a declared stateful executor must carry the complete
        # resident-worker protocol: ShardedSketch routes ingestion off
        # the flag, so letting one through on the map()/close() fallback
        # would defer the failure to a mid-ingestion AttributeError
        missing = [
            name
            for name in ("seed", "submit", "broadcast", "collect", "close")
            if getattr(spec, name, None) is None
        ]
        if missing:
            raise TypeError(
                f"executor declares stateful=True but is missing "
                f"{'/'.join(missing)} of the resident-worker protocol: "
                f"{spec!r}"
            )
        return spec
    if (
        getattr(spec, "map", None) is not None
        and getattr(spec, "close", None) is not None
    ):
        return spec
    raise TypeError(
        f"executor must be a name, expose map()/close(), or expose the "
        f"stateful seed/submit/broadcast/collect/close protocol, got {spec!r}"
    )
