"""Process lifecycle for the benchmark: start, tear down, prove nothing leaked.

Every process a run starts is stopped before the run exits, on every
exit path: normal end, a failed check, an exception, SIGINT/SIGTERM and
the per-workload timeout.  Teardown escalates terminate -> kill under a
deadline and always reaps (``wait``), so no zombie or orphan survives.

At exit :func:`leak_report` lists what would outlive the run:

* ``multiprocessing.active_children()`` (resident shard workers);
* any process in a session the run created (the ``repro-serve`` daemon
  runs in its own session, so a grandchild it forked is found too);
* any direct child of this process still alive (``/proc`` scan);
* ``repro.sharding.shm.leaked_segments(pid)`` for every pid the run
  started plus its own pid.

A non-empty report makes the run fail.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

__all__ = [
    "Interrupted",
    "ProcessLedger",
    "children_of",
    "close_all",
    "install_signal_handlers",
    "kill_leftovers",
    "leak_report",
    "session_members",
    "stop_popen",
]


class Interrupted(BaseException):
    """Raised in the main thread on SIGINT/SIGTERM or the workload timeout.

    A ``BaseException`` so that ``except Exception`` blocks in the
    workload code cannot swallow it; ``finally`` blocks still run.
    """


def close_all(objects: Sequence) -> None:
    """``close()`` every object even if some raise; re-raise the first."""
    first: Optional[BaseException] = None
    for obj in objects:
        try:
            obj.close()
        except BaseException as exc:  # re-raised below, after the rest
            first = first or exc
    if first is not None:
        raise first


def install_signal_handlers(timeout_s: Optional[float]) -> None:
    """Turn SIGINT/SIGTERM (and SIGALRM after ``timeout_s``) into
    :class:`Interrupted` in the main thread."""

    def handler(signum, frame):  # noqa: ARG001 - signal signature
        raise Interrupted(signal.Signals(signum).name)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, handler)
    if timeout_s is not None:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)


def disarm_timeout() -> None:
    """Cancel the workload timeout (teardown runs without it)."""
    signal.setitimer(signal.ITIMER_REAL, 0)


def _proc_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name is parenthesised and may contain spaces
    return raw[raw.rindex(")") + 2 :].split()


def _live_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _alive(fields: Optional[List[str]]) -> bool:
    # state Z (zombie) / X (dead) no longer runs anything
    return fields is not None and fields[0] not in ("Z", "X")


def children_of(pid: int) -> List[int]:
    """Live direct children of ``pid``."""
    out = []
    for other in _live_pids():
        fields = _proc_stat(other)
        if _alive(fields) and int(fields[1]) == pid:
            out.append(other)
    return out


def session_members(sid: int) -> List[int]:
    """Live processes whose session id is ``sid``."""
    out = []
    for other in _live_pids():
        fields = _proc_stat(other)
        if _alive(fields) and int(fields[3]) == sid:
            out.append(other)
    return out


def stop_popen(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Stop a child started with ``start_new_session=True`` and reap it.

    SIGTERM goes to the child's whole session (process group), then
    SIGKILL after ``grace_s``; the child is always waited for.
    """
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    # anything left in the session (the child itself or a straggler it
    # forked) is killed outright
    for pid in session_members(proc.pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:  # pragma: no cover - kill failed
        pass


def stop_mp_children(grace_s: float = 5.0) -> None:
    """Terminate -> kill -> join any multiprocessing child still alive."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    deadline = time.monotonic() + grace_s
    for child in children:
        child.join(max(0.0, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.kill()
        child.join(grace_s)


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker this process started.

    Creating a shared-memory segment starts the tracker as a child of
    this process; it would otherwise only exit after this process does.
    Call it once every segment has been unlinked.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:  # already reaped by kill_leftovers
            tracker._pid = None


class ProcessLedger:
    """Records every process and session a run starts."""

    def __init__(self) -> None:
        self.pids: Set[int] = set()
        self.sessions: Set[int] = set()
        self.popens: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        """Start ``argv`` in a new session and record it."""
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self.popens.append(proc)
        self.pids.add(proc.pid)
        self.sessions.add(proc.pid)
        return proc

    def note_mp_children(self) -> None:
        """Record the pids of the live multiprocessing children."""
        self.pids.update(child.pid for child in multiprocessing.active_children())

    def stop_all(self) -> None:
        """Tear down every recorded daemon, then the resource tracker."""
        for proc in self.popens:
            stop_popen(proc)
        stop_resource_tracker()


def leak_report(ledger: ProcessLedger) -> Dict[str, List]:
    """What outlives the run; empty lists everywhere means clean."""
    from repro.sharding.shm import leaked_segments

    segments: List[str] = []
    for pid in sorted(ledger.pids | {os.getpid()}):
        segments.extend(leaked_segments(pid))
    return {
        "mp_children": [c.pid for c in multiprocessing.active_children()],
        "session_members": sorted(
            pid for sid in ledger.sessions for pid in session_members(sid)
        ),
        "children": children_of(os.getpid()),
        "shm_segments": segments,
    }


def kill_leftovers(report: Dict[str, List]) -> None:
    """Remove whatever :func:`leak_report` found, so nothing outlives
    the run even when it fails for a leak."""
    stop_mp_children()
    for pid in set(report["session_members"]) | set(report["children"]):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in report["children"]:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    for name in report["shm_segments"]:
        try:
            (Path("/dev/shm") / name).unlink()
        except OSError:
            pass
