"""The leak check catches what a run leaves behind."""

from __future__ import annotations

import multiprocessing
import sys
import time

from perfbench import reap


def _sleep():
    time.sleep(60)


def test_leak_check_catches_an_orphaned_mp_child():
    ledger = reap.ProcessLedger()
    child = multiprocessing.get_context("spawn").Process(target=_sleep, daemon=True)
    child.start()
    try:
        report = reap.leak_report(ledger)
        assert child.pid in report["mp_children"]
        assert child.pid in report["children"]
    finally:
        reap.kill_leftovers(reap.leak_report(ledger))
    assert not any(reap.leak_report(ledger).values())


def test_leak_check_catches_a_session_left_running_and_teardown_clears_it():
    ledger = reap.ProcessLedger()
    proc = ledger.spawn([sys.executable, "-c", "import time; time.sleep(60)"])
    report = reap.leak_report(ledger)
    assert proc.pid in report["session_members"]
    ledger.stop_all()
    assert proc.poll() is not None
    assert not any(reap.leak_report(ledger).values())
