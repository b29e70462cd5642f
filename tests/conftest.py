"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import multiprocessing as mp
import time

import numpy as np
import pytest

from repro import BACKBONE, DATACENTER, SRC_DST_HIERARCHY, SRC_HIERARCHY, generate_trace


@pytest.fixture(scope="session", autouse=True)
def assert_no_leaked_processes():
    """Suite-wide guard: no child process may outlive the test session.

    Every executor/simulation owns a ``close()`` (ShardedSketch,
    NetwideSystem, the pool executors); a worker still alive here means
    some path dropped its teardown.  A short grace period lets pools
    that were shut down on the last test finish exiting, and a
    ``gc.collect()`` runs the best-effort ``__del__`` closers first so
    the guard only trips on genuinely unreachable leaks.
    """
    yield
    gc.collect()
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = mp.active_children()
    assert not leaked, (
        f"child processes leaked past the test session: {leaked} — "
        f"a ShardedSketch/NetwideSystem/executor was not closed"
    )
    # mirror guard for the shm plan lane: every PlanRing this process
    # created must have been closed (and its segment unlinked) by now
    from repro.sharding.shm import leaked_segments

    segments = leaked_segments()
    assert not segments, (
        f"shared-memory segments leaked past the test session: {segments} "
        f"— a PlanRing or PersistentProcessExecutor was not closed"
    )


@pytest.fixture
def rng():
    """A seeded numpy Generator for deterministic randomized tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def small_backbone():
    """A small backbone-profile trace shared across tests (read-only)."""
    return generate_trace(BACKBONE, 20_000, seed=7)


@pytest.fixture(scope="session")
def small_datacenter():
    """A small datacenter-profile trace shared across tests (read-only)."""
    return generate_trace(DATACENTER, 20_000, seed=7)


@pytest.fixture
def h1():
    """The 1-D source hierarchy."""
    return SRC_HIERARCHY


@pytest.fixture
def h2():
    """The 2-D source/destination hierarchy."""
    return SRC_DST_HIERARCHY
