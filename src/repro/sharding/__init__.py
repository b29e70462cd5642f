"""Sharded sliding-window ingestion: hash partitioning + merge-on-query.

Public surface:

* :class:`ShardedSketch` — hash-partitioned ensemble of any
  :class:`repro.core.api.SlidingSketch`, with global-window alignment
  for the Memento family and merge-on-query combining.
* :func:`shard_index` — the deterministic routing hash.
* Executors — :class:`SerialExecutor` (in-process) and
  :class:`PersistentProcessExecutor` (resident shard workers; state
  never round-trips per batch), and :func:`make_executor`.
* Coalesced ingestion — every write appends to a
  :class:`~repro.sharding.sharded.WriteBuffer` that is applied on the
  caller's thread every ``COALESCE_ITEMS`` items and at every query.
"""

from .executors import (
    PersistentProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .sharded import ShardedSketch, shard_index

__all__ = [
    "ShardedSketch",
    "shard_index",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
]
