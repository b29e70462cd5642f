"""Sharded sliding-window ingestion: hash partitioning + merge-on-query.

Public surface:

* :class:`ShardedSketch` — hash-partitioned ensemble of any
  :class:`repro.core.api.SlidingSketch`, with global-window alignment
  for the Memento family and merge-on-query combining.  Its
  ``executor`` is ``"serial"`` (shards applied in the calling thread),
  ``"persistent"``, or a :class:`PersistentProcessExecutor` instance
  (resident shard workers; state never round-trips per batch).
* :func:`shard_index` — the deterministic routing hash.
* Broadcast-and-filter ingestion — an integer batch is hashed once into
  an owner column and every shard selects its own keys from it; every
  write first appends to a :class:`~repro.sharding.sharded.WriteBuffer`
  that is applied on the caller's thread every ``COALESCE_ITEMS`` items
  and at every query.
"""

from .executors import PersistentProcessExecutor
from .sharded import ShardedSketch, shard_index

__all__ = [
    "ShardedSketch",
    "shard_index",
    "PersistentProcessExecutor",
]
