"""Sharded sliding-window ingestion: hash partitioning + merge-on-query.

Public surface:

* :class:`ShardedSketch` — hash-partitioned ensemble of any
  :class:`repro.core.api.SlidingSketch`, with global-window alignment
  for the Memento family and merge-on-query combining.
* :func:`shard_index` — the deterministic routing hash.
* Executors — :class:`SerialExecutor` (in-process) and
  :class:`PersistentProcessExecutor` (resident shard workers; state
  never round-trips per batch), and :func:`make_executor`.
* Pipelined front-end — :class:`PipelineConfig` /
  ``ShardedSketch(pipeline=...)``: coalesced write buffering plus a
  background partitioner thread overlapping worker applies.
"""

from .executors import (
    PersistentProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .pipeline import PipelineConfig, make_pipeline_config
from .sharded import ShardedSketch, shard_index

__all__ = [
    "ShardedSketch",
    "shard_index",
    "SerialExecutor",
    "PersistentProcessExecutor",
    "make_executor",
    "PipelineConfig",
    "make_pipeline_config",
]
