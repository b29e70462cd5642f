"""Shared plumbing for the batch ingestion engine.

Small helpers used by every sketch's batch entry points, so the chunking
and per-pattern regrouping logic exists exactly once:

* :func:`iter_chunks` — incremental chunking behind every ``extend``;
* :func:`as_batch` — the list/tuple coercion every ``update_many``
  fast path performs before hoisting its loop onto locals;
* :class:`BatchIngest` — the mixin that gives a sketch the shared
  ``extend`` (plus a scalar-loop ``update_many`` fallback and the
  generic :meth:`BatchIngest.ingest_plan` consumer of the columnar
  kernel's plans), so the chunking bookkeeping lives here exactly once
  instead of being re-implemented per class;
* :func:`regroup_by_pattern` — the per-pattern regrouping used by the
  lattice sketches (MST, WindowBaseline, ExactWindowHHH).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

__all__ = ["iter_chunks", "as_batch", "BatchIngest", "regroup_by_pattern"]


def iter_chunks(iterable: Iterable, chunk_size: int) -> Iterator[list]:
    """Yield ``chunk_size``-item lists from any iterable (last may be short).

    Backs every sketch's ``extend``: consumes the source incrementally so
    generator streams never materialize in full.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    it = iter(iterable)
    while chunk := list(islice(it, chunk_size)):
        yield chunk


def as_batch(items: Iterable) -> Union[list, tuple]:
    """Coerce ``items`` to an indexable batch (list/tuple pass through).

    Every ``update_many`` fast path starts with this so generators and
    other one-shot iterables are materialized exactly once before the
    hoisted loop runs over locals.  A numpy column converts with one
    ``tolist()``, so its keys arrive as Python scalars, never numpy
    ones: sketch state (and its pickled bytes) equals the list-fed one.
    """
    if isinstance(items, (list, tuple)):
        return items
    if isinstance(items, np.ndarray):
        return items.tolist()
    return list(items)


class BatchIngest:
    """Mixin providing the shared chunked-ingestion surface.

    Subclasses implement ``update`` (scalar) and usually override
    ``update_many`` with a hoisted fast path; the mixin contributes:

    * ``update_many`` — a scalar-loop fallback, so a sketch conforms to
      :class:`repro.core.api.SlidingSketch` the moment it has ``update``;
    * ``extend`` — chunked feeding of arbitrary iterables through
      ``update_many``, the bookkeeping previously re-implemented in
      every sketch class;
    * ``top_k`` — the generic ranked-report half of
      :class:`repro.core.api.QueryableSketch`, backed by ``entries()``
      and the sketch's own ``query`` units.

    ``__slots__`` is empty so slotted sketches keep their layout.
    """

    __slots__ = ()

    def update_many(self, items: Sequence) -> None:
        """Process a batch via the scalar path (override for speed)."""
        update = self.update
        for item in as_batch(items):
            update(item)

    def top_k(self, k: int) -> List[tuple]:
        """The ``k`` largest tracked keys as ``(key, estimate)`` pairs.

        Ranking uses the mergeable snapshot's native-unit estimates
        (scaling by a constant ``1/tau`` never reorders), while the
        returned estimates come from ``query`` so they are in the same
        units every other query-surface method reports.  Hierarchical
        sketches rank across *all* patterns — a packet key and its
        prefixes compete in one list.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        ranked = sorted(
            self.entries(), key=lambda row: row[1], reverse=True
        )[:k]
        query = self.query
        return [(key, query(key)) for key, _, _ in ranked]

    def extend(self, iterable: Iterable, chunk_size: int = 4096) -> None:
        """Feed an arbitrary iterable through ``update_many`` in chunks."""
        for chunk in iter_chunks(iterable, chunk_size):
            self.update_many(chunk)

    def ingest_plan(self, plan, *, sampled: bool = False) -> None:
        """Consume a :class:`repro.core.kernel.IngestPlan`.

        The plan covers ``plan.n`` stream packets of which only the
        selected ones belong to this sketch.  With ``sampled=False`` the
        selected items go through the sketch's own ``update`` semantics
        (the sharding layer's owned-packet feed); with ``sampled=True``
        they are treated as already-sampled and routed through
        ``ingest_samples`` when the sketch has one (the
        controller/decision-column feed).  Windowed
        sketches advance over unselected stretches via ``ingest_gap``;
        interval sketches simply never see them.

        Subclasses with a faster representation override this (the
        Memento family draws its coins as one column and fuses the gap
        walk with the full updates; Space Saving applies count-weighted
        runs).
        """
        apply = None
        if sampled:
            apply = getattr(self, "ingest_samples", None)
        if apply is None:
            apply = self.update_many
        gap_fn = getattr(self, "ingest_gap", None)
        if gap_fn is None or plan.dense:
            if plan.items:
                apply(plan.items)
            return
        for gap, segment in plan.segments():
            if gap:
                gap_fn(gap)
            if segment:
                apply(segment)
        tail = plan.tail_gap
        if tail:
            gap_fn(tail)


def regroup_by_pattern(hierarchy, packets, num_patterns: int) -> List[list]:
    """Split a packet batch into one in-order prefix list per pattern.

    The per-pattern heavy-hitter instances (MST, WindowBaseline,
    ExactWindowHHH) are independent, so work may be reordered *across*
    patterns as long as order *within* each pattern is preserved — which
    this does, enabling one batched update per instance.
    """
    per_pattern: List[list] = [[] for _ in range(num_patterns)]
    all_prefixes = hierarchy.all_prefixes
    for packet in packets:
        for idx, prefix in enumerate(all_prefixes(packet)):
            per_pattern[idx].append(prefix)
    return per_pattern
