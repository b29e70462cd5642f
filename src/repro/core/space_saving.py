"""Space Saving (Metwally, Agrawal, El Abbadi — ICDT 2005).

Space Saving is the counter-based heavy-hitter algorithm the whole paper is
built on: Memento uses one instance to count within the current frame
(Algorithm 1's ``y``), MST runs one instance per prefix pattern, and RHHH
randomly updates one of its instances per packet.

The implementation here is the classic *stream-summary* structure: a doubly
linked list of value buckets, each holding the set of flows that currently
share a count.  Unit increment and query are O(1), as the paper's speed
assumptions (Section 2) need.  Eviction of the minimum is not: the victim
is the head bucket's oldest key, ``next(iter(head.keys))``, and a dict
keeps the slots of keys deleted from its front until it next resizes, so
each eviction first scans the slots earlier evictions left.  Once every
counter is in use the head bucket only drains (the replacing key moves
up a bucket), so draining a bucket of ``b`` keys costs O(b²) in all:
~0.3 µs per eviction at 100 keys, ~0.6–0.9 µs at 1,000 and ~4–5.5 µs at
10,000 (CPython 3.11, 2-vCPU guest).

Guarantees (with ``m = counters`` and ``n`` processed items):

* every estimate overestimates: ``query(x) >= f(x)``;
* the overestimation is bounded: ``query(x) <= f(x) + n/m``;
* ``lower_bound(x) <= f(x)`` (via per-counter error tracking);
* any flow with ``f(x) > n/m`` is monitored.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from .batching import BatchIngest, as_batch
from .kernel import collapse_run_arrays

__all__ = ["SpaceSaving"]


class _Bucket:
    """A value bucket: all monitored flows whose counter equals ``value``."""

    __slots__ = ("value", "keys", "prev", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.keys: Dict[Hashable, int] = {}  # key -> error when acquired
        self.prev: Optional["_Bucket"] = None
        self.next: Optional["_Bucket"] = None


class SpaceSaving(BatchIngest):
    """Space Saving with O(1) unit increments and error tracking.

    Parameters
    ----------
    counters:
        The number of monitored flows ``m``.  The additive error after ``n``
        updates is at most ``n / m``.

    Examples
    --------
    >>> ss = SpaceSaving(counters=2)
    >>> for x in ["a", "a", "b", "c"]:
    ...     ss.add(x)
    >>> ss.query("a")
    2
    >>> ss.query("c")  # evicted "b" (value 1), so estimate is 2
    2
    >>> ss.lower_bound("c")  # but the guaranteed part is only 1
    1
    """

    __slots__ = ("counters", "_index", "_head", "_size", "_items")

    def __init__(self, counters: int) -> None:
        if counters <= 0:
            raise ValueError(f"counters must be positive, got {counters}")
        self.counters = int(counters)
        # key -> bucket currently holding it
        self._index: Dict[Hashable, _Bucket] = {}
        # bucket list head = minimum value bucket
        self._head: Optional[_Bucket] = None
        self._size = 0  # monitored flows
        self._items = 0  # total updates since last flush

    # ------------------------------------------------------------------
    # internal bucket-list plumbing
    # ------------------------------------------------------------------
    def _detach_key(self, key: Hashable, bucket: _Bucket) -> int:
        """Remove ``key`` from ``bucket``; unlink the bucket if emptied.

        The bucket's own ``prev``/``next`` pointers are preserved so callers
        can still use it as a positional anchor.  Returns the error value
        stored with the key.
        """
        err = bucket.keys.pop(key)
        if not bucket.keys:
            prev_b, next_b = bucket.prev, bucket.next
            if prev_b is not None:
                prev_b.next = next_b
            else:
                self._head = next_b
            if next_b is not None:
                next_b.prev = prev_b
        return err

    def _insert(
        self,
        key: Hashable,
        value: int,
        error: int,
        origin: Optional[_Bucket],
    ) -> None:
        """Place ``key`` at ``value``, scanning forward from ``origin``.

        ``origin`` is the bucket the key (or the evicted victim) came from.
        It may have just been unlinked, in which case its preserved
        ``prev``/``next`` pointers still locate the insertion neighbourhood.
        For unit increments the scan inspects at most one bucket; only
        weighted adds (off the hot path) may scan further.
        """
        if origin is None:
            after, node = None, self._head
        elif origin.keys:  # origin still linked
            after, node = origin, origin.next
        else:  # origin unlinked; position between its old neighbours
            after, node = origin.prev, origin.next
        while node is not None and node.value < value:
            after = node
            node = node.next
        if node is not None and node.value == value:
            node.keys[key] = error
            self._index[key] = node
            return
        bucket = _Bucket(value)
        bucket.keys[key] = error
        bucket.prev, bucket.next = after, node
        if after is not None:
            after.next = bucket
        else:
            self._head = bucket
        if node is not None:
            node.prev = bucket
        self._index[key] = bucket

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def add(self, key: Hashable, weight: int = 1) -> None:
        """Process one arrival of ``key``.

        ``weight > 1`` performs ``weight`` logical arrivals at once (used by
        the aggregation baseline when replaying merged reports, and by the
        columnar kernel's run-collapsed feed); it keeps the Space Saving
        invariants because the sketch is weight-mergeable.  A weighted add
        ends in exactly the state ``weight`` back-to-back unit arrivals of
        the same key would: the key lands on the same counter with the
        same error (the eviction, if any, happens once up front and picks
        the same victim), and any intermediate buckets the unit walk would
        visit are created and destroyed without net effect.  This is why
        :meth:`update_runs` may collapse *adjacent* duplicates only —
        collapsing across distinct keys would reorder arrivals and change
        eviction decisions.
        """
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._items += weight
        bucket = self._index.get(key)
        if bucket is not None:
            value = bucket.value + weight
            err = self._detach_key(key, bucket)
            self._insert(key, value, err, bucket)
            return
        if self._size < self.counters:
            self._insert(key, weight, 0, None)
            self._size += 1
            return
        # evict a minimum-value flow (head bucket) and take over its counter
        head = self._head
        assert head is not None, "full sketch must have a head bucket"
        victim = next(iter(head.keys))
        min_value = head.value
        self._detach_key(victim, head)
        del self._index[victim]
        self._insert(key, min_value + weight, min_value, head)

    def update(self, key: Hashable) -> None:
        """Alias of :meth:`add` — the shared streaming-algorithm interface."""
        self.add(key)

    def update_many(self, items) -> None:
        """Process a batch of unit arrivals through one hoisted loop.

        State after ``update_many(items)`` is identical to calling
        :meth:`add` once per item; the win is purely mechanical.  The
        per-item call chain (``update`` → ``add`` → ``_detach_key`` /
        ``_insert``) collapses into straight-line code over locals, a unit
        increment never needs ``_insert``'s bucket scan (the target value
        is always ``origin.value + 1``, so the successor either matches or
        a bucket is spliced in directly), and a bucket left empty by its
        sole occupant is *reused in place* — its value bumped instead of
        unlink-plus-allocate, which leaves an identical chain of
        (value, keys, error) states without touching the allocator.
        """
        items = as_batch(items)
        index = self._index
        index_get = index.get
        counters = self.counters
        size = self._size
        for key in items:
            bucket = index_get(key)
            if bucket is not None:
                keys = bucket.keys
                value = bucket.value + 1
                node = bucket.next
                if node is not None and node.value == value:
                    # successor absorbs the key
                    node.keys[key] = keys.pop(key)
                    index[key] = node
                    if not keys:  # unlink the emptied origin
                        prev_b = bucket.prev
                        if prev_b is not None:
                            prev_b.next = node
                        else:
                            self._head = node
                        node.prev = prev_b
                elif len(keys) == 1:
                    # sole occupant: bump the bucket in place
                    bucket.value = value
                else:
                    # split: new bucket directly after the origin
                    fresh = _Bucket(value)
                    fresh.keys[key] = keys.pop(key)
                    fresh.prev, fresh.next = bucket, node
                    bucket.next = fresh
                    if node is not None:
                        node.prev = fresh
                    index[key] = fresh
                continue
            if size < counters:
                self._insert(key, 1, 0, None)
                size += 1
                continue
            # eviction: the key takes over a minimum counter (head bucket)
            head = self._head
            keys = head.keys
            victim = next(iter(keys))
            min_value = head.value
            value = min_value + 1
            node = head.next
            del keys[victim]
            del index[victim]
            if node is not None and node.value == value:
                node.keys[key] = min_value
                index[key] = node
                if not keys:
                    self._head = node
                    node.prev = None
            elif not keys:
                # head emptied: reuse it in place for the new key
                keys[key] = min_value
                head.value = value
                index[key] = head
            else:
                fresh = _Bucket(value)
                fresh.keys[key] = min_value
                fresh.prev, fresh.next = head, node
                head.next = fresh
                if node is not None:
                    node.prev = fresh
                index[key] = fresh
        self._size = size
        self._items += len(items)

    def update_runs(self, runs) -> None:
        """Process run-collapsed ``(key, count)`` arrivals in order.

        ``runs`` — any iterable of ``(key, count)`` pairs — is the
        adjacent-duplicate collapse of a unit stream (see
        :func:`repro.core.kernel.collapse_run_arrays`): the total effect is
        byte-identical to feeding the expanded stream through
        :meth:`update_many`, but each run of ``count`` identical keys
        costs one weighted increment instead of ``count`` unit walks.
        Unit runs take the same hoisted fast path as ``update_many``;
        weighted runs go through the (rarer) scan-based placement.
        """
        index = self._index
        index_get = index.get
        counters = self.counters
        size = self._size
        total = 0
        for key, count in runs:
            total += count
            bucket = index_get(key)
            if count != 1:
                # weighted: same final state as `count` unit arrivals
                if bucket is not None:
                    value = bucket.value + count
                    err = self._detach_key(key, bucket)
                    self._insert(key, value, err, bucket)
                elif size < counters:
                    self._insert(key, count, 0, None)
                    size += 1
                else:
                    head = self._head
                    victim = next(iter(head.keys))
                    min_value = head.value
                    self._detach_key(victim, head)
                    del index[victim]
                    self._insert(key, min_value + count, min_value, head)
                continue
            if bucket is not None:
                keys = bucket.keys
                value = bucket.value + 1
                node = bucket.next
                if node is not None and node.value == value:
                    node.keys[key] = keys.pop(key)
                    index[key] = node
                    if not keys:
                        prev_b = bucket.prev
                        if prev_b is not None:
                            prev_b.next = node
                        else:
                            self._head = node
                        node.prev = prev_b
                elif len(keys) == 1:
                    bucket.value = value
                else:
                    fresh = _Bucket(value)
                    fresh.keys[key] = keys.pop(key)
                    fresh.prev, fresh.next = bucket, node
                    bucket.next = fresh
                    if node is not None:
                        node.prev = fresh
                    index[key] = fresh
                continue
            if size < counters:
                self._insert(key, 1, 0, None)
                size += 1
                continue
            head = self._head
            keys = head.keys
            victim = next(iter(keys))
            min_value = head.value
            value = min_value + 1
            node = head.next
            del keys[victim]
            del index[victim]
            if node is not None and node.value == value:
                node.keys[key] = min_value
                index[key] = node
                if not keys:
                    self._head = node
                    node.prev = None
            elif not keys:
                keys[key] = min_value
                head.value = value
                index[key] = head
            else:
                fresh = _Bucket(value)
                fresh.keys[key] = min_value
                fresh.prev, fresh.next = head, node
                head.next = fresh
                if node is not None:
                    node.prev = fresh
                index[key] = fresh
        self._size = size
        self._items += total

    def ingest_plan(self, plan, *, sampled: bool = False) -> None:
        """Consume a kernel plan: selected packets count, gaps do not.

        An interval sketch has no window to advance, so the plan's
        unselected stretches are ignored.  A cheap prefix probe counts
        adjacent duplicates in the first few hundred items: only when at
        least an eighth of them collapse does the batch pay for the full
        vectorized collapse and apply as count-weighted runs
        (:meth:`update_runs`, byte-identical to unit feeding).
        Duplicate-poor or non-integer batches take the unit fast path
        directly, so the probe costs well under a percent there.
        """
        items = plan.items
        n = len(items)
        if n == 0:
            return
        if n > 64 and type(items[0]) is int:
            probe = items[: min(n, 257)]
            dupes = sum(a == b for a, b in zip(probe, probe[1:]))
            if dupes * 8 >= len(probe):
                pair = collapse_run_arrays(items)
                if pair is not None and len(pair[0]) <= n - (n >> 3):
                    self.update_runs(zip(*pair))
                    return
        self.update_many(items)

    def query(self, key: Hashable) -> int:
        """Upper-bound estimate of ``key``'s count since the last flush.

        Monitored flows return their counter; unmonitored flows return the
        minimum counter value (0 while free counters remain), as in
        Section 2 of the paper.
        """
        bucket = self._index.get(key)
        if bucket is not None:
            return bucket.value
        if self._size < self.counters or self._head is None:
            return 0
        return self._head.value

    def lower_bound(self, key: Hashable) -> int:
        """Guaranteed count: ``lower_bound(x) <= f(x) <= query(x)``."""
        bucket = self._index.get(key)
        if bucket is None:
            return 0
        return bucket.value - bucket.keys[key]

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` currently owns a counter."""
        return key in self._index

    def flush(self) -> None:
        """Reset all counters (Algorithm 1 line 4 — a new frame begins)."""
        self._index.clear()
        self._head = None
        self._size = 0
        self._items = 0

    def heavy_hitters(self, theta: float) -> Dict[Hashable, int]:
        """Flows whose estimate exceeds ``theta`` times the processed count."""
        bar = theta * self._items
        return {k: b.value for k, b in self._index.items() if b.value > bar}

    def items(self) -> Iterator[Tuple[Hashable, int]]:
        """Iterate ``(key, estimate)`` over all monitored flows."""
        for key, bucket in self._index.items():
            yield key, bucket.value

    def entries(self) -> List[Tuple[Hashable, int, int]]:
        """Snapshot of ``(key, estimate, guaranteed)`` rows, for merging."""
        return [
            (key, bucket.value, bucket.value - bucket.keys[key])
            for key, bucket in self._index.items()
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the bucket chain as a flat list, not a linked structure.

        The default reducer would walk the ``next`` pointers recursively
        and overflow the interpreter stack on realistic counter budgets;
        flattening makes sketches cheap and safe to ship across process
        boundaries (the persistent shard executor's workers).  The key
        index's order travels too (``order``): it is the order in which
        the sketch lists its keys, and so the order ties break in.
        """
        chain = []
        bucket = self._head
        while bucket is not None:
            chain.append((bucket.value, list(bucket.keys.items())))
            bucket = bucket.next
        return {
            "counters": self.counters,
            "items": self._items,
            "chain": chain,
            "order": list(self._index),
        }

    def __setstate__(self, state) -> None:
        """Rebuild the linked bucket chain from its flat snapshot.

        A snapshot without ``order`` (pickled before the key order was
        kept) lists its keys in chain order.
        """
        self.counters = state["counters"]
        self._items = state["items"]
        self._index = {}
        self._head = None
        self._size = 0
        prev: Optional[_Bucket] = None
        for value, keys in state["chain"]:
            bucket = _Bucket(value)
            for key, err in keys:
                bucket.keys[key] = err
                self._index[key] = bucket
                self._size += 1
            bucket.prev = prev
            if prev is not None:
                prev.next = bucket
            else:
                self._head = bucket
            prev = bucket
        order = state.get("order")
        if order is not None:
            index = self._index
            self._index = {key: index[key] for key in order}

    @property
    def processed(self) -> int:
        """Items processed since the last flush (``n`` in the error bound)."""
        return self._items

    @property
    def monitored(self) -> int:
        """Number of flows currently holding counters (≤ ``counters``)."""
        return self._size

    @property
    def min_value(self) -> int:
        """The minimum counter value (0 while counters remain free)."""
        if self._size < self.counters or self._head is None:
            return 0
        return self._head.value

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index
