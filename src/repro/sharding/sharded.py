"""Sharded sliding-window ingestion over any :class:`SlidingSketch`.

The batch engine (PR 1) made one sketch fast; this layer scales *out*:
a :class:`ShardedSketch` hash-partitions the key space across ``S``
independent shard sketches, feeds each shard through the batch path, and
combines shard state at query time (Section 4.3's mergeability, lifted
to sliding windows).

The central design point is **global-window alignment**.  A windowed
shard (anything satisfying :class:`repro.core.api.WindowedSketch`, i.e.
the Memento family and the exact window oracle) does not simply receive
its own sub-stream: packets owned by *other* shards are applied as
``ingest_gap`` window advances, so every shard's window spans exactly
the last ``W`` packets of the **global** stream.  Gap runs collapse into
O(1) counter arithmetic (the controller-path trick), so per-shard work
stays proportional to its owned traffic plus rare boundary bookkeeping —
this is what makes the partitioning a genuine scale-out rather than ``S``
copies of the full stream.  Interval sketches (Space Saving, MST, RHHH)
have no window to advance and simply receive their owned packets.

Two query disciplines cover the two ways keys relate to routing:

* ``route`` (default) — the aggregation key *is* the routing key, so one
  shard owns all of a key's traffic: point queries go to the owner, and
  heavy-hitter sets are disjoint unions.  Per-shard error is ``nⱼ/m``,
  trivially within the merged ``Σ nᵢ/m`` bound.
* ``sum`` — aggregation keys differ from routing keys (H-Memento routes
  by packet while answering *prefix* queries, and a /8's packets spread
  across shards), so estimates are summed across shards.  Upper bounds
  sum to an upper bound, and heavy-hitter enumeration runs through the
  window-aware merge (:func:`repro.core.merge.merge_windowed_entry_sets`)
  with its summed-quantum error bound.

Merged snapshots are cached and invalidated by an ingestion version
counter, so repeated queries between batches merge once.

Shards run on one of two executors: ``serial`` applies them in the
calling thread; ``persistent`` (:mod:`repro.sharding.executors`) keeps
each shard resident in its own worker process.  Either way every shard
runs the same function over the same input.  An integer batch (a list
of ints, or a numpy integer column, which ``update_many`` dispatches
as is once it holds :data:`COALESCE_ITEMS` keys) is **broadcast**: the
parent hashes it once into an owner column, and each shard selects its
own positions (``flatnonzero(owners == j)``), boxes only its keys and
applies them as one plan.  On ``persistent`` the two columns are copied
once into one shared-memory slot that every worker reads (or pickled
into every pipe, below ``RING_MIN_ITEMS`` keys or above a slot).  Any
other batch (strings, tuples, floats) goes through the scalar routing
loop and reaches each shard as its own pickled ``(positions, items)``
plan.

Every write **coalesces**: scalar updates, report-scale batches and gap
advances append to a :class:`WriteBuffer`, which is applied on the
caller's thread once :data:`COALESCE_ITEMS` items are pending (a batch
at least that large skips the buffer).  Queries,
:meth:`ShardedSketch.flush`, snapshots and ``close`` apply what is
pending first, so results equal uncoalesced ingestion.  A failed apply,
or a resident worker found dead, raises from the call that met it and
sticks: every later write, flush and query raises until
:meth:`ShardedSketch.close`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.api import Entry, SlidingSketch, WindowedEntries
from ..core.batching import BatchIngest, as_batch
from ..core.kernel import plan_from_positions
from ..core.merge import (
    MergedWindowSketch,
    merge_entry_sets,
    merge_windowed_entry_sets,
)
from .executors import PersistentProcessExecutor

__all__ = ["ShardedSketch", "shard_index", "WriteBuffer", "COALESCE_ITEMS"]

_MASK64 = (1 << 64) - 1

QUERY_MODES = ("route", "sum")

EXECUTORS = ("serial", "persistent")

#: Pending items (gap advances count one each) at which a sharded
#: sketch applies its buffered writes.  Report-scale writes cost one
#: owner hash and one message per shard per 4096 items
#: instead of per report (``BENCH_pipelined_ingest.json``:
#: ``reports/shards4``, ``scalar/shards4``), and the 4096-item chunks
#: every bench and the ``extend`` default feed skip the buffer.
COALESCE_ITEMS = 4096

#: Op-kind tag for window advances (items ops carry their method name).
GAP = "ingest_gap"


def _mix64(value: int) -> int:
    """Finalizing 64-bit mix (murmur3 fmix64): decorrelates low bits so
    ``% shards`` never keys off structured low-order key bits."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & _MASK64
    value ^= value >> 33
    return value


def shard_index(key: Hashable, shards: int) -> int:
    """Deterministic shard owner of ``key`` among ``shards`` partitions.

    Integers are mixed directly (stable across processes); other types
    go through ``hash()`` first (stable within a process — set
    ``PYTHONHASHSEED`` for cross-process stability of strings).
    """
    h = key if isinstance(key, int) else hash(key)
    return _mix64(h) % shards


def _integer_column(items: Sequence) -> Optional[np.ndarray]:
    """``items`` as a numpy integer column, or ``None``.

    A numpy column passes through (``update_many`` only dispatches
    integer ones as is).  A list qualifies only when it converts to an
    integer dtype: a float anywhere makes ``asarray`` produce a float
    dtype, which would truncate and diverge from the scalar routing.
    """
    if isinstance(items, np.ndarray):
        return items
    if not len(items) or type(items[0]) is not int:
        return None
    try:
        column = np.asarray(items)
    except (ValueError, TypeError, OverflowError):
        return None
    return column if column.dtype.kind in "iu" else None


def _owner_column(keys: np.ndarray, shards: int) -> np.ndarray:
    """:func:`shard_index` of every key of an integer column at once
    (the same fmix64, over ``uint64`` two's-complement bits)."""
    if keys.dtype.kind == "i":
        mixed = keys.astype(np.int64).view(np.uint64)
    else:
        mixed = keys.astype(np.uint64)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xC4CEB9FE1A85EC53)
    mixed ^= mixed >> np.uint64(33)
    return mixed % np.uint64(shards)


class WriteBuffer:
    """Order-preserving coalescing buffer of ``(method, payload)`` ops.

    Payloads are item lists for ingestion methods and a plain count for
    :data:`GAP` advances.  Consecutive writes of the same kind extend
    the open op instead of appending a new one, so a scalar-update loop
    costs one growing list and gap runs collapse into one integer —
    the same run-length structure the ingest plans encode downstream.
    """

    __slots__ = ("capacity", "_ops", "_pending")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ops: List[Tuple[str, Union[List, int]]] = []
        self._pending = 0

    @property
    def pending(self) -> int:
        """Buffered item count (gap advances count one each)."""
        return self._pending

    def add_items(self, method: str, items: Sequence) -> bool:
        """Buffer ``items`` under ``method``; True when a spill is due."""
        ops = self._ops
        if ops and ops[-1][0] == method:
            ops[-1][1].extend(items)
        else:
            ops.append((method, list(items)))
        self._pending += len(items)
        return self._pending >= self.capacity

    def add_gap(self, count: int) -> bool:
        """Buffer a window advance; True when a spill is due."""
        ops = self._ops
        if ops and ops[-1][0] == GAP:
            ops[-1] = (GAP, ops[-1][1] + count)
        else:
            ops.append((GAP, count))
            self._pending += 1
        return self._pending >= self.capacity

    def drain(self) -> List[Tuple[str, Union[List, int]]]:
        """Pop and return all buffered ops (in write order)."""
        ops = self._ops
        self._ops = []
        self._pending = 0
        return ops


def _apply_shard_plan(shard, positions, items, total, windowed, method):
    """Apply one shard's slice of a global batch.

    ``positions`` are the global batch indices of the shard's owned
    ``items`` (ascending).  Interval shards just receive their owned
    packets.  Windowed shards get the slice as a kernel
    :class:`~repro.core.kernel.IngestPlan` — owned items plus the
    run-length-encoded unowned gaps — through their one plan-fed path,
    ``ingest_plan(plan, sampled=...)``, so every shard's window stays
    aligned with the *global* window whichever executor or lane carried
    the batch (``sampled=True`` for pre-sampled controller feeds).
    Module-level (not a closure) so the persistent executor can pickle
    it.
    """
    if not windowed:
        if items:
            getattr(shard, method)(items)
        return
    shard.ingest_plan(
        plan_from_positions(items, positions, total),
        sampled=method == "ingest_samples",
    )


def _apply_selected(shard, keys, owners, index, windowed, method):
    """Apply shard ``index``'s part of a broadcast integer batch.

    Every shard receives the whole batch — ``keys`` plus the ``owners``
    column the parent hashed once — selects its own positions, and
    boxes only its keys, as Python ints (sketch state must not depend
    on the lane: ``np.int64`` keys would pickle differently), before
    :func:`_apply_shard_plan`.  The serial loop runs it over the
    parent's columns, resident workers over a ring slot's views or the
    pickled columns.
    """
    positions = np.flatnonzero(owners == index)
    _apply_shard_plan(
        shard, positions, keys[positions].tolist(), len(keys), windowed, method
    )


def _apply_shard_gap(shard, count):
    """Advance one resident shard's window (persistent-executor message)."""
    shard.ingest_gap(count)


class ShardedSketch(BatchIngest):
    """Hash-partitioned ensemble of sketches behind one SlidingSketch face.

    Parameters
    ----------
    factory:
        ``factory(shard_id) -> sketch``; called once per shard.  Give
        shards distinct seeds derived from ``shard_id`` when the sketch
        is randomized.
    shards:
        Number of partitions ``S``.  One shard bypasses hashing entirely
        and delegates straight to the inner sketch (the no-regression
        fast path the bench gates).
    executor:
        ``"serial"`` (default: shards applied in the calling thread),
        ``"persistent"`` (resident shard workers), or a
        :class:`~repro.sharding.executors.PersistentProcessExecutor`
        instance (to size its ring).
    query_mode:
        ``"route"`` — point queries go to the key's owning shard (valid
        when the query key is the packet itself); ``"sum"`` — sum the
        per-shard estimates (valid always, required when they differ:
        H-Memento routes whole packets while answering *prefix*
        queries).
    merge_counters:
        Counter budget of merged snapshots (default: every merged row is
        kept — the union is exact for disjoint shards).
    windowed:
        Declares whether the shards are window-advancing
        (:class:`~repro.core.api.WindowedSketch`) sketches.  ``None``
        (default) sniffs the first shard for ``ingest_gap`` — the
        historical behaviour; the engine registry passes the declared
        capability explicitly instead.  Declaring ``True`` for shards
        without ``ingest_gap`` fails fast.

    Writes coalesce up to :data:`COALESCE_ITEMS` pending items before
    they are partitioned and applied; queries and :meth:`flush` apply
    what is pending first.

    Examples
    --------
    >>> from repro.core.space_saving import SpaceSaving
    >>> sharded = ShardedSketch(lambda i: SpaceSaving(64), shards=4)
    >>> sharded.update_many(["a", "b", "a", "c"])
    >>> sharded.query("a")
    2
    """

    def __init__(
        self,
        factory: Callable[[int], SlidingSketch],
        shards: int = 1,
        executor: Union[str, PersistentProcessExecutor] = "serial",
        query_mode: str = "route",
        merge_counters: Optional[int] = None,
        windowed: Optional[bool] = None,
    ) -> None:
        # every knob validates BEFORE the factory runs: a bad executor
        # must not first construct S shard sketches
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if query_mode not in QUERY_MODES:
            raise ValueError(
                f"query_mode must be one of {QUERY_MODES}, got {query_mode!r}"
            )
        if merge_counters is not None and merge_counters <= 0:
            raise ValueError(
                f"merge_counters must be positive, got {merge_counters}"
            )
        if isinstance(executor, str):
            if executor not in EXECUTORS:
                raise ValueError(
                    f"unknown executor {executor!r}; expected one of "
                    f"{EXECUTORS}"
                )
            executor = (
                PersistentProcessExecutor() if executor == "persistent" else None
            )
        elif not isinstance(executor, PersistentProcessExecutor):
            raise TypeError(
                f"executor must be 'serial', 'persistent' or a "
                f"PersistentProcessExecutor, got {executor!r}"
            )
        #: resident shard workers, or ``None`` for the in-thread loop;
        #: with workers, ingestion ships only batches and
        #: ``_sync_shards`` pulls state back lazily at the first query
        #: after a batch
        self._executor: Optional[PersistentProcessExecutor] = executor
        self.num_shards = int(shards)
        self.query_mode = query_mode
        self.merge_counters = merge_counters
        self._shards: List = [factory(i) for i in range(self.num_shards)]
        first = self._shards[0]
        #: shards that can advance their window without inserting get the
        #: global-window-aligned ingestion; interval sketches get substreams.
        #: The capability is declared (engine registry / WindowedSketch
        #: protocol) as the presence of the ingest_gap hook.
        has_gap = getattr(first, "ingest_gap", None) is not None
        if windowed is None:
            self.windowed = has_gap
        else:
            if windowed and not has_gap:
                raise TypeError(
                    f"shards declared windowed but {type(first).__name__} "
                    f"has no ingest_gap"
                )
            self.windowed = bool(windowed)
        self._buffer = WriteBuffer(COALESCE_ITEMS)
        #: the first failed apply; every later write, flush and query
        #: raises it until ``close``
        self._failure: Optional[BaseException] = None
        self._resident = False
        self._shards_stale = False
        self._updates = 0
        self._version = 0
        self._merge_version = -1
        self._merged_entries: Optional[List[Entry]] = None
        self._merged_view: Optional[MergedWindowSketch] = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, item: Hashable) -> int:
        """The shard index owning ``item``."""
        return shard_index(item, self.num_shards)

    def _route(self, items: Sequence) -> List[Tuple[List[int], list]]:
        """Per-shard ``(positions, items)`` lists of a non-integer batch
        (the scalar routing loop)."""
        shards = self.num_shards
        per_positions: List[List[int]] = [[] for _ in range(shards)]
        per_items: List[list] = [[] for _ in range(shards)]
        for idx, item in enumerate(items):
            j = shard_index(item, shards)
            per_positions[j].append(idx)
            per_items[j].append(item)
        return list(zip(per_positions, per_items))

    # ------------------------------------------------------------------
    # ingestion (SlidingSketch + WindowedSketch surface)
    # ------------------------------------------------------------------
    def update(self, item: Hashable) -> None:
        """Route one packet; windowed non-owners advance their window."""
        # _write inlined for one item: the per-packet hot path
        if self._failure is not None:
            self._raise_failure()
        self._version += 1
        self._updates += 1
        if self._buffer.add_items("update_many", (item,)):
            self._spill()

    def update_many(self, items: Sequence) -> None:
        """Batch ingestion; a numpy integer column of at least
        :data:`COALESCE_ITEMS` keys is dispatched as is (no ``tolist``)."""
        if not (
            isinstance(items, np.ndarray)
            and items.dtype.kind in "iu"
            and len(items) >= self._buffer.capacity
        ):
            items = as_batch(items)
        self._write("update_many", items)

    def ingest_sample(self, item: Hashable) -> None:
        """Externally-sampled packet: Full update at the owner."""
        self._write(self._sample_method, (item,))

    def ingest_samples(self, items: Sequence) -> None:
        """Batch of externally-sampled packets (controller path)."""
        self._write(self._sample_method, as_batch(items))

    @property
    def _sample_method(self) -> str:
        # interval shards have no sampled path: samples are plain packets
        return "ingest_samples" if self.windowed else "update_many"

    def ingest_gap(self, count: int) -> None:
        """Advance every shard's window for ``count`` unobserved packets."""
        if not self.windowed:
            raise TypeError(
                "ingest_gap needs windowed shards (sketches with their own "
                "ingest_gap); interval sketches have no window to advance"
            )
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._raise_failure()
        self._version += 1
        self._updates += count
        if self._buffer.add_gap(count):
            self._spill()

    def _write(self, method: str, items: Sequence) -> None:
        """Coalesce one write; a batch of ``COALESCE_ITEMS`` or more
        applies at once, after whatever was pending."""
        if self._failure is not None:
            self._raise_failure()
        n = len(items)
        if n == 0:
            return
        self._version += 1
        self._updates += n
        if n >= self._buffer.capacity:
            self._spill((method, items))
        elif self._buffer.add_items(method, items):
            self._spill()

    def _spill(self, last: Optional[Tuple[str, Sequence]] = None) -> None:
        """Apply every buffered op, then ``last``, on this thread.

        A failure is stored before it propagates: the shards may hold
        part of the spill, so nothing may be written or read until
        :meth:`close`.
        """
        ops = self._buffer.drain()
        if last is not None:
            ops.append(last)
        try:
            for method, payload in ops:
                if method == GAP:
                    self._gap_now(payload)
                else:
                    self._dispatch_now(payload, method)
        except BaseException as exc:
            self._failure = exc
            raise

    def _raise_failure(self) -> None:
        """Raise the stored failure, if any (see :meth:`_spill`)."""
        failure = self._failure
        if failure is not None:
            raise RuntimeError(
                f"sharded ingestion failed earlier "
                f"({type(failure).__name__}: {failure}); the shards may "
                f"hold part of a batch, close() resets the sketch"
            ) from failure

    def _gap_now(self, count: int) -> None:
        """Apply a window advance to every shard."""
        if self._resident:
            self._executor.broadcast(_apply_shard_gap, count)
            self._shards_stale = True
            return
        for shard in self._shards:
            shard.ingest_gap(count)

    def _dispatch_now(self, items: Sequence, method: str) -> None:
        """Apply one batch to every shard.

        An integer batch is hashed once into an owner column and every
        shard selects its own keys from the two columns
        (:func:`_apply_selected`); any other batch is routed by the
        scalar loop into one plan per shard.
        """
        n = len(items)
        if self.num_shards == 1:
            getattr(self._shards[0], method)(items)
            return
        windowed = self.windowed
        keys = _integer_column(items)
        if keys is not None:
            fn = _apply_selected
            columns: tuple = (keys, _owner_column(keys, self.num_shards))
            tasks = [
                (index, windowed, method) for index in range(self.num_shards)
            ]
        else:
            fn = _apply_shard_plan
            columns = ()
            tasks = [
                (positions, owned, n, windowed, method)
                for positions, owned in self._route(items)
            ]
        executor = self._executor
        if executor is None:
            for shard, task in zip(self._shards, tasks):
                fn(shard, *columns, *task)
            return
        if not self._resident:
            # ship current parent state once; from here on only the
            # batches cross to the workers
            executor.seed(self._shards)
            self._resident = True
        executor.submit(fn, tasks, columns)
        self._shards_stale = True

    def flush(self) -> None:
        """Apply every buffered write now (idempotent).

        Every query path routes through here (via ``_sync_shards``), so
        coalesced results are indistinguishable from applying each write
        as it arrives.  Raises the stored failure of an earlier apply,
        and, with resident workers, names a worker that has died (a
        failure that sticks like a failed apply).
        """
        self._raise_failure()
        self._spill()
        if self._resident:
            try:
                self._executor.check_alive()
            except BaseException as exc:
                self._failure = exc
                raise

    def _sync_shards(self) -> None:
        """Apply buffered writes, then pull resident state back when stale
        (a failed pull sticks like a failed apply)."""
        self.flush()
        if self._shards_stale:
            try:
                self._shards = self._executor.collect()
            except BaseException as exc:
                self._failure = exc
                raise
            self._shards_stale = False

    # ------------------------------------------------------------------
    # queries (merge-on-query)
    # ------------------------------------------------------------------
    def query(self, key: Hashable) -> float:
        """Window/interval frequency estimate for ``key``.

        Route mode asks the owning shard; sum mode adds the per-shard
        estimates.
        """
        self._sync_shards()
        if self.query_mode == "route":
            return self._shards[self.shard_of(key)].query(key)
        return sum(shard.query(key) for shard in self._shards)

    @staticmethod
    def _query_method(shard, *names):
        """First of ``names`` the shard implements, else plain ``query``."""
        for name in names:
            fn = getattr(shard, name, None)
            if fn is not None:
                return fn
        return shard.query

    def query_lower(self, key: Hashable) -> float:
        """Guaranteed (lower-bound) part of the estimate."""
        self._sync_shards()
        if self.query_mode == "route":
            shard = self._shards[self.shard_of(key)]
            return self._query_method(shard, "query_lower", "lower_bound")(key)
        return sum(
            self._query_method(shard, "query_lower", "lower_bound")(key)
            for shard in self._shards
        )

    def query_point(self, key: Hashable) -> float:
        """Midpoint (bias-removed) estimate, for error metrics/detection."""
        self._sync_shards()
        if self.query_mode == "route":
            shard = self._shards[self.shard_of(key)]
            return self._query_method(shard, "query_point")(key)
        return sum(
            self._query_method(shard, "query_point")(key)
            for shard in self._shards
        )

    def candidates(self) -> Iterable[Hashable]:
        """Keys any shard currently tracks (disjoint under ``route``)."""
        self._sync_shards()
        iters = []
        for shard in self._shards:
            cand = getattr(shard, "candidates", None)
            if cand is not None:
                iters.append(cand())
            else:
                iters.append(key for key, _, _ in shard.entries())
        if self.num_shards == 1 or self.query_mode == "route":
            return chain.from_iterable(iters)
        seen: set = set()
        out = []
        for key in chain.from_iterable(iters):
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def entries(self) -> List[Entry]:
        """Merged ``(key, estimate, guaranteed)`` snapshot (cached)."""
        self._sync_shards()
        if self._merge_version != self._version or self._merged_entries is None:
            sets = [shard.entries() for shard in self._shards]
            budget = self.merge_counters or max(
                1, sum(len(rows) for rows in sets)
            )
            self._merged_entries = merge_entry_sets(sets, counters=budget)
            self._merged_view = None
            self._merge_version = self._version
        return self._merged_entries

    def merged_window(self) -> MergedWindowSketch:
        """Window-aware merged view of all shards (cached by version).

        Requires shards exposing ``windowed_entries`` (the Memento
        family); the view answers scaled queries and heavy-hitter
        enumeration with the summed-quantum error bound.
        """
        self._sync_shards()
        if self._merge_version != self._version or self._merged_view is None:
            snapshots = [shard.windowed_entries() for shard in self._shards]
            budget = self.merge_counters or max(
                1, sum(len(snap.entries) for snap in snapshots)
            )
            merged = merge_windowed_entry_sets(snapshots, counters=budget)
            self._merged_view = MergedWindowSketch(merged)
            self._merged_entries = list(merged.entries)
            self._merge_version = self._version
        return self._merged_view

    def _sum_heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Sum-mode enumeration: merged snapshot against the right bar.

        Memento-family shards go through the window-aware merged view
        (scaled estimates, ``theta · window`` bar).  Other shards merge
        their raw ``entries()``: exact window counters threshold against
        ``theta · window``, interval sketches against ``theta · n`` where
        ``n`` is the total ingested count (``Σ nᵢ``), matching each
        family's own ``heavy_hitters`` convention.
        """
        first = self._shards[0]
        if getattr(first, "windowed_entries", None) is not None:
            return self.merged_window().heavy_hitters(theta)
        if self.windowed:
            bar = theta * getattr(first, "window", self._updates)
        else:
            bar = theta * self._updates
        return {
            key: float(est) for key, est, _ in self.entries() if est > bar
        }

    def _route_heavy(self, theta: float, attr: str) -> Dict[Hashable, float]:
        """Route-mode union with a *global* threshold.

        Windowed shards threshold against ``theta · window``, which is
        shard-independent, so their union is already the sharded set.
        Interval shards threshold against their *local* processed count
        — roughly ``1/S`` of the stream — so ``theta`` is rescaled per
        shard to make the local bar equal the global ``theta · n``
        (reusing each sketch's own scaling semantics, e.g. RHHH's ``V``
        multiplier).
        """
        self._sync_shards()
        out: Dict[Hashable, float] = {}
        total = self._updates
        for shard in self._shards:
            fn = getattr(shard, attr, None)
            if fn is None:
                fn = shard.heavy_hitters
            local_theta = theta
            if not self.windowed and self.num_shards > 1 and total:
                local = getattr(shard, "processed", None)
                if local is None:
                    local = getattr(shard, "packets", None)
                if local:
                    local_theta = theta * total / local
            out.update(fn(local_theta))
        return out

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Heavy hitters across all shards.

        Under ``route`` the per-shard sets are disjoint and their union
        — thresholded against the global count (see :meth:`_route_heavy`)
        — is the sharded heavy-hitter set; under ``sum`` the merged
        snapshot enumerates them (window-aware for the Memento family).
        """
        if self.query_mode == "route" or self.num_shards == 1:
            return self._route_heavy(theta, "heavy_hitters")
        return self._sum_heavy_hitters(theta)

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Controller-facing alias (keys are prefixes in HHH mode)."""
        if self.query_mode == "route" or self.num_shards == 1:
            return self._route_heavy(theta, "heavy_prefixes")
        return self._sum_heavy_hitters(theta)

    def output(self, theta: float):
        """The heavy-hitter / HHH output set across all shards.

        When sum-mode shards expose the conditioned ``output`` surface
        (H-Memento), the HHH set is recomputed over the *merged*
        estimates: ``compute_hhh`` runs on the union of candidates with
        the summed upper/lower queries, the per-shard coverage slack
        growing as ``sqrt(S)`` (independent per-shard sampling noise adds
        in variance).  Everything else falls back to the plain
        heavy-hitter key set, which is what the single-sketch controller
        does for non-HHH algorithms.
        """
        self._sync_shards()
        if (
            self.query_mode == "sum"
            and self.num_shards > 1
            and getattr(self._shards[0], "output", None) is not None
            and getattr(self._shards[0], "hierarchy", None) is not None
        ):
            from ..hierarchy.hhh_output import compute_hhh

            first = self._shards[0]
            correction = 0.0
            sampling_correction = getattr(first, "sampling_correction", None)
            if sampling_correction is not None:
                correction = sampling_correction() * math.sqrt(
                    self.num_shards
                )
            return compute_hhh(
                first.hierarchy,
                list(self.candidates()),
                upper=self.query,
                lower=self.query_lower,
                threshold_count=theta * first.window,
                correction=correction,
            )
        single_output = (
            getattr(self._shards[0], "output", None)
            if self.num_shards == 1
            else None
        )
        if single_output is not None:
            return single_output(theta)
        return set(self.heavy_hitters(theta))

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Sequence:
        """The live shard sketches (read-only view; synced if resident)."""
        self._sync_shards()
        return tuple(self._shards)

    @property
    def updates(self) -> int:
        """Global packets ingested (including gap advances)."""
        return self._updates

    def state_snapshot(self) -> Dict[str, object]:
        """Serializable snapshot of the full ensemble state.

        Applies buffered writes and pulls any resident worker state back
        into the parent first, so the returned shards reflect every
        write accepted so far.  The shard sketches in the snapshot are
        the live objects, not copies — serialize (pickle) the snapshot
        before ingesting further, which is exactly what the checkpoint
        writer in :mod:`repro.service` does.
        """
        self._sync_shards()
        return {
            "shards": list(self._shards),
            "updates": self._updates,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_snapshot` as the current ensemble state.

        Buffered writes and any resident workers are unwound first (via
        :meth:`close` — idempotent, so later writes re-seed lazily),
        then the snapshot's shard sketches replace the current
        ones and the merge cache is invalidated.  The snapshot must come
        from a sketch with the same shard count.
        """
        shards = state["shards"]
        if len(shards) != self.num_shards:
            raise ValueError(
                f"snapshot has {len(shards)} shard(s), this sketch has "
                f"{self.num_shards}"
            )
        self.close()
        self._shards = list(shards)
        self._updates = int(state["updates"])
        self._version += 1
        self._merged_entries = None
        self._merged_view = None
        self._merge_version = -1

    def close(self) -> None:
        """Apply buffered writes and release the executor's workers.

        Idempotent: resident shard state is pulled back into the parent
        first, so queries keep working after close, and a later write
        re-seeds fresh workers lazily.  The workers are released and the
        stored failure is cleared even when the final sync fails (an
        earlier failed apply or a dead worker) — the failure propagates,
        but nothing leaks and the parent keeps its last synced state.
        """
        try:
            self._sync_shards()
        finally:
            self._failure = None
            self._shards_stale = False
            if self._executor is not None:
                self._executor.close()
            self._resident = False

    def __enter__(self) -> "ShardedSketch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedSketch(shards={self.num_shards}, "
            f"mode={self.query_mode!r}, windowed={self.windowed}, "
            f"updates={self._updates})"
        )
