"""Memento — sliding-window heavy hitters with sampled full updates.

This module implements Algorithm 1 of the paper.  The key idea (Section 4.1)
is to decouple the two costs of a sliding-window update:

* a **Full update** inserts the arriving item into the measurement structure
  *and* slides the window — expensive;
* a **Window update** only slides the window (forgetting outdated data) —
  cheap.

Memento performs a Full update with probability ``tau`` and a Window update
otherwise, then compensates at query time by scaling estimates by ``1/tau``.
Unlike naive sub-sampling, the window always spans exactly ``W`` *stream*
packets (most of which are simply missing from the structure), so the
reference window never varies — avoiding the ±Θ(√(W(1−τ))/τ) error the paper
attributes to uniform sampling.

With ``tau = 1`` Memento performs a Full update for every packet and becomes
WCSS (Ben Basat et al., INFOCOM 2016), which is exactly how the paper's own
evaluation obtains its WCSS baseline; :class:`WCSS` is provided as that
configuration.

Structure (Algorithm 1):

* the stream is split into frames of ``W`` packets, each divided into
  ``k = ceil(4/epsilon)`` blocks;
* a Space Saving instance ``y`` (k counters) counts within the current frame
  and is flushed at frame boundaries;
* each time an item's in-frame count crosses a multiple of the block size,
  an *overflow* record is appended to one FIFO of overflow records and
  counted against the newest block, and the overflow table ``B`` is
  incremented;
* every update expires at most one record of the oldest of the ``k + 1``
  blocks still in the window from the head of the FIFO, de-amortizing
  expiry so the worst-case update time is O(1).

Algorithm 1's ``k + 1`` block queues are therefore one ``deque`` of records
in append order plus a ring of ``k + 1`` per-block record counts (oldest
block first): the queues, laid end to end, are the FIFO.  A sketch is built
without allocating a container per block and pickles as two flat sequences.

A query combines the overflow count with the in-frame remainder::

    estimate(x) = (1/tau) * (blk * (B[x] + 2) + (y.query(x) mod blk))

where ``blk = W/k`` and the ``+2`` blocks keep the error one-sided
(an overestimate), matching MST for comparability (Section 4.1).

At overflow quantum 1 (``sample_block == 1``: one-packet blocks, or
``tau·W/k`` rounding to at most 1, as at the network-wide controller's
geometry) every Full update writes an overflow record whatever ``y``
counts, and ``B`` is an exact, block-granular count of the samples in
the window.  Memento then leaves ``y`` empty: ``full_update`` and the
kernel only append the record and bump ``B``.  No answer needs ``y``
there: ``y.query(x) mod 1`` is 0; no flow is known to ``y`` alone,
since a sampled key's record outlives its frame; and a key absent from
``B`` had no sampled arrival in the frame, so its exact in-frame count
is 0 and it answers ``2·blk/tau`` (``query_lower`` 0) — Algorithm 1's
bound at that count, tighter than ``(2·blk + min(y))/tau`` and still
one-sided.  A filled ``y`` restored from an older checkpoint is a valid
Space Saving all the same, and the next frame flush empties it.

Batch ingestion has one sampled kernel.  ``ingest_plan`` (after drawing
the decision column when the plan is not yet sampled — the
``update_many``/``extend`` feed), ``full_update_many``, ``ingest_samples``
and ``ingest_gap`` all hand it a sampled plan: dense (every packet a Full
update), positioned (Full updates at given offsets, Window updates
between) or a pure gap.  It walks block boundaries rather than packets
and pops each expiry at its own update, so its state is byte-identical to
the scalar twins ``update``, ``full_update`` and ``window_update``.

Threshold queries have one enumerator, ``estimates_over``: the
``estimates`` rows whose estimate clears a bar, found without visiting
the rows that cannot.  ``heavy_hitters`` (and through it H-Memento's
``heavy_prefixes``) and the 1-D H-Memento ``output`` use it.  It reads
``B`` as one numpy column and computes a row's exact estimate only when
the row's largest reachable raw value ``blk * (B[x] + 3) - 1`` clears
the bar; flows known only to ``y`` are found by walking ``y``'s value
buckets, not its keys, and reading only the buckets that pass.  Float
rounding is monotone, so the prefilter never drops a passing row, and
the answer equals a filter over ``estimates()`` — keys, float values
and dict order.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from itertools import chain
from typing import Any, Deque, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .api import Entry, WindowedEntries
from .batching import BatchIngest, as_batch
from .kernel import IngestPlan, dense_plan, make_plan

from .sampling import (
    BernoulliSampler,
    GeometricSampler,
    TableSampler,
    draw_decision_array,
    make_sampler,
)
from .space_saving import SpaceSaving, _Bucket

__all__ = ["Memento", "WCSS", "ExpiryQueueError"]

#: samplers whose ``should_sample`` is always True (no randomness drawn)
#: once their ``tau`` reaches 1 — the only safe targets for the WCSS
#: shortcut that skips decision drawing entirely
_ALWAYS_SAMPLE_AT_TAU1 = (TableSampler, GeometricSampler, BernoulliSampler)

#: the selected positions of a pure gap
_NO_POSITIONS = np.empty(0, dtype=np.int64)


class ExpiryQueueError(RuntimeError):
    """A block reached retirement with overflow records still unexpired.

    The oldest block's records expire within its block by construction;
    a block that still counts records when it retires means the sketch
    state was corrupted, and its records are never dropped silently.
    """


def _unexpired(count: int) -> ExpiryQueueError:
    return ExpiryQueueError(
        f"block retired with {count} unexpired overflow record(s)"
    )


class Memento(BatchIngest):
    """Sliding-window heavy-hitter sketch (Algorithm 1 of the paper).

    Parameters
    ----------
    window:
        The window size ``W`` in packets.  Internally rounded up to
        ``effective_window = k * ceil(W / k)`` so blocks tile the frame
        exactly; the constructor records both.
    counters:
        Number of Space Saving counters ``k`` (the paper's ``⌈4/ε⌉``).
        Exactly one of ``counters`` / ``epsilon`` must be given.
    epsilon:
        Algorithm error ``ε_a``; translated to ``k = ceil(4 / epsilon)``.
    tau:
        Full-update probability.  ``tau = 1`` degenerates to WCSS.
    sampler:
        ``"table"`` (paper's random-number table, default), ``"geometric"``,
        ``"bernoulli"``, or a ready object with ``should_sample()``.
    seed:
        Seed for the sampler (ignored when a sampler object is passed).

    Examples
    --------
    >>> sketch = Memento(window=1000, counters=64, tau=1.0)
    >>> for packet in [1, 2, 1, 3, 1]:
    ...     sketch.update(packet)
    >>> sketch.query(1) >= 3
    True
    """

    def __init__(
        self,
        window: int,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
        tau: float = 1.0,
        sampler: object = "table",
        seed: Optional[int] = None,
        scale_overflow_quantum: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            if not 0.0 < epsilon < 1.0:
                raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
            counters = math.ceil(4.0 / epsilon)
        if counters <= 0:
            raise ValueError(f"counters must be positive, got {counters}")
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")

        self.window = int(window)
        self.k = int(counters)
        self.epsilon = 4.0 / self.k
        self.tau = float(tau)
        self._inv_tau = 1.0 / self.tau

        # Blocks tile the frame exactly; the window is rounded up if needed.
        self.block_size = max(1, math.ceil(self.window / self.k))
        self.effective_window = self.block_size * self.k
        # Overflow quantum in *sampled-count* units.  Algorithm 1 writes
        # ``W/k`` for both the stream-tick block length and the overflow
        # threshold, which coincide only at tau = 1: the sketch counts
        # sampled packets, of which a block contains ~tau·W/k.  Scaling the
        # quantum keeps one overflow worth ~W/k stream packets after the
        # 1/tau correction for every tau, so the per-block error stays
        # O(W/k) as Theorem 5.2 requires.  ``scale_overflow_quantum=False``
        # keeps the pseudocode's literal (unscaled) threshold — provided
        # for the ablation bench that quantifies this deviation.
        if scale_overflow_quantum:
            self.sample_block = max(1, round(self.block_size * self.tau))
        else:
            self.sample_block = self.block_size

        if isinstance(sampler, str):
            # salt the seed so the sampler's uniform stream never replays
            # the stream that generated the input trace (a same-seed trace
            # generator would otherwise correlate "sampled" with "popular")
            sampler_seed = None if seed is None else seed + 0x3C6EF372
            self._sampler = make_sampler(self.tau, method=sampler, seed=sampler_seed)
        else:
            self._sampler = sampler

        self._y = SpaceSaving(self.k)
        self._offsets: Dict[Hashable, int] = {}  # overflow table B
        # the overflow records of the k + 1 blocks in the window, in append
        # order, and how many of them each block holds: index 0 = oldest
        # (being expired from the FIFO's head), -1 = newest
        self._fifo: Deque[Hashable] = deque()
        self._counts: Deque[int] = deque([0] * (self.k + 1))
        # packets remaining in the current block / blocks into the frame —
        # countdown form of Algorithm 1's ``M mod W/k`` and ``M mod W``
        self._countdown = self.block_size
        self._blocks_into_frame = 0
        self._updates = 0  # total stream packets seen (full + window)
        self._full_updates = 0

    # ------------------------------------------------------------------
    # update path (Algorithm 1 lines 2-21)
    # ------------------------------------------------------------------
    def window_update(self) -> None:
        """Slide the window by one packet without inserting anything."""
        self._updates += 1
        counts = self._counts
        countdown = self._countdown - 1
        if countdown == 0:
            # new block: retire the oldest block, open a fresh one
            if counts[0]:
                raise _unexpired(counts[0])
            blocks = self._blocks_into_frame + 1
            if blocks == self.k:
                blocks = 0
                self._y.flush()  # new frame
            self._blocks_into_frame = blocks
            counts.rotate(-1)  # the retired zero opens the newest block
            countdown = self.block_size
        self._countdown = countdown
        if counts[0]:
            # de-amortized expiry: one record of the oldest block
            counts[0] -= 1
            old_id = self._fifo.popleft()
            offsets = self._offsets
            remaining = offsets[old_id] - 1
            if remaining:
                offsets[old_id] = remaining
            else:
                del offsets[old_id]

    def full_update(self, item: Hashable) -> None:
        """Slide the window *and* insert ``item`` (Algorithm 1 lines 12-18)."""
        self.window_update()
        self._full_updates += 1
        quantum = self.sample_block
        if quantum > 1:
            y = self._y
            y.add(item)
            if y.query(item) % quantum:
                return
        # an overflow; at quantum 1 every Full update is one, and y is
        # left empty
        self._fifo.append(item)
        self._counts[-1] += 1
        offsets = self._offsets
        offsets[item] = offsets.get(item, 0) + 1

    def full_update_many(self, items: Sequence[Hashable]) -> None:
        """Perform one Full update per item (a dense plan for the kernel).

        Equivalent to calling :meth:`full_update` once per item.
        """
        items = as_batch(items)
        if items:
            self._apply_sampled(len(items), None, items)

    def update(self, item: Hashable) -> None:
        """Process one packet: Full update w.p. ``tau``, else Window update."""
        if self._sampler.should_sample():
            self.full_update(item)
        else:
            self.window_update()

    def update_many(self, items: Sequence[Hashable]) -> None:
        """Process a batch of packets through the plan-fed path.

        State after ``update_many(items)`` is identical to calling
        :meth:`update` once per item under the same seed: the batch is a
        dense plan, and :meth:`ingest_plan` draws its decision column and
        replays the sampled packets through the sampled kernel.

        A numpy integer column (the service daemon's report feed) stays
        a column up to the coin draw: only the sampled keys are boxed,
        as Python ints, so the state equals ``update_many(items.tolist())``.
        """
        if not isinstance(items, np.ndarray):
            items = as_batch(items)
        self.ingest_plan(dense_plan(items))

    def ingest_sample(self, item: Hashable) -> None:
        """Feed an externally-sampled packet (network-wide controller path).

        D-Memento's measurement points sample at rate ``tau`` before
        reporting, so the controller applies a Full update without a second
        coin flip; construct the sketch with the transport's ``tau`` so the
        query-time ``1/tau`` scaling matches.
        """
        self.full_update(item)

    def ingest_samples(self, items: Sequence[Hashable]) -> None:
        """Batch form of :meth:`ingest_sample`: one Full update per item."""
        self.full_update_many(items)

    def ingest_plan(self, plan: IngestPlan, *, sampled: bool = False) -> None:
        """Consume a kernel plan — the one batch path of the sketch.

        With ``sampled=False`` (``update_many``, ``extend`` and the
        sharding layer's owned-packet feed) each selected item flips its
        own coin, exactly as :meth:`update` would: the whole decision
        column is drawn in one ``decision_array`` call (RNG-identical to
        sequential scalar draws), the unsampled items are dropped, and
        what remains is a sampled plan — unsampled packets simply widen
        the gaps between the surviving positions, as a scalar Window
        update would.  With ``sampled=True`` (the decision-column and
        controller feeds) every selected item receives a Full update.
        Either way the sampled plan runs through the one sampled kernel.
        A plan whose items are still a numpy column (nothing was drawn:
        ``tau = 1``, or a dense ``sampled=True`` plan) converts them
        with one ``tolist()`` first, so the kernel sees Python scalars.
        """
        sampler = self._sampler
        if not sampled and len(plan.items) and not (
            self.tau >= 1.0
            and isinstance(sampler, _ALWAYS_SAMPLE_AT_TAU1)
            and sampler.tau >= 1.0
        ):
            # draw this plan's coins.  Genuine WCSS skips the draw: the
            # random builtin samplers at tau >= 1 return True without
            # consuming randomness.  Any other sampler (FixedSampler
            # scripting skips, custom objects) is always asked.
            kept = make_plan(
                plan.items, draw_decision_array(sampler, len(plan.items))
            )
            if plan.dense:
                plan = kept
            elif not kept.dense:
                plan = IngestPlan(
                    plan.n, plan.positions[kept.positions], kept.items
                )
        items = plan.items
        if isinstance(items, np.ndarray):
            items = items.tolist()
        self._apply_sampled(plan.n, plan.positions, items)

    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` unsampled (unreported) packets.

        Identical to ``count`` Window updates, in O(W) time whatever the
        count: two frames of gap expire every overflow and flush ``y``,
        after which a further whole frame changes nothing but the
        ``updates`` counter.  Those frames are skipped arithmetically and
        the last two to three frames walk through the sampled kernel.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        frame = self.effective_window
        skip = (count // frame - 2) * frame
        if skip > 0:
            self._updates += skip
            count -= skip
        self._apply_sampled(count, _NO_POSITIONS, ())

    def _apply_sampled(
        self,
        n: int,
        positions: Optional[np.ndarray],
        items: Sequence[Hashable],
    ) -> None:
        """The sampled kernel: ``n`` updates, Full ones for ``items``.

        ``items`` get Full updates at ``positions`` (ascending offsets
        into the ``n`` updates; ``None`` selects every position, a dense
        plan) and every other update is a Window update.  The final
        state, down to the insertion order of the overflow table, is the
        one the scalar twins leave.

        The loop walks **block spans**, not packets: the rotation offsets
        follow from the countdown, the samples are split across spans
        with one ``np.searchsorted``, and each span after the first opens
        with its boundary bookkeeping.  The retiring block's count is
        always zero there (a block takes at most ``block_size`` records
        while newest and later expires one per update for a whole
        block), so the count ring turns by one and the retired zero
        opens the newest block.  A span with no sample and no record to
        expire ends there.  Otherwise the FIFO's head is popped once per
        update while the oldest block's records last — a number known up
        front, so it is settled against the oldest count at once — and
        each sample first pops up to its own update, the scalar order.
        Once the records are gone the rest of the span runs through a
        tight slice loop whose body is the inlined Space Saving unit
        increment (the steps of ``SpaceSaving.update_many``, with the
        free-counter insert at value 1 spelled out) plus the overflow
        check; at quantum 1 the body only appends the record and bumps
        ``B``, and ``y`` is left alone.  The span's appends are settled
        against the newest count when it ends.
        """
        if n <= 0:
            return
        block_size = self.block_size
        first_rot = self._countdown - 1
        rots = range(first_rot, n, block_size)
        bounds = [*rots, n]  # span ends; each rotation update opens a span
        pos: Sequence[int]
        if positions is None:
            pos = range(n)
            his = bounds
        else:
            pos = positions.tolist()
            if pos:
                his = np.searchsorted(
                    positions, np.arange(first_rot, n, block_size)
                ).tolist()
            else:
                his = [0] * len(rots)
            his.append(len(pos))
        y = self._y
        y_flush = y.flush
        y_index = y._index
        y_index_get = y_index.get
        y_counters = y.counters
        size = y._size
        # y's arrivals: its count so far, plus the samples from index
        # fresh_lo on (both reset by a frame flush inside this call)
        fresh_items = y._items
        fresh_lo = 0
        offsets = self._offsets
        offsets_get = offsets.get
        fifo = self._fifo
        popleft = fifo.popleft
        counts = self._counts
        quantum = self.sample_block
        counting = quantum > 1  # y counts only above quantum 1
        k = self.k
        blocks = self._blocks_into_frame
        s = lo = 0
        rotating = False  # the first span does not open on a boundary
        for e, hi in zip(bounds, his):
            if rotating:
                blocks += 1
                if blocks == k:
                    blocks = 0
                    y_flush()  # new frame
                    size = fresh_items = 0
                    fresh_lo = lo
                if counts[0]:
                    raise _unexpired(counts[0])
                counts.rotate(-1)  # the retired zero opens the newest block
            rotating = True
            drained = counts[0]
            if lo == hi and not drained:
                s = e  # nothing to expire or insert in this span
                continue
            # de-amortized expiry: one pop per update while the oldest
            # block's records last; the pops are settled against its
            # count up front, the appends against the newest count at
            # the end of the span
            end = s + drained
            if end > e:
                end = e
            if end > s:
                counts[0] = drained - (end - s)
            base = len(fifo) + s - end  # the length once the pops are done
            popped = s
            while True:
                b = hi
                if popped < end:
                    if lo < hi and pos[lo] < end:
                        # this sample's own update pops before it inserts
                        target = pos[lo] + 1
                        b = lo + 1
                    else:
                        target = end
                    while popped < target:
                        old_id = popleft()
                        remaining = offsets[old_id] - 1
                        if remaining:
                            offsets[old_id] = remaining
                        else:
                            del offsets[old_id]
                        popped += 1
                if not counting:
                    # quantum 1: every Full update overflows, so y is
                    # left empty and each sample only writes its record
                    for item in items[lo:b]:
                        fifo.append(item)
                        offsets[item] = offsets_get(item, 0) + 1
                else:
                    for item in items[lo:b]:
                        # fused unit increment: successor-absorb, in-place
                        # bump, splice, or min-eviction
                        bucket = y_index_get(item)
                        if bucket is not None:
                            keys = bucket.keys
                            value = bucket.value + 1
                            node = bucket.next
                            if node is not None and node.value == value:
                                node.keys[item] = keys.pop(item)
                                y_index[item] = node
                                if not keys:
                                    prev_b = bucket.prev
                                    if prev_b is not None:
                                        prev_b.next = node
                                    else:
                                        y._head = node
                                    node.prev = prev_b
                            elif len(keys) == 1:
                                bucket.value = value
                            else:
                                fresh = _Bucket(value)
                                fresh.keys[item] = keys.pop(item)
                                fresh.prev, fresh.next = bucket, node
                                bucket.next = fresh
                                if node is not None:
                                    node.prev = fresh
                                y_index[item] = fresh
                        elif size < y_counters:
                            # a free counter: join or open the value-1 head
                            size += 1
                            value = 1
                            head = y._head
                            if head is not None and head.value == 1:
                                head.keys[item] = 0
                                y_index[item] = head
                            else:
                                fresh = _Bucket(1)
                                fresh.keys[item] = 0
                                fresh.next = head
                                if head is not None:
                                    head.prev = fresh
                                y._head = fresh
                                y_index[item] = fresh
                        else:
                            head = y._head
                            keys = head.keys
                            victim = next(iter(keys))
                            min_value = head.value
                            value = min_value + 1
                            node = head.next
                            del keys[victim]
                            del y_index[victim]
                            if node is not None and node.value == value:
                                node.keys[item] = min_value
                                y_index[item] = node
                                if not keys:
                                    y._head = node
                                    node.prev = None
                            elif not keys:
                                keys[item] = min_value
                                head.value = value
                                y_index[item] = head
                            else:
                                fresh = _Bucket(value)
                                fresh.keys[item] = min_value
                                fresh.prev, fresh.next = head, node
                                head.next = fresh
                                if node is not None:
                                    node.prev = fresh
                                y_index[item] = fresh
                        if value % quantum == 0:  # overflow
                            fifo.append(item)
                            offsets[item] = offsets_get(item, 0) + 1
                lo = b
                if b == hi and popped == end:
                    break
            appended = len(fifo) - base
            if appended:
                counts[-1] += appended
            s = e
        # the rotation update resets the countdown to block_size, and each
        # later update decrements it
        if rots:
            self._countdown = block_size - (n - 1 - rots[-1])
        else:
            self._countdown -= n
        if counting:
            y._size = size
            y._items = fresh_items + len(items) - fresh_lo
        self._blocks_into_frame = blocks
        self._updates += n
        self._full_updates += len(items)

    # ------------------------------------------------------------------
    # query path (Algorithm 1 lines 22-25)
    # ------------------------------------------------------------------
    def query_raw(self, item: Hashable) -> int:
        """Unscaled window estimate of the number of *sampled* occurrences.

        This is the paper's query before the ``1/tau`` scaling: an upper
        bound (in the WCSS sense) that includes the conservative ``+2``
        blocks.  Counts are in sampled units, so the block quantum is
        :attr:`sample_block` (equal to ``block_size`` when ``tau = 1``).
        At quantum 1 ``y`` stays empty, so a key absent from ``B``
        answers exactly ``2 * sample_block``: it had no sampled arrival
        this frame (see the module docstring).
        """
        blk = self.sample_block
        overflows = self._offsets.get(item)
        if overflows is not None:
            return blk * (overflows + 2) + (self._y.query(item) % blk)
        return 2 * blk + self._y.query(item)

    def query(self, item: Hashable) -> float:
        """Estimate of the window frequency ``f_x^W`` (conservative, scaled)."""
        return self._inv_tau * self.query_raw(item)

    def query_point(self, item: Hashable) -> float:
        """Midpoint (bias-removed) estimate of the window frequency.

        :meth:`query` keeps the paper's deliberate ``+2`` block shift, an
        upper bound whose bias grows as ``2·sample_block/tau`` after
        scaling.  Error metrics and threshold detection want the unbiased
        centre of the estimate interval instead, so this subtracts the
        shift before scaling (clamped at zero).
        """
        raw = self.query_raw(item) - 2 * self.sample_block
        if raw < 0:
            raw = 0
        return self._inv_tau * raw

    def query_lower_raw(self, item: Hashable) -> int:
        """Unscaled guaranteed part: ``raw - 4 blocks``, clamped at 0.

        ``query_raw`` overshoots the true sampled count by at most four
        blocks (the +2 shift, the truncated remainder, and the Space Saving
        in-frame error of one block); subtracting that yields a lower bound,
        used by the HHH conditioned-frequency computation (``f̂−``).
        """
        return max(0, self.query_raw(item) - 4 * self.sample_block)

    def query_lower(self, item: Hashable) -> float:
        """Scaled lower bound companion of :meth:`query`."""
        return self._inv_tau * self.query_lower_raw(item)

    def raw_estimates(self) -> Iterator[Tuple[Hashable, int]]:
        """``(key, query_raw(key))`` for every candidate, in one pass.

        Walks the overflow table ``B`` and then the flows monitored only in
        ``y``, so keys come in :meth:`candidates` order.  A flow in ``B``
        that a full Space Saving has evicted from ``y`` gets ``y``'s
        minimum counter as its in-frame part, exactly as ``y.query``
        answers it.
        """
        blk = self.sample_block
        y = self._y
        index = y._index
        floor = y.min_value
        offsets = self._offsets
        for key, overflows in offsets.items():
            bucket = index.get(key)
            count = floor if bucket is None else bucket.value
            yield key, blk * (overflows + 2) + count % blk
        for key, bucket in index.items():
            if key not in offsets:
                yield key, 2 * blk + bucket.value

    def estimates(self) -> Dict[Hashable, float]:
        """:meth:`query` of every candidate, from :meth:`raw_estimates`."""
        inv_tau = self._inv_tau
        return {key: inv_tau * raw for key, raw in self.raw_estimates()}

    def estimates_over(
        self, bar: float, *, slack: float = 0.0, inclusive: bool = False
    ) -> Dict[Hashable, float]:
        """The :meth:`estimates` entries whose estimate clears ``bar``.

        An estimate ``e`` clears the bar when ``e + slack > bar`` (``>=``
        with ``inclusive=True``), computed in floats exactly as a caller
        filtering :meth:`estimates` would.  The answer equals that filter
        down to the dict order, but only rows that can pass are visited:

        * ``B`` is read as one numpy column, and a row's exact estimate
          is computed only when its largest reachable raw value
          ``blk * (B[x] + 3) - 1`` clears the bar — the in-frame
          remainder is below ``blk``, and float rounding is monotone, so
          a row whose ceiling fails cannot pass;
        * flows monitored only in ``y`` have raw value ``2 * blk + v``,
          monotone in their counter ``v``, so ``y``'s value buckets are
          walked (not its keys), and only the buckets from the smallest
          passing counter up are read; ``y``'s keys are scanned, for
          their order, only when more than one y-only flow passes.
        """
        blk = self.sample_block
        inv_tau = self._inv_tau
        clears = operator.ge if inclusive else operator.gt
        y = self._y
        index = y._index
        offsets = self._offsets
        out: Dict[Hashable, float] = {}
        if offsets:
            column = np.fromiter(offsets.values(), np.int64, len(offsets))
            ceiling = inv_tau * (blk * (column + 3) - 1) + slack
            reachable = np.flatnonzero(clears(ceiling, bar)).tolist()
            keys = list(offsets)
            floor = y.min_value
            index_get = index.get
            for row in reachable:
                key = keys[row]
                overflows = offsets[key]
                bucket = index_get(key)
                count = floor if bucket is None else bucket.value
                est = inv_tau * (blk * (overflows + 2) + count % blk)
                if clears(est + slack, bar):
                    out[key] = est
        bucket = y._head
        while bucket is not None and not clears(
            inv_tau * (2 * blk + bucket.value) + slack, bar
        ):
            bucket = bucket.next
        fresh: Dict[Hashable, float] = {}  # passing y-only flows
        while bucket is not None:
            est = inv_tau * (2 * blk + bucket.value)
            for key in bucket.keys:
                if key not in offsets:
                    fresh[key] = est
            bucket = bucket.next
        if len(fresh) > 1:  # y's key order, not its bucket order
            fresh = {key: fresh[key] for key in index if key in fresh}
        out.update(fresh)
        return out

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Window heavy hitters: flows whose estimate exceeds ``theta * W``.

        Candidates are the flows with an overflow entry plus the flows
        currently monitored in the in-frame Space Saving instance; only
        the rows that can pass are visited (:meth:`estimates_over`).

        Detection floor: every flow with ``f > theta * W`` is guaranteed
        to be listed only for ``theta >= epsilon = 4/k`` (up to the
        sampling error when ``tau < 1``).  A heavy hitter must overflow
        within the window (Section 4.1) only when ``theta * W`` spans
        more than about two blocks; below that, a flow that never
        overflowed a block and then lost its ``y`` counter is in neither
        ``B`` nor ``y``, and is missing here although :meth:`query`
        still answers at least two blocks for it.
        """
        return self.estimates_over(theta * self.window)

    def candidates(self) -> Iterator[Hashable]:
        """All flows the sketch currently knows about (B ∪ y), deduplicated."""
        offsets = self._offsets
        yield from offsets
        for item in self._y._index:
            if item not in offsets:
                yield item

    def entries(self) -> List[Entry]:
        """Mergeable snapshot: ``(key, estimate, guaranteed)`` per candidate.

        Counts are in *raw sampled units* (no ``1/tau`` scaling), matching
        :meth:`query_raw` / :meth:`query_lower_raw`, so summing rows across
        same-``tau`` sketches stays meaningful; the merge layer applies
        the scaling once.  This is the window-sketch counterpart of
        ``SpaceSaving.entries``.
        """
        slack = 4 * self.sample_block
        return [
            (key, raw, max(0, raw - slack))
            for key, raw in self.raw_estimates()
        ]

    def windowed_entries(self) -> WindowedEntries:
        """The :meth:`entries` snapshot annotated with window geometry.

        Carries the effective window, the current frame offset, ``tau``,
        and the overflow quantum — everything
        :func:`repro.core.merge.merge_memento` needs to check alignment
        and to propagate the combined error bound.
        """
        return WindowedEntries(
            entries=tuple(self.entries()),
            window=self.effective_window,
            frame_offset=self.frame_position,
            tau=self.tau,
            quantum=self.sample_block,
            nominal_window=self.window,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Stream packets processed (window + full updates)."""
        return self._updates

    @property
    def full_updates(self) -> int:
        """How many packets received a Full update (≈ ``tau * updates``)."""
        return self._full_updates

    @property
    def frame_position(self) -> int:
        """Current offset within the frame (Algorithm 1's ``M``)."""
        return (
            self._blocks_into_frame * self.block_size
            + (self.block_size - self._countdown)
        ) % self.effective_window

    @property
    def overflow_entries(self) -> int:
        """Number of flows currently holding overflow records."""
        return len(self._offsets)

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Adopt a pickled state, folding the earlier block-queue layout.

        Checkpoints written before the FIFO layout hold ``k + 1`` block
        deques (``_queues``, with ``_drain``/``_newest`` aliasing its
        ends); laid end to end they are the FIFO, and their lengths are
        the per-block counts.
        """
        if "_queues" in state:
            state = dict(state)
            queues = state.pop("_queues")
            state.pop("_drain", None)
            state.pop("_newest", None)
            state["_fifo"] = deque(chain.from_iterable(queues))
            state["_counts"] = deque(map(len, queues))
        # interned names, as pickle's default restore leaves them, so a
        # restored sketch pickles to the same bytes as the live one
        self.__dict__.update(
            (sys.intern(key), value) for key, value in state.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(window={self.window}, k={self.k}, "
            f"tau={self.tau}, effective_window={self.effective_window})"
        )


class WCSS(Memento):
    """Window Compact Space Saving — Memento with ``tau = 1``.

    The paper evaluates WCSS as "our Memento implementation without sampling
    (τ = 1)" (Section 6); this class pins that configuration and keeps the
    historical name available to downstream users.
    """

    def __init__(
        self,
        window: int,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> None:
        # seeded so equal instances pickle to equal bytes (tau = 1
        # never draws from the sampler)
        super().__init__(
            window, counters=counters, epsilon=epsilon, tau=1.0, seed=0
        )
