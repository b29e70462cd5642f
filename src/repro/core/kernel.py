"""The columnar ingestion kernel: decision arrays → compact ingest plans.

The batch engine (PR 1) removed per-packet method calls; this kernel
removes per-packet *objects*.  A chunk of packets plus a boolean decision
column (from ``sampler.decision_array`` — see :mod:`repro.core.sampling`)
is compiled into an :class:`IngestPlan`:

* the **selected positions** (``np.flatnonzero`` on the decision column)
  and the selected items, in stream order;
* the **gap run-lengths** between selections (one ``np.diff``), so a
  windowed sketch advances over unselected stretches with O(1) counter
  arithmetic per run instead of touching each packet;
* **segments** — maximal runs of *consecutive* selected positions
  (gap, then a contiguous batch), the unit of the generic
  :meth:`~repro.core.batching.BatchIngest.ingest_plan` replay.

:func:`collapse_run_arrays` collapses consecutive *equal* keys to
``(key, count)`` columns, so Space Saving applies one count-weighted
update instead of ``count`` identical unit increments.  Only adjacent
duplicates collapse: reordering across distinct keys would change
eviction decisions, so run-collapsed feeding stays byte-identical to
unit feeding (the differential tests pin this).

Plans are consumed by ``ingest_plan`` on the sketches (see
:class:`repro.core.batching.BatchIngest` for the generic fallback):
the Memento family turns them into full updates + gap advances, Space
Saving into weighted increments, the exact window oracle into counted
slots + blank slides.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "IngestPlan",
    "make_plan",
    "dense_plan",
    "plan_from_positions",
    "collapse_run_arrays",
]


def collapse_run_arrays(
    items: Sequence,
) -> Optional[Tuple[List[int], List[int]]]:
    """Vectorized adjacent-duplicate collapse of an integer batch.

    Returns ``(keys, counts)`` lists (keys as plain Python ints), or
    ``None`` when ``items`` is empty or not a vectorizable integer
    batch — callers fall back to unit feeding.  This is the single home
    of the collapse arithmetic; ``SpaceSaving.ingest_plan`` builds on
    it.
    """
    n = len(items)
    if n == 0 or type(items[0]) is not int:
        return None
    try:
        arr = np.asarray(items)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "iu":
        return None
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(arr[1:], arr[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    counts = np.empty(idx.size, dtype=np.int64)
    counts[:-1] = idx[1:] - idx[:-1]
    counts[-1] = n - idx[-1]
    return arr[idx].tolist(), counts.tolist()


class IngestPlan:
    """A compiled chunk: which packets were selected, and the gaps between.

    ``n`` is the number of stream packets the plan covers; ``positions``
    holds the selected indices (ascending ``int64``), ``items`` the
    selected packets in the same order.  A *dense* plan (every position
    selected) skips the positional machinery entirely — ``positions`` is
    ``None`` and consumers take their contiguous fast path.

    Derived columns are computed lazily and cached, so a consumer pays
    only for the view it uses:

    * :meth:`gaps` / :attr:`tail_gap` — unselected run-length before each
      selected item, and after the last one;
    * :meth:`segments` — ``(gap, items)`` per maximal run of consecutive
      positions.
    """

    __slots__ = ("n", "positions", "items", "_gaps", "_segments")

    def __init__(
        self,
        n: int,
        positions: Optional[np.ndarray],
        items: Sequence,
    ) -> None:
        if n < 0:
            raise ValueError(f"plan length must be non-negative, got {n}")
        if positions is not None and len(items) != positions.size:
            raise ValueError(
                f"{len(items)} items for {positions.size} selected positions"
            )
        if positions is None and len(items) != n:
            raise ValueError(
                f"dense plan needs {n} items, got {len(items)}"
            )
        self.n = int(n)
        self.positions = positions
        self.items = items
        self._gaps: Optional[np.ndarray] = None
        self._segments: Optional[List[Tuple[int, list]]] = None

    @property
    def dense(self) -> bool:
        """True when every covered position is selected (no gaps)."""
        return self.positions is None

    @property
    def selected(self) -> int:
        """Number of selected packets."""
        return len(self.items)

    def gaps(self) -> np.ndarray:
        """Unselected run-length immediately before each selected item."""
        if self._gaps is None:
            if self.positions is None:
                self._gaps = np.zeros(len(self.items), dtype=np.int64)
            else:
                self._gaps = np.diff(self.positions, prepend=-1) - 1
        return self._gaps

    @property
    def tail_gap(self) -> int:
        """Unselected packets after the last selected one (``n`` if none)."""
        if self.positions is None:
            return 0
        if self.positions.size == 0:
            return self.n
        return self.n - 1 - int(self.positions[-1])

    def segments(self) -> List[Tuple[int, list]]:
        """``(lead gap, contiguous items)`` per run of consecutive positions.

        The generic plan replay's unit of work: advance the window by
        the gap, then feed the contiguous slice through one batched call.
        A dense plan is a single segment with no gap.
        """
        if self._segments is None:
            items = self.items
            if self.positions is None:
                self._segments = (
                    [(0, list(items))] if len(items) else []
                )
            elif self.positions.size == 0:
                self._segments = []
            else:
                positions = self.positions
                # boundaries where the selected positions stop being
                # consecutive; one slice per contiguous stretch
                breaks = np.flatnonzero(positions[1:] != positions[:-1] + 1) + 1
                starts = np.empty(breaks.size + 1, dtype=np.int64)
                starts[0] = 0
                starts[1:] = breaks
                ends = np.empty(starts.size, dtype=np.int64)
                ends[:-1] = breaks
                ends[-1] = positions.size
                segments: List[Tuple[int, list]] = []
                prev_end = -1
                for s, e in zip(starts.tolist(), ends.tolist()):
                    gap = int(positions[s]) - prev_end - 1
                    segments.append((gap, list(items[s:e])))
                    prev_end = int(positions[e - 1])
                self._segments = segments
        return self._segments

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"IngestPlan(n={self.n}, selected={self.selected}, "
            f"dense={self.dense})"
        )


def make_plan(items: Sequence, decisions: Optional[np.ndarray]) -> IngestPlan:
    """Compile a chunk and its decision column into an :class:`IngestPlan`.

    ``decisions`` is the boolean column from ``sampler.decision_array``
    (``None`` means every packet is selected → a dense plan).  The
    selected positions come from one ``np.flatnonzero``.  A numpy
    ``items`` column is gathered with one fancy index and ``tolist()``,
    so only the selected keys are boxed, as Python scalars; any other
    sequence is gathered with a list comprehension because packets may
    be arbitrary hashables.  A dense result keeps ``items`` as given.
    """
    n = len(items)
    if decisions is None:
        return IngestPlan(n, None, items)
    decisions = np.asarray(decisions, dtype=bool)
    if decisions.size != n:
        raise ValueError(
            f"{decisions.size} decisions for a {n}-packet chunk"
        )
    positions = np.flatnonzero(decisions)
    if positions.size == n:
        return IngestPlan(n, None, items)
    if isinstance(items, np.ndarray):
        selected = items[positions].tolist()
    else:
        selected = [items[i] for i in positions.tolist()]
    return IngestPlan(n, positions, selected)


def dense_plan(items: Sequence) -> IngestPlan:
    """A plan selecting every packet of ``items`` (no gaps)."""
    return IngestPlan(len(items), None, items)


def plan_from_positions(
    items: Sequence, positions: np.ndarray, n: int
) -> IngestPlan:
    """Wrap already-extracted ``items`` at ``positions`` within an
    ``n``-packet stream slice (the sharding layer's per-shard view)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == n:
        return IngestPlan(n, None, items)
    return IngestPlan(n, positions, items)
