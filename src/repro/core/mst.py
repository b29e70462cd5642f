"""MST-style hierarchical heavy hitters: one HH instance per prefix pattern.

MST (Mitzenmacher, Steinke, Thaler — ALENEX 2012) solves HHH by brute
force over the lattice: it keeps an independent heavy-hitter instance for
each of the ``H`` prefix patterns and updates *all* of them for every
packet — an Ω(H) update the paper identifies as too slow for line rates.

Two variants are provided, matching the paper's evaluation (Section 6):

* :class:`MST` — the original *interval* algorithm over Space Saving
  instances (the "Interval" line of Figure 8);
* :class:`WindowBaseline` — the paper's "Baseline": MST with the underlying
  instances replaced by WCSS (Memento with ``tau = 1``), the best previously
  known sliding-window HHH approach and the comparison target of Figure 6.

Both reuse the shared bottom-up output computation of
:mod:`repro.hierarchy.hhh_output` with no sampling correction (these
algorithms are deterministic).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from ..hierarchy.domain import Hierarchy
from ..hierarchy.hhh_output import compute_hhh
from .api import Entry
from .batching import BatchIngest, as_batch, regroup_by_pattern
from .memento import Memento
from .space_saving import SpaceSaving

__all__ = ["MST", "WindowBaseline"]


class MST(BatchIngest):
    """Interval HHH over per-pattern Space Saving instances.

    Parameters
    ----------
    hierarchy:
        The prefix lattice (``H`` patterns).
    counters:
        Counters *per instance*; the paper's "64H" configuration is
        ``counters = 64`` here (``64 · H`` in total).  Exactly one of
        ``counters`` / ``epsilon`` must be given.
    epsilon:
        Per-instance error; translated to ``counters = ceil(1 / epsilon)``
        (Space Saving's ``n/m`` bound).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> None:
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            if not 0.0 < epsilon < 1.0:
                raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
            counters = math.ceil(1.0 / epsilon)
        self.hierarchy = hierarchy
        self.counters = int(counters)
        self._instances: List[SpaceSaving] = [
            SpaceSaving(self.counters) for _ in range(hierarchy.num_patterns)
        ]
        self._packets = 0

    def update(self, packet) -> None:
        """Feed all ``H`` generalizations to their instances (Ω(H) work)."""
        self._packets += 1
        instances = self._instances
        for idx, prefix in enumerate(self.hierarchy.all_prefixes(packet)):
            instances[idx].add(prefix)

    def update_many(self, packets: Sequence) -> None:
        """Batch update: regroup the batch per pattern, then feed each
        instance its prefix stream through ``SpaceSaving.update_many``.

        The per-pattern instances are independent, so reordering work
        *across* patterns (while preserving order *within* each) leaves
        every instance byte-identical to the scalar loop.
        """
        packets = as_batch(packets)
        self._packets += len(packets)
        per_pattern = regroup_by_pattern(
            self.hierarchy, packets, len(self._instances)
        )
        for instance, prefixes in zip(self._instances, per_pattern):
            if prefixes:
                instance.update_many(prefixes)

    def query(self, prefix) -> float:
        """Upper-bound estimate of the prefix count since the last reset."""
        return float(
            self._instances[self.hierarchy.pattern_index(prefix)].query(prefix)
        )

    def query_lower(self, prefix) -> float:
        """Guaranteed count of the prefix since the last reset."""
        return float(
            self._instances[self.hierarchy.pattern_index(prefix)].lower_bound(
                prefix
            )
        )

    def query_point(self, prefix) -> float:
        """Point estimate — Space Saving carries no deliberate shift."""
        return self.query(prefix)

    def candidates(self) -> Iterable:
        """All prefixes currently monitored by any instance."""
        for instance in self._instances:
            for prefix, _ in instance.items():
                yield prefix

    def entries(self) -> List[Entry]:
        """Flat mergeable snapshot across all pattern instances.

        Prefixes are unique to their pattern, so concatenating the
        per-instance snapshots loses nothing; :func:`merge_mst` remains
        the lattice-aware merge when instance structure matters.
        """
        out: List[Entry] = []
        for instance in self._instances:
            out.extend(instance.entries())
        return out

    def output(self, theta: float) -> Set:
        """Approximate HHH set over the packets since the last reset."""
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        return compute_hhh(
            self.hierarchy,
            list(self.candidates()),
            upper=self.query,
            lower=self.query_lower,
            threshold_count=theta * max(1, self._packets),
            correction=0.0,
        )

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Raw per-prefix estimates above ``theta * N`` (no conditioning)."""
        bar = theta * max(1, self._packets)
        return {
            p: est
            for p in self.candidates()
            if (est := self.query(p)) > bar
        }

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Uniform :class:`~repro.core.api.QueryableSketch` surface:
        same enumeration as :meth:`heavy_prefixes` (keys are prefixes)."""
        return self.heavy_prefixes(theta)

    def reset(self) -> None:
        """Start a new measurement interval (flush every instance)."""
        for instance in self._instances:
            instance.flush()
        self._packets = 0

    @property
    def packets(self) -> int:
        """Packets processed since the last reset."""
        return self._packets


class WindowBaseline(BatchIngest):
    """The paper's Baseline: MST with WCSS (sliding-window) instances.

    Every packet performs ``H`` Full updates — one per pattern — so the
    update cost is Ω(H) times a full WCSS update, which is exactly the gap
    H-Memento closes (Figure 6 reports up to 273× speedup in 2-D).

    Parameters mirror :class:`MST`, except counters follow the Memento
    convention (``ceil(4/epsilon)`` per instance).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        window: int,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> None:
        self.hierarchy = hierarchy
        # tau = 1 never draws a coin, but an unseeded sampler still
        # carries OS entropy into the pickle: seed each instance so equal
        # baselines pickle (and checkpoint) to equal bytes
        self._instances: List[Memento] = [
            Memento(
                window, counters=counters, epsilon=epsilon, tau=1.0, seed=index
            )
            for index in range(hierarchy.num_patterns)
        ]
        self.window = self._instances[0].window
        self.counters = self._instances[0].k
        self._packets = 0

    def update(self, packet) -> None:
        """Perform a Full update on every pattern's window instance."""
        self._packets += 1
        instances = self._instances
        for idx, prefix in enumerate(self.hierarchy.all_prefixes(packet)):
            instances[idx].full_update(prefix)

    def update_many(self, packets: Sequence) -> None:
        """Batch update: per-pattern regrouping over ``full_update_many``.

        As with :meth:`MST.update_many`, the window instances are
        independent, so each receives its in-order prefix stream through
        the hoisted Memento block path.
        """
        packets = as_batch(packets)
        self._packets += len(packets)
        per_pattern = regroup_by_pattern(
            self.hierarchy, packets, len(self._instances)
        )
        for instance, prefixes in zip(self._instances, per_pattern):
            if prefixes:
                instance.full_update_many(prefixes)

    def query(self, prefix) -> float:
        """Upper-bound window frequency estimate for ``prefix``."""
        return float(
            self._instances[self.hierarchy.pattern_index(prefix)].query_raw(
                prefix
            )
        )

    def query_lower(self, prefix) -> float:
        """Lower-bound window frequency estimate for ``prefix``."""
        idx = self.hierarchy.pattern_index(prefix)
        return float(self._instances[idx].query_lower_raw(prefix))

    def query_point(self, prefix) -> float:
        """Midpoint estimate (the underlying WCSS shift removed)."""
        idx = self.hierarchy.pattern_index(prefix)
        return self._instances[idx].query_point(prefix)

    def candidates(self) -> Iterable:
        """All prefixes known to any of the window instances."""
        for instance in self._instances:
            yield from instance.candidates()

    def entries(self) -> List[Entry]:
        """Flat mergeable snapshot across the per-pattern WCSS instances
        (raw sampled units, as in ``Memento.entries``)."""
        out: List[Entry] = []
        for instance in self._instances:
            out.extend(instance.entries())
        return out

    def output(self, theta: float) -> Set:
        """Approximate window HHH set for threshold ``theta``."""
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        return compute_hhh(
            self.hierarchy,
            list(self.candidates()),
            upper=self.query,
            lower=self.query_lower,
            threshold_count=theta * self.window,
            correction=0.0,
        )

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Raw per-prefix estimates above ``theta * W`` (no conditioning)."""
        bar = theta * self.window
        return {
            p: est
            for p in self.candidates()
            if (est := self.query(p)) > bar
        }

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Uniform :class:`~repro.core.api.QueryableSketch` surface:
        same enumeration as :meth:`heavy_prefixes` (keys are prefixes)."""
        return self.heavy_prefixes(theta)

    @property
    def packets(self) -> int:
        """Total packets processed."""
        return self._packets
