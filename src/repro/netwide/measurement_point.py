"""Client-side measurement points (the paper's load-balancer agents).

Each measurement point observes a share of the global packet stream and
reports to the controller under one of the three communication methods of
Section 4.3:

* :class:`SamplingPoint` — the **Sample** and **Batch** methods: sample
  packets with probability ``tau``, emit a report every ``batch_size``
  samples (``batch_size = 1`` is the Sample method).  Every report also
  carries how many packets it covers, so the controller can advance its
  window for the unsampled ones.
* :class:`AggregatingPoint` — the idealized **Aggregation** baseline: exact
  per-key counting with unlimited state and lossless merging.  A report
  (the full delta since the previous one) is emitted as soon as the
  accumulated bandwidth allowance (``B`` bytes per observed packet) pays
  for it — large messages therefore ship rarely, which is precisely the
  delay weakness the paper demonstrates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..core.sampling import draw_decision_array, make_sampler
from ..hierarchy.domain import Hierarchy
from .messages import AggregateReport, BatchReport

__all__ = ["SamplingPoint", "AggregatingPoint"]


class SamplingPoint:
    """Sample/Batch measurement point.

    Parameters
    ----------
    point_id:
        Identifier carried in reports.
    tau:
        Packet sampling probability (derived from the budget via
        :meth:`repro.netwide.budget.BudgetModel.tau`).
    batch_size:
        Samples per report (``1`` = the paper's Sample method).
    header / payload:
        Byte-accounting constants ``O`` and ``E``.
    sampler / seed:
        Sampling implementation (see :mod:`repro.core.sampling`).
    """

    def __init__(
        self,
        point_id: int,
        tau: float,
        batch_size: int = 1,
        header: int = 64,
        payload: int = 4,
        sampler: object = "bernoulli",
        seed: Optional[int] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.point_id = int(point_id)
        self.tau = float(tau)
        self.batch_size = int(batch_size)
        self.header = int(header)
        self.payload = int(payload)
        if isinstance(sampler, str):
            # salted: see the matching note in repro.core.memento
            sampler_seed = None if seed is None else seed + 0x27D4EB2F
            self._sampler = make_sampler(self.tau, method=sampler, seed=sampler_seed)
        else:
            self._sampler = sampler
        self._samples: List[Hashable] = []
        self._covered = 0
        self.packets_seen = 0
        self.reports_sent = 0
        self.bytes_sent = 0

    def observe(self, packet: Hashable) -> Optional[BatchReport]:
        """Process one packet; return a report when the batch fills."""
        self.packets_seen += 1
        self._covered += 1
        if self._sampler.should_sample():
            self._samples.append(packet)
            if len(self._samples) == self.batch_size:
                return self._emit()
        return None

    def observe_many(self, packets: Sequence[Hashable]) -> List[BatchReport]:
        """Process a batch of packets; return every report that filled.

        State after ``observe_many(packets)`` is identical to calling
        :meth:`observe` per packet under the same seed: sampling decisions
        are pre-drawn as one decision column, the sampled packets are
        picked in one pass, and each report takes a slice of them — the
        one that fills it covers the batch up to its last sample.
        """
        if not isinstance(packets, (list, tuple)):
            packets = list(packets)
        n = len(packets)
        if n == 0:
            return []
        positions = np.flatnonzero(draw_decision_array(self._sampler, n)).tolist()
        picked = list(map(packets.__getitem__, positions))
        reports: List[BatchReport] = []
        lo = 0
        hi = self.batch_size - len(self._samples)  # the pending report fills here
        consumed = 0  # batch packets already folded into ``_covered``
        while hi <= len(picked):
            self._samples.extend(picked[lo:hi])
            end = positions[hi - 1] + 1
            self._covered += end - consumed
            consumed = end
            reports.append(self._emit())
            lo, hi = hi, hi + self.batch_size
        self._samples.extend(picked[lo:])
        self._covered += n - consumed
        self.packets_seen += n
        return reports

    def _emit(self) -> BatchReport:
        size = self.header + self.payload * len(self._samples)
        report = BatchReport(
            point_id=self.point_id,
            samples=tuple(self._samples),
            covered=self._covered,
            size_bytes=size,
        )
        self._samples = []
        self._covered = 0
        self.reports_sent += 1
        self.bytes_sent += size
        return report

    @property
    def pending_samples(self) -> int:
        """Samples waiting for the batch to fill."""
        return len(self._samples)

    @property
    def pending_covered(self) -> int:
        """Packets observed since the last emitted report."""
        return self._covered


class AggregatingPoint:
    """Idealized aggregation point: exact delta counts, budget-paced sends.

    When a ``hierarchy`` is supplied every packet contributes all of its
    ``H`` generalizations to the delta (the point is conceptually running a
    full HHH algorithm whose entries are all transmitted); otherwise the
    packet key itself is counted.
    """

    def __init__(
        self,
        point_id: int,
        budget: float,
        header: int = 64,
        payload: int = 4,
        hierarchy: Optional[Hierarchy] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.point_id = int(point_id)
        self.budget = float(budget)
        self.header = int(header)
        self.payload = int(payload)
        self.hierarchy = hierarchy
        self.max_entries = max_entries
        self._entries: Dict[Hashable, int] = {}
        self._covered = 0
        self._allowance = 0.0
        self.packets_seen = 0
        self.reports_sent = 0
        self.bytes_sent = 0

    def observe(self, packet: Hashable) -> Optional[AggregateReport]:
        """Count one packet; emit the delta once the allowance covers it."""
        self.packets_seen += 1
        self._covered += 1
        self._allowance += self.budget
        entries = self._entries
        if self.hierarchy is None:
            entries[packet] = entries.get(packet, 0) + 1
        else:
            for prefix in self.hierarchy.all_prefixes(packet):
                entries[prefix] = entries.get(prefix, 0) + 1
        reported = len(entries)
        if self.max_entries is not None and reported > self.max_entries:
            reported = self.max_entries
        size = self.header + self.payload * reported
        if self._allowance >= size:
            return self._emit(size)
        return None

    def observe_many(self, packets: Sequence[Hashable]) -> List[AggregateReport]:
        """Batch counterpart of :meth:`observe` (uniform point interface).

        Aggregation accrues its byte allowance per packet and may emit at
        any arrival, so the loop stays scalar — this baseline is the slow
        path the paper argues against, not a hot path worth inlining.
        """
        observe = self.observe
        reports = []
        for packet in packets:
            report = observe(packet)
            if report is not None:
                reports.append(report)
        return reports

    def _emit(self, size: int) -> AggregateReport:
        entries = self._entries
        if self.max_entries is not None and len(entries) > self.max_entries:
            # a real HH algorithm holds a bounded number of counters; keep
            # the heaviest entries and drop the tail (still lossless at the
            # controller — the cap mirrors the paper's "all the entries of
            # its HH algorithm", not of an exact counter)
            kept = sorted(entries.items(), key=lambda kv: kv[1], reverse=True)
            entries = dict(kept[: self.max_entries])
        report = AggregateReport(
            point_id=self.point_id,
            entries=dict(entries),
            covered=self._covered,
            size_bytes=size,
        )
        self._entries = {}
        self._covered = 0
        self._allowance -= size
        self.reports_sent += 1
        self.bytes_sent += size
        return report

    @property
    def pending_entries(self) -> int:
        """Distinct keys accumulated since the last report."""
        return len(self._entries)

    @property
    def pending_covered(self) -> int:
        """Packets observed since the last emitted report."""
        return self._covered
