"""Controller-side algorithms: D-Memento, D-H-Memento, and Aggregation.

The controller forms the network-wide sliding window — the last ``W``
packets measured *anywhere* in the network (Section 4.3).  Two controller
types exist:

* :class:`SketchController` — the Sample/Batch path.  It hosts a Memento
  (D-Memento) or H-Memento (D-H-Memento) instance configured with the
  transport sampling rate ``tau``.  For every received report it performs a
  Full update per sampled packet and Window updates for the covered-but-
  unsampled remainder, exactly as Section 4.3 prescribes; a call with many
  reports compiles them into one sampled plan.
* :class:`AggregationController` — the idealized merge baseline: it retains
  every reported delta with its arrival time and answers queries by summing
  deltas that arrived within the last ``W`` global packets.  Space is
  unlimited and merging lossless, so all of its error comes from reporting
  delay — making it the strongest possible representative of aggregation
  techniques (Section 4.3: "thus, we conclusively demonstrate that they
  are superior to any aggregation technique").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..core.kernel import plan_from_positions
from ..hierarchy.domain import Hierarchy
from ..hierarchy.hhh_output import compute_hhh
from .messages import AggregateReport, BatchReport

__all__ = ["SketchController", "AggregationController"]


def _checked_gap(report: BatchReport) -> int:
    """The report's unsampled remainder; a negative one is malformed."""
    gap = report.covered - len(report.samples)
    if gap < 0:
        raise ValueError(
            f"malformed report: covers {report.covered} packets but "
            f"carries {len(report.samples)} samples"
        )
    return gap


class SketchController:
    """D-Memento / D-H-Memento controller over Sample or Batch reports.

    Parameters
    ----------
    algorithm:
        A :class:`repro.core.memento.Memento` (D-Memento) or
        :class:`repro.core.h_memento.HMemento` (D-H-Memento) instance whose
        ``tau`` equals the transport sampling rate, so that its query-time
        scaling compensates for the points' sampling.
    """

    def __init__(self, algorithm) -> None:
        self.algorithm = algorithm
        self.reports_received = 0
        self.samples_ingested = 0
        self.packets_covered = 0

    def receive(self, report: BatchReport) -> None:
        """Apply one report: Full updates for samples, Window for the rest.

        The per-report reference of :meth:`receive_many`: the samples
        take the first ``len(samples)`` positions of the report's
        ``covered`` span and the rest is gap.
        """
        samples = report.samples
        gap = _checked_gap(report)
        if samples:
            self.algorithm.ingest_samples(samples)
        if gap > 0:
            self.algorithm.ingest_gap(gap)
        self.reports_received += 1
        self.samples_ingested += len(samples)
        self.packets_covered += report.covered

    def receive_many(self, reports: Iterable[BatchReport]) -> None:
        """Apply a sequence of reports in arrival order, as one plan.

        The reports compile into one positioned sampled plan — each
        report's samples at the first ``len(samples)`` positions of its
        ``covered`` span, the rest gap — fed through one
        ``ingest_plan(plan, sampled=True)`` call, so the state equals
        :meth:`receive` applied report by report.  Every report is
        validated before anything is applied: a malformed one raises
        :meth:`receive`'s ``ValueError`` and leaves the sketch untouched.
        """
        samples: List[Hashable] = []
        positions: List[int] = []
        total = 0
        received = 0
        for report in reports:
            _checked_gap(report)
            batch = report.samples
            positions.extend(range(total, total + len(batch)))
            samples.extend(batch)
            total += report.covered
            received += 1
        if total:
            self.algorithm.ingest_plan(
                plan_from_positions(samples, positions, total), sampled=True
            )
        self.reports_received += received
        self.samples_ingested += len(samples)
        self.packets_covered += total

    def query(self, key: Hashable) -> float:
        """Network-wide window frequency estimate for ``key``."""
        return self.algorithm.query(key)

    def query_point(self, key: Hashable) -> float:
        """Midpoint (bias-removed) estimate for error metrics / detection."""
        return self.algorithm.query_point(key)

    def candidates(self):
        """Keys/prefixes the controller sketch currently tracks."""
        return self.algorithm.candidates()

    def output(self, theta: float) -> Set:
        """HHH set (D-H-Memento) or heavy-hitter set keys (D-Memento)."""
        output = getattr(self.algorithm, "output", None)
        if output is not None:
            return output(theta)
        return set(self.algorithm.heavy_hitters(theta))

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Keys/prefixes whose plain frequency estimate exceeds ``theta·W``.

        This is the detection rule of the mitigation application
        (Section 6.3: "a subnet is rate-limited if its window frequency is
        above the threshold") — no conditioning, no coverage slack.
        """
        heavy_prefixes = getattr(self.algorithm, "heavy_prefixes", None)
        if heavy_prefixes is not None:
            return heavy_prefixes(theta)
        return self.algorithm.heavy_hitters(theta)

    def close(self) -> None:
        """Release the hosted algorithm's resources (idempotent).

        A sharded algorithm may hold executor workers; plain sketches
        have no ``close`` and nothing to release.  The controller owns the sketch it hosts, so system
        teardown routes through here.
        """
        close = getattr(self.algorithm, "close", None)
        if close is not None:
            close()


class AggregationController:
    """Idealized aggregation: lossless merge of exact deltas, delay-limited.

    Parameters
    ----------
    window:
        The network-wide window size ``W``.
    hierarchy:
        When present, reports carry per-prefix entries and :meth:`output`
        computes an HHH set; otherwise plain flow counts / heavy hitters.
    """

    def __init__(self, window: int, hierarchy: Optional[Hierarchy] = None) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        self.hierarchy = hierarchy
        # (arrival_time, entries) with arrival_time = global packet index
        self._reports: Deque[Tuple[int, Dict[Hashable, int]]] = deque()
        self._totals: Dict[Hashable, int] = {}
        self.reports_received = 0

    def receive(self, report: AggregateReport, now: int) -> None:
        """Merge one delta report that arrived at global packet ``now``."""
        self._reports.append((now, report.entries))
        totals = self._totals
        for key, count in report.entries.items():
            totals[key] = totals.get(key, 0) + count
        self.reports_received += 1
        self._evict(now)

    def advance(self, now: int) -> None:
        """Inform the controller of global time so stale reports expire."""
        self._evict(now)

    def _evict(self, now: int) -> None:
        horizon = now - self.window
        reports = self._reports
        totals = self._totals
        while reports and reports[0][0] <= horizon:
            _, entries = reports.popleft()
            for key, count in entries.items():
                remaining = totals[key] - count
                if remaining:
                    totals[key] = remaining
                else:
                    del totals[key]

    def query(self, key: Hashable) -> float:
        """Sum of retained delta counts for ``key``."""
        return float(self._totals.get(key, 0))

    def query_point(self, key: Hashable) -> float:
        """Same as :meth:`query` — aggregated counts carry no shift."""
        return float(self._totals.get(key, 0))

    def candidates(self) -> Iterable[Hashable]:
        """All keys present in retained reports."""
        return self._totals.keys()

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Keys whose retained count exceeds ``theta * W``."""
        bar = theta * self.window
        return {k: float(v) for k, v in self._totals.items() if v > bar}

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Alias of :meth:`heavy_hitters` (keys are prefixes in HHH mode)."""
        return self.heavy_hitters(theta)

    def output(self, theta: float) -> Set:
        """HHH set over the retained counts (requires a hierarchy)."""
        if self.hierarchy is None:
            return set(self.heavy_hitters(theta))
        return compute_hhh(
            self.hierarchy,
            list(self._totals.keys()),
            upper=self.query,
            lower=self.query,
            threshold_count=theta * self.window,
            correction=0.0,
        )

    def close(self) -> None:
        """Nothing to release (uniform controller lifecycle surface)."""

    @property
    def retained_reports(self) -> int:
        """Reports currently inside the window horizon."""
        return len(self._reports)
