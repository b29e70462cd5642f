"""Exact oracles and the checks every run makes against them.

Heavy-hitter answers are graded against an exact count of the final
window.  ``envelope`` is the error the sketch may make (its algorithmic
error plus a generous sampling term), so the check does not depend on
luck near the threshold:

* recall: every key whose exact count is at least ``theta*W + envelope``
  must be reported — the run fails otherwise;
* precision: the share of reported keys whose exact count is at least
  ``theta*W - envelope`` (reported, not gated).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Set, Tuple

import numpy as np

__all__ = [
    "HHGrade",
    "grade_heavy_hitters",
    "missed_fraction",
    "sampling_envelope",
    "same_answers",
]

#: standard deviations of sampling noise the envelope allows
Z = 4.0


def sampling_envelope(window: int, counters: int, theta: float, scale: float, shards: int = 1) -> float:
    """Error allowance in packets for a sampled sliding-window sketch.

    ``4W/k`` per shard is the algorithmic bound; ``scale`` is the
    estimate's per-sample multiplier (``1/tau``, or ``H/tau`` for
    H-Memento), whose binomial noise at a count of ``theta*W`` has
    standard deviation ``sqrt(theta*W*scale)``.
    """
    return shards * 4.0 * window / counters + Z * math.sqrt(theta * window * scale)


class HHGrade:
    """Recall/precision of one reported set against exact counts."""

    def __init__(
        self,
        reported: Iterable[Hashable],
        exact: Callable[[Hashable], float],
        must_report: Set[Hashable],
        floor: float,
    ) -> None:
        reported = set(reported)
        self.missing = sorted(must_report - reported, key=repr)
        self.spurious = sorted((k for k in reported if exact(k) < floor), key=repr)
        self.must = len(must_report)
        self.reported = len(reported)
        self.recall = 1.0 - len(self.missing) / self.must if self.must else 1.0
        self.precision = (
            1.0 - len(self.spurious) / self.reported if self.reported else 1.0
        )

    @property
    def ok(self) -> bool:
        return not self.missing

    def detail(self) -> str:
        return (
            f"recall {self.recall:.4f} over {self.must} keys "
            f"(missing {self.missing[:5]}), precision {self.precision:.4f} "
            f"over {self.reported} reported"
        )


def grade_heavy_hitters(
    reported: Iterable[Hashable],
    exact_counts: Dict[Hashable, int],
    window: int,
    theta: float,
    envelope: float,
) -> HHGrade:
    """Grade ``reported`` against ``exact_counts`` of the final window."""
    bar = theta * window
    must = {k for k, c in exact_counts.items() if c >= bar + envelope}
    return HHGrade(
        reported, lambda k: exact_counts.get(k, 0), must, bar - envelope
    )


def same_answers(
    left: Tuple[List, Dict], right: Tuple[List, Dict]
) -> Tuple[bool, str]:
    """Exact equality of two ``(top_k list, heavy_hitters dict)`` pairs."""
    (ltop, lhh), (rtop, rhh) = left, right
    ltop = [(k, float(v)) for k, v in ltop]
    rtop = [(k, float(v)) for k, v in rtop]
    if ltop != rtop:
        diff = [(a, b) for a, b in zip(ltop, rtop) if a != b][:3]
        return False, f"top_k differs: {diff} (lengths {len(ltop)}/{len(rtop)})"
    lhh = {k: float(v) for k, v in lhh.items()}
    rhh = {k: float(v) for k, v in rhh.items()}
    if lhh != rhh:
        only = sorted(set(lhh) ^ set(rhh), key=repr)[:5]
        return False, f"heavy_hitters differ: keys only on one side {only}"
    return True, f"{len(ltop)} top_k rows and {len(lhh)} heavy hitters equal"


def missed_fraction(
    keys: np.ndarray,
    targets: Set[int],
    check_every: int,
    ingest: Callable[[int, int], None],
    detect: Callable[[], Set[int]],
    counted: np.ndarray = None,
) -> float:
    """Share of the targets' packets that arrive before each target is
    first detected (the paper's Figure 10c quantity).

    ``keys[i]`` is the target key packet ``i`` belongs to; ``ingest(a, b)``
    feeds packets ``a..b-1`` to the system and ``detect()`` returns the
    keys it currently flags.  Detection is checked every ``check_every``
    packets, so the figure is a property of the algorithm and the input,
    not of how fast the machine ran.  ``counted`` masks the packets that
    count (the attack packets, on a flood); by default all do.
    """
    pending = np.array(sorted(targets), dtype=np.int64)
    if counted is None:
        counted = np.ones(keys.size, dtype=bool)
    total = int(np.count_nonzero(np.isin(keys, pending) & counted))
    if total == 0:
        raise ValueError("no target packets in the stream")
    missed = 0
    for start in range(0, keys.size, check_every):
        end = min(start + check_every, keys.size)
        ingest(start, end)
        if pending.size:
            chunk = keys[start:end]
            missed += int(np.count_nonzero(np.isin(chunk, pending) & counted[start:end]))
            found = detect() & set(pending.tolist())
            if found:
                pending = np.array(sorted(set(pending.tolist()) - found), dtype=np.int64)
    return missed / total
