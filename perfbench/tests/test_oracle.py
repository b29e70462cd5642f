"""The correctness checks reject wrong answers."""

from __future__ import annotations

import numpy as np

from perfbench.common import Metrics, latency_summary
from perfbench.oracle import grade_heavy_hitters, missed_fraction, same_answers

EXACT = {"big": 500, "mid": 300, "edge": 105, "small": 20}


def test_recall_rejects_a_missing_heavy_hitter():
    grade = grade_heavy_hitters({"big"}, EXACT, window=1000, theta=0.1, envelope=50)
    assert not grade.ok
    assert grade.missing == ["mid"]
    assert grade.recall == 0.5
    m = Metrics()
    m.check("hh_recall reaches the oracle bound", grade.ok, grade.detail())
    assert not m.correct and m.failed == 1


def test_recall_accepts_the_right_answer_and_grades_precision():
    # "edge" sits inside the envelope: neither required nor spurious
    grade = grade_heavy_hitters({"big", "mid", "edge", "small"}, EXACT, 1000, 0.1, 50)
    assert grade.ok and grade.recall == 1.0
    assert grade.spurious == ["small"]
    assert grade.precision == 0.75


def test_same_answers_catches_a_changed_value_or_key():
    top = [(1, 10.0), (2, 5.0)]
    hh = {1: 10.0}
    assert same_answers((top, hh), (list(top), dict(hh)))[0]
    assert not same_answers((top, hh), ([(1, 10.0), (2, 6.0)], hh))[0]
    assert not same_answers((top, hh), (top, {1: 10.0, 3: 1.0}))[0]


def test_missed_fraction_counts_packets_before_detection():
    keys = np.array([7, 7, 1, 7, 7, 7], dtype=np.int64)
    seen = []

    def detect():
        return {7} if len(seen) >= 4 else set()

    frac = missed_fraction(keys, {7}, 2, lambda a, b: seen.extend(range(a, b)), detect)
    # detected after the second check (4 packets in): 3 of 5 target packets missed
    assert frac == 3 / 5


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    summary = latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["tail_pct"] == 95.0
    assert summary["samples"] == 200
    assert summary["tail_ms"] == 190.0
