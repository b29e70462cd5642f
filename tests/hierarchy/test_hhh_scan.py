"""Differential tests of the incremental HHH scan.

``compute_hhh`` keeps ``G(a|P)`` per candidate and updates it as prefixes
are selected.  The reference below is the direct transcription of
Algorithms 2-4: every candidate recomputes ``G(p|P)`` from the whole
selected set (``best_generalized`` inside ``calc_pred_1d``/``calc_pred_2d``).
The estimators are integer-valued, so the order in which either scan sums
them cannot change a comparison, and the two must select the same set.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import SRC_DST_HIERARCHY, SRC_HIERARCHY, HMemento, compute_hhh
from repro.hierarchy.hhh_output import calc_pred_1d, calc_pred_2d, group_by_depth


def reference_hhh(hierarchy, candidates, upper, lower, threshold_count, correction=0.0):
    calc_pred = calc_pred_2d if hierarchy.dimensions == 2 else calc_pred_1d
    levels = group_by_depth(hierarchy, candidates)
    selected = set()
    for depth in hierarchy.levels():
        for prefix in levels.get(depth, ()):
            if prefix in selected:
                continue
            conditioned = upper(prefix) + calc_pred(
                hierarchy, prefix, selected, lower, upper
            )
            if conditioned + correction >= threshold_count:
                selected.add(prefix)
    return selected


def random_packet(rng: random.Random, dimensions: int):
    """Addresses from a small byte alphabet, so prefixes share ancestors."""

    def address():
        return int.from_bytes(bytes(rng.choice((1, 2, 3)) for _ in range(4)), "big")

    return address() if dimensions == 1 else (address(), address())


def random_instance(seed: int, hierarchy, packets: int):
    """Candidates (with repeats) and integer estimators ``lower <= upper``."""
    rng = random.Random(seed)
    pool = []
    for _ in range(packets):
        pool.extend(hierarchy.all_prefixes(random_packet(rng, hierarchy.dimensions)))
    candidates = [p for p in pool if rng.random() < 0.6]
    upper_counts = {}
    lower_counts = {}
    for prefix in pool:
        if prefix not in upper_counts:
            high = rng.randint(0, 60 * (hierarchy.depth(prefix) + 1))
            upper_counts[prefix] = high
            lower_counts[prefix] = max(0, high - rng.randint(0, 20))
    return (
        candidates,
        lambda p: upper_counts.get(p, 0),
        lambda p: lower_counts.get(p, 0),
    )


def sweep(candidates, upper):
    """Thresholds from above every estimate down to below zero."""
    top = max(upper(p) for p in candidates)
    return [top + 1, top, top // 2, top // 4, top // 8, 10, 1, 0, -1]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "hierarchy, packets",
    [(SRC_HIERARCHY, 40), (SRC_DST_HIERARCHY, 8)],
    ids=["1d", "2d"],
)
def test_scan_matches_reference(seed, hierarchy, packets):
    candidates, upper, lower = random_instance(seed, hierarchy, packets)
    distinct = set(candidates)
    # above the threshold by more than any prefix can be conditioned away
    slack = sum(lower(p) for p in distinct) + 1
    sizes = []
    for threshold in sweep(candidates, upper):
        for correction in (0, 7, threshold + 50, abs(threshold) + slack):
            got = compute_hhh(hierarchy, candidates, upper, lower, threshold, correction)
            want = reference_hhh(hierarchy, candidates, upper, lower, threshold, correction)
            assert got == want, (threshold, correction)
            sizes.append(len(got))
    # the sweep spans nearly-empty to all-selected outputs
    assert min(sizes) <= 3
    assert max(sizes) == len(distinct)


@pytest.mark.parametrize("seed", range(6))
def test_1d_estimator_call_counts(seed):
    candidates, upper, lower = random_instance(seed, SRC_HIERARCHY, 60)
    for threshold in sweep(candidates, upper):
        upper_calls, lower_calls = Counter(), Counter()

        def counted_upper(p):
            upper_calls[p] += 1
            return upper(p)

        def counted_lower(p):
            lower_calls[p] += 1
            return lower(p)

        selected = compute_hhh(
            SRC_HIERARCHY, candidates, counted_upper, counted_lower, threshold
        )
        assert upper_calls == Counter(set(candidates))
        assert lower_calls == Counter(selected)


def test_hmemento_output_when_correction_exceeds_threshold():
    """θ below correction/W selects (nearly) every candidate; the scan that
    used to go quadratic there must still agree with the reference."""
    sketch = HMemento(
        window=2000, hierarchy=SRC_HIERARCHY, counters=256, tau=0.25, seed=5
    )
    rng = random.Random(5)
    sketch.update_many([rng.getrandbits(32) for _ in range(6000)])
    theta = 0.05
    assert sketch.sampling_correction() > theta * sketch.window
    candidates = list(sketch.candidates())
    want = reference_hhh(
        SRC_HIERARCHY,
        candidates,
        sketch.query,
        sketch.query_lower,
        theta * sketch.window,
        sketch.sampling_correction(),
    )
    got = sketch.output(theta)
    assert got == want
    assert len(got) == len(candidates)
