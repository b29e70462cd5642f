"""Differential tests of the threshold enumerator.

``Memento.heavy_hitters``, ``HMemento.heavy_prefixes`` and the 1-D
``HMemento.output`` visit only the rows whose estimate can clear the bar
(``Memento.estimates_over``).  Each must answer exactly what a full
:meth:`~repro.core.memento.Memento.estimates` scan answers: the same keys,
the same float values, and the same dict order — and ``output`` the same
set as ``compute_hhh`` over every candidate.  The states cover both
``tau`` regimes, overflow quanta of 1 and above, a full evicting ``y``,
a non-full one and the empty one of quantum 1, flows held in ``B`` after
``y`` evicted them, the empty sketch, and thresholds that tie a present
estimate exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SRC_DST_HIERARCHY, SRC_HIERARCHY, HMemento, Memento, compute_hhh
from repro.engine import SketchSpec, build_engine

THETAS = (1e-4, 1e-3, 0.005, 0.02, 0.1, 0.3, 0.9)


def zipf_stream(n, distinct, seed, skew=1.1, drift=None):
    """Zipf keys; every ``drift`` packets the population moves to fresh
    keys, so flows that overflowed earlier sit in ``B`` but not in ``y``."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, distinct + 1) ** skew
    ranks = rng.choice(distinct, size=n, p=weights / weights.sum())
    if drift is not None:
        ranks = ranks + distinct * (np.arange(n) // drift)
    # scatter the ranks over the 32-bit space so prefixes differ
    return ((ranks * 2654435761 + 12345) % 2**32).tolist()


#: (id, Memento kwargs, stream length in windows, distinct keys, y state);
#: at overflow quantum 1 Memento leaves ``y`` empty, so the quantum-1 state
#: that once filled and evicted ``y`` now pins it empty, and the quanta
#: above 1 cover the eviction walk
MEMENTO_STATES = [
    ("tau1-q64-evicting", dict(window=4096, counters=64, tau=1.0), 2.5, 5000, "full"),
    ("tau1-q16-evicting", dict(window=4096, counters=256, tau=1.0), 2.5, 5000, "full"),
    ("tau1-q16-not-full", dict(window=4096, counters=256, tau=1.0), 2.2, 120, "not-full"),
    ("tau1-q1-not-full", dict(window=512, counters=512, tau=1.0), 3.3, 9000, "not-full"),
    (
        "tau0.0226-q1-evicting",
        dict(window=4096, counters=64, tau=0.0226),
        2.97,
        100_000,
        "empty",
    ),
    ("tau1/48-q1-not-full", dict(window=4096, counters=64, tau=1 / 48), 2.5, 5000, "not-full"),
    ("tau1/2-q32-evicting", dict(window=4096, counters=64, tau=0.5), 2.5, 5000, "full"),
    ("tau1/4-q4-evicting", dict(window=8192, counters=512, tau=0.25), 2.7, 5000, "full"),
    ("tau1/4-q4-not-full", dict(window=8192, counters=512, tau=0.25), 1.6, 300, "not-full"),
]


def build_memento(kwargs, windows, distinct, seed):
    sketch = Memento(seed=seed, **kwargs)
    window = kwargs["window"]
    sketch.update_many(
        zipf_stream(int(windows * window), distinct, seed, drift=window // 3)
    )
    return sketch


def reference_heavy(sketch, theta):
    bar = theta * sketch.window
    return {key: est for key, est in sketch.estimates().items() if est > bar}


def decoded(sketch, estimates):
    """Estimates of H-Memento's shared Memento (keyed by prefix code),
    keyed by prefix in the same order."""
    prefix_of = sketch.hierarchy.prefix_of
    return {prefix_of(code): est for code, est in estimates.items()}


def tie_thetas(estimates, window, correction=0.0, limit=4):
    """Thresholds ``theta`` with ``theta·W == e + correction`` exactly,
    for a few present estimates ``e``."""
    found = []
    for est in sorted(set(estimates.values())):
        bar = est + correction
        theta = bar / window
        if 0.0 < theta < 1.0 and theta * window == bar:
            found.append(theta)
    step = max(1, len(found) // limit)
    return found[::step]


def assert_same(answer, reference):
    assert list(answer.items()) == list(reference.items())


class TestMementoHeavyHitters:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize(
        "kwargs, windows, distinct, y_state",
        [state[1:] for state in MEMENTO_STATES],
        ids=[state[0] for state in MEMENTO_STATES],
    )
    def test_matches_the_full_scan(self, kwargs, windows, distinct, y_state, seed):
        sketch = build_memento(kwargs, windows, distinct, seed)
        y = sketch._y
        if y_state == "full":
            assert y.monitored == y.counters
            # flows that overflowed, then lost their counter in y
            assert any(key not in y for key in sketch._offsets)
        elif y_state == "empty":
            assert sketch.sample_block == 1 and sketch._offsets
            assert y.monitored == y.processed == 0
        else:
            assert y.monitored < y.counters
        thetas = (*THETAS, *tie_thetas(sketch.estimates(), sketch.window))
        assert len(thetas) > len(THETAS), "no exact tie found"
        for theta in thetas:
            assert_same(sketch.heavy_hitters(theta), reference_heavy(sketch, theta))

    def test_tie_is_excluded(self):
        kwargs, windows, distinct = MEMENTO_STATES[0][1:4]
        sketch = build_memento(kwargs, windows, distinct, 3)
        theta = tie_thetas(sketch.estimates(), sketch.window)[-1]
        tied = [k for k, e in sketch.estimates().items() if e == theta * sketch.window]
        assert tied and not set(tied) & set(sketch.heavy_hitters(theta))

    @pytest.mark.parametrize("tau", [1.0, 0.25])
    def test_empty_sketch(self, tau):
        sketch = Memento(window=1024, counters=32, tau=tau, seed=1)
        for theta in (0.0, 1e-4, 0.5):
            assert sketch.heavy_hitters(theta) == {}
        # a window of pure gap: B and y both empty again
        sketch.update_many(list(range(300)))
        sketch.ingest_gap(3 * sketch.effective_window)
        assert not sketch._offsets and not sketch._y.monitored
        assert sketch.heavy_hitters(1e-4) == {}

    def test_y_only_flows_keep_y_order(self):
        # a non-full y whose flows never overflow: every answer is y-only
        sketch = Memento(window=8192, counters=64, tau=1.0, seed=1)
        stream = [key for key in range(40) for _ in range(key % 7 + 1)]
        sketch.update_many(stream)
        assert not sketch._offsets
        answer = sketch.heavy_hitters(1e-6)
        assert len(answer) == 40
        assert_same(answer, reference_heavy(sketch, 1e-6))

    def test_estimates_over_inclusive_with_slack(self):
        kwargs, windows, distinct = MEMENTO_STATES[3][1:4]
        sketch = build_memento(kwargs, windows, distinct, 5)
        estimates = sketch.estimates()
        for slack in (0.0, 17.25, 400.0):
            for bar in (100.0, 1000.0, *tie_thetas(estimates, 1.0, slack)):
                expected = {k: e for k, e in estimates.items() if e + slack >= bar}
                assert_same(
                    sketch.estimates_over(bar, slack=slack, inclusive=True), expected
                )


#: (id, HMemento kwargs, stream length in windows)
HMEMENTO_STATES = [
    ("tau1", dict(window=4000, counters=400, tau=1.0), 2.3),
    ("tau1-q1", dict(window=2000, counters=2000, tau=1.0), 2.6),
    ("tau1/8-q1", dict(window=20000, counters=2500, tau=0.125), 2.2),
    ("tau1/2-small-k", dict(window=4000, counters=64, tau=0.5), 3.4),
]


def build_hmemento(kwargs, windows, seed, hierarchy=SRC_HIERARCHY):
    sketch = HMemento(hierarchy=hierarchy, seed=seed, **kwargs)
    keys = zipf_stream(int(windows * kwargs["window"]), 3000, seed, skew=1.2)
    if hierarchy.dimensions == 2:
        keys = list(zip(keys, reversed(keys)))
    sketch.update_many(keys)
    return sketch


def reference_output(sketch, theta, conservative):
    """``compute_hhh`` over every candidate, as the full scan runs it."""
    estimates = decoded(sketch, sketch._memento.estimates())

    def upper(prefix):
        est = estimates.get(prefix)
        return sketch.query(prefix) if est is None else est

    return compute_hhh(
        sketch.hierarchy,
        list(estimates),
        upper=upper,
        lower=sketch.query_lower,
        threshold_count=theta * sketch.window,
        correction=sketch.sampling_correction() if conservative else 0.0,
    )


def output_thetas(sketch, conservative):
    correction = sketch.sampling_correction() if conservative else 0.0
    estimates = sketch._memento.estimates()
    # the bar minus the correction ties a present estimate exactly
    ties = tie_thetas(estimates, sketch.window, correction)
    return (*THETAS, *ties)


class TestHMementoThresholdQueries:
    @pytest.mark.parametrize("seed", [2, 11])
    @pytest.mark.parametrize(
        "kwargs, windows",
        [state[1:] for state in HMEMENTO_STATES],
        ids=[state[0] for state in HMEMENTO_STATES],
    )
    def test_heavy_prefixes_match_the_full_scan(self, kwargs, windows, seed):
        sketch = build_hmemento(kwargs, windows, seed)
        inner = sketch._memento
        for theta in (*THETAS, *tie_thetas(inner.estimates(), sketch.window)):
            assert_same(
                sketch.heavy_prefixes(theta),
                decoded(sketch, reference_heavy(inner, theta)),
            )

    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("seed", [2, 11])
    @pytest.mark.parametrize(
        "kwargs, windows",
        [state[1:] for state in HMEMENTO_STATES],
        ids=[state[0] for state in HMEMENTO_STATES],
    )
    def test_1d_output_matches_every_candidate_scan(
        self, kwargs, windows, seed, conservative
    ):
        sketch = build_hmemento(kwargs, windows, seed)
        thetas = output_thetas(sketch, conservative)
        assert len(thetas) > len(THETAS), "no exact tie found"
        for theta in thetas:
            expected = reference_output(sketch, theta, conservative)
            assert sketch.output(theta, conservative=conservative) == expected

    @pytest.mark.parametrize("conservative", [True, False])
    def test_1d_output_on_an_empty_sketch(self, conservative):
        sketch = HMemento(window=1000, hierarchy=SRC_HIERARCHY, counters=100, seed=1)
        assert sketch.output(0.1, conservative=conservative) == set()
        assert sketch.heavy_prefixes(0.1) == {}

    @pytest.mark.parametrize("conservative", [True, False])
    def test_2d_output_unchanged(self, conservative):
        sketch = build_hmemento(
            dict(window=2000, counters=250, tau=1.0), 2.2, 3, SRC_DST_HIERARCHY
        )
        # the correction is ~0.69·W here; a lower conservative bar selects
        # every candidate and the 2-D scan turns quadratic
        for theta in (0.75, 0.9) if conservative else (0.05, 0.2, 0.6):
            expected = reference_output(sketch, theta, conservative)
            assert sketch.output(theta, conservative=conservative) == expected


class TestRouteModeSharding:
    @pytest.mark.parametrize(
        "algorithm, hierarchy",
        [
            ({"family": "memento", "window": 4096, "counters": 64, "tau": 0.5}, None),
            ({"family": "h_memento", "window": 4000, "counters": 400, "tau": 1.0}, "src"),
        ],
        ids=["memento", "h_memento"],
    )
    def test_heavy_prefixes_are_the_shards_full_scans(self, algorithm, hierarchy):
        payload = {
            "algorithm": {**algorithm, "seed": 4},
            "sharding": {"shards": 3, "query_mode": "route"},
        }
        if hierarchy is not None:
            payload["hierarchy"] = {"kind": hierarchy}
        with build_engine(SketchSpec.from_dict(payload)) as engine:
            engine.update_many(zipf_stream(3 * algorithm["window"], 4000, 4))
            shards = engine.state_snapshot()["shards"]
            for theta in (1e-3, 0.01, 0.05):
                expected = {}
                for shard in shards:
                    if isinstance(shard, HMemento):
                        expected.update(
                            decoded(shard, reference_heavy(shard._memento, theta))
                        )
                    else:
                        expected.update(reference_heavy(shard, theta))
                assert_same(engine.heavy_prefixes(theta), expected)
                assert_same(engine.heavy_hitters(theta), expected)
