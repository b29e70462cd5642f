"""The one-pass estimate scan of Memento against its scalar queries.

``Memento.raw_estimates`` walks the overflow table and the in-frame Space
Saving once; ``heavy_hitters`` (and H-Memento's ``heavy_prefixes``) are
comprehensions over it.  Every check here rebuilds the answer key by key
from ``candidates()`` and the scalar ``query``/``query_raw``, on states
where ``y`` is full and some flows with overflow records have already been
evicted from it (their in-frame part is ``y``'s minimum counter).
"""

from __future__ import annotations

import random

import pytest

from repro import SRC_HIERARCHY, HMemento, Memento

TAUS = (1.0, 1 / 16)
THETAS = (0.0, 0.002, 0.01, 0.05, 0.2)


def churn_stream(seed: int, n: int = 30_000):
    """Epochs of fresh heavy flows over a tail of one-off flows.

    A heavy flow of an earlier epoch keeps its overflow records for a
    window after its last packet, while frame flushes and new flows push
    it out of ``y``.
    """
    rng = random.Random(seed)
    stream = []
    while len(stream) < n:
        heavy = [rng.getrandbits(32) for _ in range(3)]
        for _ in range(rng.randint(1500, 3000)):
            if rng.random() < 0.3:
                stream.append(rng.choice(heavy))
            else:
                stream.append(rng.getrandbits(32))
    return stream[:n]


def assert_evicted_overflows(memento: Memento) -> None:
    """The state exercises the ``head.value % blk`` floor of ``query_raw``."""
    y = memento._y
    assert y.monitored == y.counters
    assert any(key not in y for key in memento._offsets)


def reference_heavy(sketch, theta):
    bar = theta * sketch.window
    out = {}
    for key in sketch.candidates():
        est = sketch.query(key)
        if est > bar:
            out[key] = est
    return out


def build_memento(tau: float, seed: int) -> Memento:
    sketch = Memento(window=4000, counters=32, tau=tau, seed=seed)
    sketch.update_many(churn_stream(seed))
    return sketch


def build_hmemento(tau: float, seed: int) -> HMemento:
    sketch = HMemento(
        window=4000, hierarchy=SRC_HIERARCHY, counters=32, tau=tau, seed=seed
    )
    sketch.update_many(churn_stream(seed))
    return sketch


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tau", TAUS)
class TestMementoEstimatePass:
    def test_raw_estimates_equal_query_raw(self, tau, seed):
        sketch = build_memento(tau, seed)
        assert_evicted_overflows(sketch)
        expected = [(key, sketch.query_raw(key)) for key in sketch.candidates()]
        assert list(sketch.raw_estimates()) == expected

    def test_estimates_equal_query(self, tau, seed):
        sketch = build_memento(tau, seed)
        expected = [(key, sketch.query(key)) for key in sketch.candidates()]
        assert list(sketch.estimates().items()) == expected

    def test_heavy_hitters_match_scalar_reference(self, tau, seed):
        sketch = build_memento(tau, seed)
        assert_evicted_overflows(sketch)
        for theta in THETAS:
            got = sketch.heavy_hitters(theta)
            assert list(got.items()) == list(reference_heavy(sketch, theta).items())
        assert len(sketch.heavy_hitters(0.0)) == len(list(sketch.candidates()))

    def test_entries_equal_scalar_rows(self, tau, seed):
        sketch = build_memento(tau, seed)
        expected = [
            (key, sketch.query_raw(key), sketch.query_lower_raw(key))
            for key in sketch.candidates()
        ]
        assert sketch.entries() == expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("tau", TAUS)
def test_hmemento_heavy_prefixes_match_scalar_reference(tau, seed):
    sketch = build_hmemento(tau, seed)
    assert_evicted_overflows(sketch._memento)
    for theta in THETAS:
        got = sketch.heavy_prefixes(theta)
        assert list(got.items()) == list(reference_heavy(sketch, theta).items())
        assert sketch.heavy_hitters(theta) == got


def test_candidates_deduplicated_in_overflow_then_frame_order():
    sketch = build_memento(1.0, 4)
    offsets = list(sketch._offsets)
    frame_only = [key for key, _ in sketch._y.items() if key not in sketch._offsets]
    assert list(sketch.candidates()) == offsets + frame_only
