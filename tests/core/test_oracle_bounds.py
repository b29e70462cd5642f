"""WCSS and Memento(τ=1) graded against an exact window oracle.

With ``tau = 1`` Memento is WCSS, whose guarantee (Ben Basat et al.,
and Theorem 5.2 of the paper at ``tau = 1``) is one-sided and bounded:
for every flow ``x`` in the window, ``0 <= query(x) - f(x) <= εW`` with
``ε = 4/k``.  Here ``W = 4096`` and ``k = 64``, so ``εW = 256`` packets.
Every 257 packets the sketches are checked against
:class:`~repro.core.exact.ExactWindowCounter` for every key in the exact
window, and ``heavy_hitters(θ)`` must contain every flow with
``f > θW`` for ``θ >= ε``.  The streams are seeded stdlib ``random``
draws over four shapes: uniform, Zipf 1.1, bursty, and a population
that turns over at window boundaries.

A second set of rows runs at overflow quantum 1: ``W = k = 512`` gives
one-packet blocks (``k`` divides ``W``, so the window is exactly ``W``),
where every Full update writes an overflow record and Memento leaves its
in-frame Space Saving ``y`` empty.  A key absent from the overflow table
then answers two blocks, the Algorithm 1 bound at its exact in-frame
count of 0.  Every key the oracle or the sketch knows, and keys neither
has seen, must satisfy ``0 <= query(x) - f(x) <= 4W/k`` and
``query_lower(x) <= f(x)``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import WCSS, ExactWindowCounter, Memento

WINDOW = 4096
COUNTERS = 64
EPSILON_W = 4 / COUNTERS * WINDOW  # 256 packets
CHECK_EVERY = 257
PACKETS = 4 * WINDOW
#: detection thresholds at and above ε: below it a flow can clear θW
#: without ever overflowing a block or keeping a counter in ``y``
THETAS = (0.0625, 0.1, 0.2)


def uniform(rng, n):
    return [rng.randrange(2000) for _ in range(n)]


def zipf(rng, n, distinct=5000, skew=1.1):
    cumulative = list(
        itertools.accumulate(1.0 / rank**skew for rank in range(1, distinct + 1))
    )
    return rng.choices(range(distinct), cum_weights=cumulative, k=n)


def bursty(rng, n):
    """A wide uniform background broken by runs of one key, 50-600 long."""
    stream = []
    while len(stream) < n:
        stream.extend(rng.randrange(1 << 20) for _ in range(rng.randrange(100, 900)))
        stream.extend([rng.randrange(40)] * rng.randrange(50, 600))
    return stream[:n]


def boundary_churn(rng, n):
    """Zipf flows whose population is replaced at every window boundary
    and half-way through each window, so heavy flows leave and arrive
    exactly where frames turn over."""
    ranks = zipf(rng, n, distinct=800)
    return [rank + 10_000 * (i // (WINDOW // 2)) for i, rank in enumerate(ranks)]


SHAPES = {
    "uniform": uniform,
    "zipf1.1": zipf,
    "bursty": bursty,
    "boundary-churn": boundary_churn,
}

SKETCHES = {
    "wcss": lambda seed: WCSS(WINDOW, counters=COUNTERS),
    "memento-tau1": lambda seed: Memento(
        WINDOW, counters=COUNTERS, tau=1.0, seed=seed
    ),
}


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("sketch_name", list(SKETCHES))
def test_error_within_epsilon_w(sketch_name, shape, seed):
    stream = SHAPES[shape](random.Random(seed), PACKETS)
    sketch = SKETCHES[sketch_name](seed)
    assert sketch.epsilon * sketch.window == EPSILON_W
    oracle = ExactWindowCounter(WINDOW)
    worst = 0.0
    graded = 0  # heavy flows the detection check saw
    for start in range(0, len(stream), CHECK_EVERY):
        chunk = stream[start : start + CHECK_EVERY]
        sketch.update_many(chunk)
        oracle.update_many(chunk)
        for key, true in oracle.items():
            error = sketch.query(key) - true
            assert 0 <= error <= EPSILON_W, (start, key, true, error)
            worst = max(worst, error)
        for theta in THETAS:
            heavy = set(oracle.heavy_hitters(theta))
            missing = heavy - set(sketch.heavy_hitters(theta))
            assert not missing, (start, theta, missing)
            graded += len(heavy)
    # the stream must push the estimates towards the bound to test it,
    # and every skewed shape must put flows above the detection bar
    assert worst > EPSILON_W / 4
    assert graded or shape == "uniform"


Q1_WINDOW = 512
Q1_COUNTERS = 512
Q1_BOUND = 4 * Q1_WINDOW // Q1_COUNTERS  # four one-packet blocks
Q1_CHECK_EVERY = 37
#: keys no shape draws (every shape's keys are non-negative)
ABSENT = (-1, -2, -(1 << 40))

Q1_SKETCHES = {
    "wcss": lambda seed: WCSS(Q1_WINDOW, counters=Q1_COUNTERS),
    "memento-tau1": lambda seed: Memento(
        Q1_WINDOW, counters=Q1_COUNTERS, tau=1.0, seed=seed
    ),
}


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("sketch_name", list(Q1_SKETCHES))
def test_quantum_one_error_within_four_blocks(sketch_name, shape, seed):
    stream = SHAPES[shape](random.Random(seed), PACKETS)
    sketch = Q1_SKETCHES[sketch_name](seed)
    assert sketch.block_size == sketch.sample_block == 1
    assert sketch.effective_window == Q1_WINDOW
    oracle = ExactWindowCounter(Q1_WINDOW)
    errors = set()
    for start in range(0, len(stream), Q1_CHECK_EVERY):
        chunk = stream[start : start + Q1_CHECK_EVERY]
        sketch.update_many(chunk)
        oracle.update_many(chunk)
        assert not sketch._y.monitored
        keys = {*(key for key, _ in oracle.items()), *sketch.candidates(), *ABSENT}
        for key in keys:
            true = oracle.query(key)
            error = sketch.query(key) - true
            assert 0 <= error <= Q1_BOUND, (start, key, true, error)
            assert sketch.query_lower(key) <= true, (start, key, true)
            errors.add(error)
        for key in ABSENT:
            assert sketch.query(key) == 2 and sketch.query_lower(key) == 0
        for theta in THETAS:
            heavy = set(oracle.heavy_hitters(theta))
            missing = heavy - set(sketch.heavy_hitters(theta))
            assert not missing, (start, theta, missing)
    # tracked keys carry the +2 shift; the absent ones answer it alone
    assert 2 in errors
