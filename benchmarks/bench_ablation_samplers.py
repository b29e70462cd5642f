"""Ablation — sampler implementation choice (DESIGN.md call-out).

Section 6.2 attributes the H-Memento/RHHH speed crossover to the sampling
implementation: a random-number table costs O(1) per packet regardless of
τ, while geometric skip counting costs ~nothing per skipped packet but a
logarithm per sample.  This ablation times Memento with each sampler at a
moderate and a small τ, verifying the design rationale holds in this
codebase.
"""

from __future__ import annotations

import pytest

from repro import Memento, generate_trace
from repro.traffic.synth import BACKBONE

N = 30_000
WINDOW = 8192


@pytest.fixture(scope="module")
def stream():
    return generate_trace(BACKBONE, N, seed=7).packets_1d()


@pytest.mark.parametrize("sampler", ["table", "geometric", "bernoulli"])
@pytest.mark.parametrize("tau", [2**-2, 2**-8])
def test_sampler_throughput(benchmark, stream, sampler, tau):
    def run():
        sketch = Memento(
            window=WINDOW, counters=512, tau=tau, sampler=sampler, seed=3
        )
        update = sketch.update
        for item in stream:
            update(item)
        return sketch

    sketch = benchmark(run)
    # sanity: the sampler actually sampled at ~tau
    expected = tau * N
    assert 0.5 * expected < sketch.full_updates < 2.0 * expected


@pytest.mark.parametrize("sampler", ["table", "geometric", "bernoulli"])
@pytest.mark.parametrize("tau", [2**-2, 2**-8])
def test_sampler_block_throughput(benchmark, stream, sampler, tau):
    """The same ablation over ``decision_array`` (the batch engine's path)."""

    def run():
        sketch = Memento(
            window=WINDOW, counters=512, tau=tau, sampler=sampler, seed=3
        )
        sketch.update_many(stream)
        return sketch

    sketch = benchmark(run)
    expected = tau * N
    assert 0.5 * expected < sketch.full_updates < 2.0 * expected
