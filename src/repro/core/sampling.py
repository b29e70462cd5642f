"""Packet samplers used by the Memento family and by RHHH.

Section 6.2 of the paper attributes the speed crossover between H-Memento
and RHHH to *how* sampling is implemented:

* H-Memento draws from a precomputed **random number table**
  (:class:`TableSampler`), paying one array lookup per packet;
* RHHH draws a **geometric** skip count (:class:`GeometricSampler`), paying
  one logarithm per *sampled* packet and nothing in between.

Both are provided here, along with a plain :class:`BernoulliSampler`
reference, behind a single ``should_sample()`` interface, so benches can
reproduce Figure 7's crossover and tests can swap in deterministic samplers.

Every sampler additionally exposes the columnar form of ``should_sample``:
``decision_array(n) -> np.ndarray[bool]``, the next ``n`` decisions as a
numpy boolean column — the input of the vectorized ingestion kernel
(:mod:`repro.core.kernel`).  No per-packet Python objects are created:
the ingest path goes straight to ``np.flatnonzero`` on the array.

It is defined to consume the underlying randomness *exactly* as ``n``
successive ``should_sample()`` calls would, so a batch-fed sketch stays
byte-identical to a scalar-fed one under the same seed (the differential
tests rely on this contract).  :class:`GeometricSampler` realizes it with
a shared skip buffer: skips are drawn in vectorized chunks (one ``log``
per *sampled* packet, amortized), and the scalar and columnar paths
consume the same buffered stream in order.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

import numpy as np

from .batching import iter_chunks

__all__ = [
    "BernoulliSampler",
    "TableSampler",
    "GeometricSampler",
    "FixedSampler",
    "make_sampler",
    "draw_decision_array",
]

#: Fallback granularity: samplers without ``decision_array`` are drained
#: through ``iter_chunks`` so no more than this many scalar decisions are
#: ever materialized as Python objects at once, however large ``n`` is.
FALLBACK_CHUNK = 1 << 15

#: Vectorized skip draws per refill of :class:`GeometricSampler`'s buffer.
_SKIP_CHUNK = 1 << 10


def draw_decision_array(sampler, n: int) -> np.ndarray:
    """The next ``n`` decisions from ``sampler`` as a boolean column.

    Samplers with the native ``decision_array`` produce the column in
    one vectorized call.  Any other object only has to honour the
    documented scalar contract: its ``should_sample()`` calls are
    streamed through :func:`iter_chunks` into a preallocated byte array,
    so even a custom sampler never materializes ``n`` Python bools at
    once.
    """
    decision_array = getattr(sampler, "decision_array", None)
    if decision_array is not None:
        return decision_array(n)
    _check_block(n)
    should_sample = sampler.should_sample
    out = np.empty(n, dtype=bool)
    filled = 0
    for chunk in iter_chunks(
        (should_sample() for _ in range(n)), FALLBACK_CHUNK
    ):
        out[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
    return out


class BernoulliSampler:
    """Draw an independent uniform per packet; sample when it is ≤ tau."""

    __slots__ = ("tau", "_rng")

    def __init__(self, tau: float, seed: Optional[int] = None) -> None:
        _check_tau(tau)
        self.tau = float(tau)
        self._rng = np.random.default_rng(seed)

    def should_sample(self) -> bool:
        """True with probability ``tau``, independently per call."""
        if self.tau >= 1.0:
            return True
        return self._rng.random() <= self.tau

    def decision_array(self, n: int) -> np.ndarray:
        """The next ``n`` decisions as one vectorized comparison.

        ``Generator.random(n)`` consumes the bit stream exactly as ``n``
        scalar ``random()`` calls, so columnar and scalar feeding agree.
        """
        _check_block(n)
        if self.tau >= 1.0:
            return np.ones(n, dtype=bool)
        return self._rng.random(n) <= self.tau


class TableSampler:
    """The paper's random-number-table trick (Section 6.2).

    A table of ``table_size`` i.i.d. Bernoulli(``tau``) bits is precomputed;
    each packet consumes the next bit, wrapping around.  This makes the
    per-packet cost a single array read regardless of ``tau``, which is why
    H-Memento outruns RHHH at moderate sampling probabilities.

    The table is re-randomized on wrap-around by re-rolling a fresh offset,
    so long streams do not replay an identical bit pattern in phase with
    periodic traffic.  The bits are held twice: a numpy column for the
    columnar path (``decision_array`` slices it, copy-free when the block
    does not wrap) and a plain list for the scalar path.  A pickle carries
    them once, packed eight to a byte, and rebuilds both on load.
    """

    __slots__ = ("tau", "table_size", "_bits", "_table", "_pos", "_rng")

    def __init__(
        self,
        tau: float,
        seed: Optional[int] = None,
        table_size: int = 1 << 16,
    ) -> None:
        _check_tau(tau)
        if table_size <= 0:
            raise ValueError(f"table_size must be positive, got {table_size}")
        self.tau = float(tau)
        self.table_size = int(table_size)
        self._rng = np.random.default_rng(seed)
        self._bits = self._rng.random(self.table_size) <= self.tau
        self._table = self._bits.tolist()
        self._pos = 0

    def __getstate__(self) -> dict:
        return {
            "tau": self.tau,
            "table_size": self.table_size,
            "bits": np.packbits(self._bits).tobytes(),
            "pos": self._pos,
            "rng": self._rng,
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):
            # the default slots state ``(None, {slot: value})`` of a
            # sampler pickled with both copies of its table
            for name, value in state[1].items():
                setattr(self, name, value)
            return
        self.tau = state["tau"]
        self.table_size = state["table_size"]
        packed = np.frombuffer(state["bits"], dtype=np.uint8)
        self._bits = np.unpackbits(packed, count=self.table_size).astype(bool)
        self._table = self._bits.tolist()
        self._pos = state["pos"]
        self._rng = state["rng"]

    def should_sample(self) -> bool:
        """Consume the next precomputed Bernoulli bit."""
        if self.tau >= 1.0:
            return True
        pos = self._pos
        bit = self._table[pos]
        pos += 1
        if pos == self.table_size:
            pos = int(self._rng.integers(0, self.table_size))
        self._pos = pos
        return bit

    def decision_array(self, n: int) -> np.ndarray:
        """Slice the next ``n`` precomputed bits (re-rolling on wrap).

        Non-wrapping blocks return a read-only view of the table — zero
        copies on the hot path; callers must not mutate the result.
        """
        _check_block(n)
        if self.tau >= 1.0:
            return np.ones(n, dtype=bool)
        bits = self._bits
        size = self.table_size
        pos = self._pos
        if pos + n < size:
            out = bits[pos : pos + n]
            out.flags.writeable = False  # view of the live table
            self._pos = pos + n
            return out
        out = np.empty(n, dtype=bool)
        filled = 0
        while filled < n:
            take = min(n - filled, size - pos)
            out[filled : filled + take] = bits[pos : pos + take]
            filled += take
            pos += take
            if pos == size:
                pos = int(self._rng.integers(0, size))
        self._pos = pos
        return out


class GeometricSampler:
    """Skip-counting sampler: draw how many packets to skip, then sample.

    The inter-sample gap of i.i.d. Bernoulli(``tau``) trials is geometric;
    drawing it directly via the inverse CDF,
    ``skips = floor(log(U) / log(1 - tau))``,
    costs one ``log`` per *sampled* packet.  This is the implementation RHHH
    uses, and it wins once ``tau`` is small enough that table lookups per
    packet dominate (the Figure 7 crossover).

    Skips are drawn in vectorized chunks into a shared buffer (one
    ``Generator.random(k)`` call plus one vectorized ``log`` per
    :data:`_SKIP_CHUNK` skips); both the scalar and the columnar paths
    consume that buffer in order, so every feeding pattern observes the
    same skip sequence under the same seed.
    """

    __slots__ = ("tau", "_rng", "_remaining", "_log1m", "_buf", "_buf_list", "_buf_pos")

    def __init__(self, tau: float, seed: Optional[int] = None) -> None:
        _check_tau(tau)
        self.tau = float(tau)
        self._rng = np.random.default_rng(seed)
        self._log1m = math.log1p(-self.tau) if self.tau < 1.0 else 0.0
        self._buf = np.empty(0, dtype=np.int64)
        self._buf_list: List[int] = []
        self._buf_pos = 0
        self._remaining = self._next_skip() if self.tau < 1.0 else 0

    def _refill(self) -> None:
        """Draw the next :data:`_SKIP_CHUNK` skips in one vectorized pass."""
        u = self._rng.random(_SKIP_CHUNK)
        # guard the measure-zero u == 0 case rather than crash on log(0)
        np.maximum(u, 5e-324, out=u)
        np.log(u, out=u)
        u /= self._log1m
        self._buf = u.astype(np.int64)
        self._buf_list = self._buf.tolist()
        self._buf_pos = 0

    def _next_skip(self) -> int:
        pos = self._buf_pos
        if pos == len(self._buf_list):
            self._refill()
            pos = 0
        self._buf_pos = pos + 1
        return self._buf_list[pos]

    def should_sample(self) -> bool:
        """True when the current skip run has been exhausted."""
        if self.tau >= 1.0:
            return True
        if self._remaining == 0:
            self._remaining = self._next_skip()
            return True
        self._remaining -= 1
        return False

    def decision_array(self, n: int) -> np.ndarray:
        """The next ``n`` decisions with sampled positions set directly.

        Skip runs never touch per-packet state: the buffered skips are
        turned into sample positions with one cumulative sum per buffer
        slice, and only those positions are written.
        """
        _check_block(n)
        if self.tau >= 1.0:
            return np.ones(n, dtype=bool)
        out = np.zeros(n, dtype=bool)
        pos = self._remaining
        if pos >= n:
            self._remaining = pos - n
            return out
        while pos < n:
            if self._buf_pos == len(self._buf_list):
                self._refill()
            avail = self._buf[self._buf_pos :]
            # sample at `pos` consumes avail[0], landing at nxt[0]; the
            # j-th emission this slice sits at emit[j] and lands at nxt[j]
            nxt = pos + np.cumsum(avail + 1)
            emit = np.empty(avail.size, dtype=np.int64)
            emit[0] = pos
            emit[1:] = nxt[:-1]
            hits = int(np.searchsorted(emit, n, side="left"))
            out[emit[:hits]] = True
            self._buf_pos += hits
            pos = int(nxt[hits - 1])
        self._remaining = pos - n
        return out


class FixedSampler:
    """Deterministic sampler for tests: replays a fixed decision sequence.

    Once the provided decisions are exhausted it repeats the last one
    (default ``True``), so ``FixedSampler([])`` means "always sample".
    """

    __slots__ = ("_decisions", "_pos", "_default", "tau")

    def __init__(self, decisions: Iterable[bool] = (), default: bool = True) -> None:
        self._decisions = list(decisions)
        self._pos = 0
        self._default = bool(default)
        self.tau = 1.0 if self._default else 0.0

    def should_sample(self) -> bool:
        if self._pos < len(self._decisions):
            bit = self._decisions[self._pos]
            self._pos += 1
            return bit
        return self._default

    def decision_array(self, n: int) -> np.ndarray:
        """Replay the next ``n`` scripted decisions (padding with default)."""
        _check_block(n)
        pos = self._pos
        scripted = self._decisions[pos : pos + n]
        self._pos = pos + len(scripted)
        out = np.full(n, self._default, dtype=bool)
        out[: len(scripted)] = scripted
        return out


def make_sampler(tau: float, method: str = "table", seed: Optional[int] = None):
    """Build a sampler by name: ``table``, ``geometric``, or ``bernoulli``."""
    methods = {
        "table": TableSampler,
        "geometric": GeometricSampler,
        "bernoulli": BernoulliSampler,
    }
    try:
        cls = methods[method]
    except KeyError:
        raise ValueError(
            f"unknown sampler {method!r}; expected one of {sorted(methods)}"
        ) from None
    return cls(tau, seed=seed)


def _check_tau(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")


def _check_block(n: int) -> None:
    if n < 0:
        raise ValueError(f"block size must be non-negative, got {n}")
