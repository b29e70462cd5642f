"""H-Memento — hierarchical heavy hitters on sliding windows (Algorithm 2).

Unlike MST and RHHH, which maintain one heavy-hitter instance per prefix
pattern, H-Memento keeps a **single** Memento instance shared by all ``H``
patterns (Section 4.2).  Each packet:

* with probability ``tau`` — performs a Full update with **one uniformly
  random prefix** of the packet (pattern sampled out of ``H``), so each
  individual pattern is sampled with probability ``tau / H``;
* otherwise — performs a cheap Window update.

Because every packet drives exactly one Memento update, the shared sketch
sees one coherent ``W``-packet window for all prefixes — the property RHHH
lacks on windows (each of its instances would track a different window).

Estimates scale by the per-pattern sampling ratio ``V = H / tau``:
``f̂_p = X̂_p · V`` (Table 1 and Appendix A), and the output computation adds
the ``2 · Z_{1−δ} · sqrt(V · W)`` sampling slack (Algorithm 2, line 8).

The shared Memento counts integer prefix codes, not prefix tuples (see
:mod:`repro.hierarchy.domain`): every ingest path generalizes packets
straight to codes (``Hierarchy.code_at``/``codes_at``), which hash in
one step and leave the garbage collector nothing to track.  The public
surface still speaks prefixes: queries encode their key
(``Hierarchy.code_of``; a key that is not a prefix answers as an absent
one), and every enumeration decodes its codes in one pass
(``Hierarchy.prefixes_of``), in the shared Memento's order.

The evaluation's configuration rule (Section 6.2) is enforced softly: a
``tau`` below ``H · 2⁻¹⁰`` — i.e. a per-pattern rate below ``2⁻¹⁰``, where
the paper observed accuracy degradation — triggers a warning, not an error.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from dataclasses import replace
from itertools import chain
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from ..analysis.error_model import z_quantile
from ..hierarchy.domain import Hierarchy
from ..hierarchy.hhh_output import compute_hhh
from .api import Entry, WindowedEntries
from .batching import BatchIngest, as_batch
from .kernel import IngestPlan, dense_plan
from .memento import Memento
from .sampling import draw_decision_array, make_sampler

__all__ = ["HMemento"]

#: Per-pattern sampling probability below which Section 6.2 saw degradation.
MIN_PER_PATTERN_RATE = 2.0**-10

#: pattern indices drawn per refill of the pattern buffer
_PATTERN_REFILL = 4096


class HMemento(BatchIngest):
    """Sliding-window hierarchical heavy hitters via one shared Memento.

    Parameters
    ----------
    window:
        Window size ``W`` in packets.
    hierarchy:
        The prefix lattice; ``H = hierarchy.num_patterns``.
    counters:
        Total counters for the shared Memento instance.  The paper's "64H"
        configuration corresponds to ``counters = 64 * H``.  Exactly one of
        ``counters`` / ``epsilon`` must be given.
    epsilon:
        Algorithm error ``eps_a``; translated to
        ``counters = ceil(4 H / epsilon)`` (Algorithm 2 initializes
        Memento with ``H / eps_a`` scale).
    tau:
        Per-packet full-update probability; each pattern is then sampled
        with probability ``tau / H`` and ``V = H / tau``.
    delta:
        Confidence for the output stage's sampling correction.
    sampler / seed:
        Sampling machinery, as in :class:`repro.core.memento.Memento`.

    Examples
    --------
    >>> from repro.hierarchy.domain import SRC_HIERARCHY
    >>> hhh = HMemento(window=1000, hierarchy=SRC_HIERARCHY, counters=320,
    ...                tau=1.0, seed=1)
    >>> for _ in range(100):
    ...     hhh.update(0x01020304)
    >>> (0x01020304, 32) in hhh.output(theta=0.05)
    True
    """

    def __init__(
        self,
        window: int,
        hierarchy: Hierarchy,
        counters: Optional[int] = None,
        epsilon: Optional[float] = None,
        tau: float = 1.0,
        delta: float = 0.001,
        sampler: object = "table",
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        self.hierarchy = hierarchy
        self.num_patterns = hierarchy.num_patterns
        if (counters is None) == (epsilon is None):
            raise ValueError("exactly one of counters / epsilon must be given")
        if counters is None:
            counters = math.ceil(4.0 * self.num_patterns / epsilon)
        self.tau = float(tau)
        self.delta = float(delta)
        self.sampling_ratio = self.num_patterns / self.tau  # the paper's V
        if self.tau / self.num_patterns < MIN_PER_PATTERN_RATE:
            warnings.warn(
                f"per-pattern sampling rate {self.tau / self.num_patterns:.2e}"
                f" is below 2^-10; Section 6.2 reports accuracy degradation"
                f" in this regime",
                stacklevel=2,
            )

        # The inner Memento is driven explicitly (full vs window update is
        # H-Memento's decision).  It is configured with the *per-pattern*
        # sampling rate tau/H so that its overflow quantum and its query
        # scaling (1 / (tau/H) = V) are handled natively; its own sampler
        # is never consulted.
        self._memento = Memento(
            window,
            counters=counters,
            tau=self.tau / self.num_patterns,
            sampler="bernoulli",
            seed=seed,
        )
        self.window = self._memento.window

        if isinstance(sampler, str):
            # salted: see the matching note in repro.core.memento
            sampler_seed = None if seed is None else seed + 0x1B873593
            self._sampler = make_sampler(self.tau, method=sampler, seed=sampler_seed)
        else:
            self._sampler = sampler
        self._pattern_rng = np.random.default_rng(
            None if seed is None else seed + 0x9E3779B9
        )
        # pre-drawn uniform pattern indices, refilled in bulk for speed
        self._pattern_buf = self._refill_patterns()
        self._pattern_pos = 0
        self._updates = 0

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------
    def _refill_patterns(self) -> List[int]:
        return self._pattern_rng.integers(
            0, self.num_patterns, size=_PATTERN_REFILL
        ).tolist()

    def _next_pattern(self) -> int:
        pos = self._pattern_pos
        if pos == len(self._pattern_buf):
            self._pattern_buf = self._refill_patterns()
            pos = 0
        self._pattern_pos = pos + 1
        return self._pattern_buf[pos]

    def _draw_patterns(self, count: int) -> List[int]:
        """The next ``count`` pattern indices in one call.

        Returns what ``count`` calls of :meth:`_next_pattern` would, with
        the same refills (so the same RNG consumption) and the same
        buffer left behind.
        """
        buf = self._pattern_buf
        pos = self._pattern_pos
        end = pos + count
        if end <= len(buf):
            self._pattern_pos = end
            return buf[pos:end]
        drawn = buf[pos:]
        while True:
            buf = self._refill_patterns()
            need = count - len(drawn)
            if need <= len(buf):
                self._pattern_buf = buf
                self._pattern_pos = need
                return drawn + buf[:need]
            drawn += buf

    def update(self, packet) -> None:
        """Process one packet (Algorithm 2, UPDATE)."""
        self._updates += 1
        if self._sampler.should_sample():
            pattern = self._next_pattern()
            self._memento.full_update(self.hierarchy.code_at(packet, pattern))
        else:
            self._memento.window_update()

    def update_many(self, packets: Sequence) -> None:
        """Process a batch of packets through the plan-fed path.

        Byte-identical to the scalar :meth:`update` loop under a fixed
        seed (see :meth:`ingest_plan`, which the batch feeds as a dense
        plan).
        """
        self.ingest_plan(dense_plan(as_batch(packets)))

    def ingest_plan(self, plan: IngestPlan, *, sampled: bool = False) -> None:
        """Consume a kernel plan — the one batch path of the sketch.

        With ``sampled=False`` each selected packet flips its own coin:
        the decisions come as one numpy column (``decision_array``, same
        RNG consumption as the scalar calls) and the unsampled packets
        join the gaps.  With ``sampled=True`` (the controller feed) every
        selected packet is already sampled.  The sampled packets' pattern
        column is drawn in one call, their prefix codes are built from
        columns (``Hierarchy.codes_at``), and the plan rides the shared
        Memento's sampled kernel — unsampled stretches never touch
        per-packet Python objects.
        """
        packets = plan.items
        positions = plan.positions
        if not sampled and len(packets):
            kept = np.flatnonzero(
                draw_decision_array(self._sampler, len(packets))
            )
            packets = [packets[i] for i in kept.tolist()]
            positions = kept if positions is None else positions[kept]
        self._updates += plan.n
        codes = self.hierarchy.codes_at(
            packets, self._draw_patterns(len(packets))
        )
        self._memento._apply_sampled(plan.n, positions, codes)

    def ingest_sample(self, packet) -> None:
        """Feed an externally-sampled packet (network-wide controller path).

        The controller receives packets already sampled at rate ``tau`` by
        the measurement points, so no further coin flip happens here — one
        random prefix gets a Full update.
        """
        self._updates += 1
        pattern = self._next_pattern()
        self._memento.full_update(self.hierarchy.code_at(packet, pattern))

    def ingest_samples(self, packets: Sequence) -> None:
        """Batch form of :meth:`ingest_sample`: one Full update per packet."""
        self.ingest_plan(dense_plan(as_batch(packets)), sampled=True)

    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` unsampled packets."""
        self._memento.ingest_gap(count)
        self._updates += count

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def query(self, prefix) -> float:
        """Upper-bound estimate ``f̂+`` of the prefix's window frequency.

        The inner Memento is configured with the per-pattern rate
        ``tau / H``, so its own ``1/tau`` scaling is exactly the paper's
        ``V = H / tau`` multiplier.
        """
        return self._memento.query(self.hierarchy.code_of(prefix))

    def query_lower(self, prefix) -> float:
        """Lower-bound estimate ``f̂−`` (conservative, clamped at zero)."""
        return self._memento.query_lower(self.hierarchy.code_of(prefix))

    def query_point(self, prefix) -> float:
        """Midpoint (bias-removed) estimate, scaled by ``V``.

        See :meth:`repro.core.memento.Memento.query_point`; used by error
        metrics and threshold detection where the conservative ``+2`` block
        shift would inflate every estimate by ``2·sample_block·V``.
        """
        return self._memento.query_point(self.hierarchy.code_of(prefix))

    def sampling_correction(self) -> float:
        """Algorithm 2 line 8: ``2 · Z_{1−δ} · sqrt(V · W)``."""
        if self.tau >= 1.0 and self.num_patterns == 1:
            return 0.0
        return 2.0 * z_quantile(1.0 - self.delta) * math.sqrt(
            self.sampling_ratio * self.window
        )

    def output(self, theta: float, conservative: bool = True) -> Set:
        """The approximate HHH set for threshold ``theta`` (Algorithm 2).

        With ``conservative=True`` (the paper's Algorithm 2) the sampling
        correction ``2·Z·sqrt(V·W)`` is added to every conditioned
        frequency, guaranteeing coverage (no false negatives w.h.p.) at the
        price of false positives — note the correction is ``O(sqrt(V·W))``,
        so undersized windows relative to ``theta`` admit many of them.
        ``conservative=False`` drops the correction and reports the point-
        estimate HHH set (smaller, not coverage-guaranteed).

        In one dimension only the candidates whose estimate can pass
        reach :func:`compute_hhh`: those with ``upper + correction >=
        theta·W`` in floats.  The answer is the full scan's, because
        Algorithm 3's ``calcPred = −Σ f̂−`` is never positive (every
        lower bound is ``>= 0``), so by monotone rounding a candidate's
        conditioned frequency ``(upper + pred) + correction`` is at most
        ``upper + correction``; and a candidate that is never selected
        never enters another candidate's ``G(a|P)``.  Two-dimensional
        hierarchies scan every candidate: Algorithm 4 adds back glb
        upper bounds, so ``pred`` can be positive there.
        """
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        threshold = theta * self.window
        correction = self.sampling_correction() if conservative else 0.0
        if self.hierarchy.dimensions == 1:
            estimates = self._decoded(
                self._memento.estimates_over(
                    threshold, slack=correction, inclusive=True
                )
            )
        else:
            estimates = self._decoded(self._memento.estimates())
        query = self.query

        def upper(prefix: Hashable) -> float:
            # the scan also asks for 2-D glbs, which need not be candidates
            est = estimates.get(prefix)
            return query(prefix) if est is None else est

        return compute_hhh(
            self.hierarchy,
            list(estimates),
            upper=upper,
            lower=self.query_lower,
            threshold_count=threshold,
            correction=correction,
        )

    def _decoded(self, estimates: Dict[Any, float]) -> Dict[Hashable, float]:
        """``estimates`` keyed by prefix instead of code, in its order."""
        return dict(
            zip(self.hierarchy.prefixes_of(estimates), estimates.values())
        )

    def candidates(self) -> Iterable:
        """Prefixes currently holding a counter in the shared sketch."""
        return self.hierarchy.prefixes_of(self._memento.candidates())

    def entries(self) -> List[Entry]:
        """Mergeable snapshot of the shared sketch (raw sampled units).

        Rows carry the inner Memento's per-pattern sampling rate
        ``tau / H``, so the merge layer's single ``1/tau`` scaling is
        exactly the paper's ``V = H / tau`` multiplier.
        """
        return self._decoded_rows(self._memento.entries())

    def _decoded_rows(self, rows: Sequence[Entry]) -> List[Entry]:
        prefixes = self.hierarchy.prefixes_of(row[0] for row in rows)
        return [
            (prefix, raw, low)
            for prefix, (_, raw, low) in zip(prefixes, rows)
        ]

    def windowed_entries(self) -> WindowedEntries:
        """Window-annotated snapshot (see ``Memento.windowed_entries``)."""
        snapshot = self._memento.windowed_entries()
        return replace(snapshot, entries=tuple(self._decoded_rows(snapshot.entries)))

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Raw per-prefix estimates above ``theta * W`` (no conditioning).

        This is the plain frequency view used by the accuracy experiments
        (Figure 8); :meth:`output` is the HHH set with coverage semantics.
        It is the shared Memento's ``heavy_hitters``, with its detection
        floor: every prefix with ``f > theta * W`` is guaranteed to be
        listed only for ``theta >= epsilon = 4/counters`` (up to the
        sampling error).  Below about two blocks a prefix can be in
        neither the overflow table nor the in-frame Space Saving.
        """
        return self._decoded(self._memento.heavy_hitters(theta))

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Uniform :class:`~repro.core.api.QueryableSketch` surface:
        same enumeration as :meth:`heavy_prefixes` (keys are prefixes)."""
        return self.heavy_prefixes(theta)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def updates(self) -> int:
        """Total packets processed."""
        return self._updates

    @property
    def full_updates(self) -> int:
        """Packets that resulted in a Full update of the shared sketch."""
        return self._memento.full_updates

    @property
    def counters(self) -> int:
        """Total counters in the shared Memento instance."""
        return self._memento.k

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Adopt a pickled state, re-keying an older shared Memento.

        Checkpoints written before the shared Memento counted codes hold
        prefix tuples in its overflow table ``B``, its FIFO of overflow
        records and ``y``'s index and value buckets; each is re-keyed to
        codes, in its own order.
        """
        # interned names, as pickle's default restore leaves them
        self.__dict__.update(
            (sys.intern(key), value) for key, value in state.items()
        )
        memento = self._memento
        y = memento._y
        if not isinstance(next(chain(memento._offsets, y._index), None), tuple):
            return
        code_of = self.hierarchy.code_of
        memento._offsets = {
            code_of(key): count for key, count in memento._offsets.items()
        }
        memento._fifo = deque(map(code_of, memento._fifo))
        flat = y.__getstate__()
        flat["chain"] = [
            (value, [(code_of(key), error) for key, error in keys])
            for value, keys in flat["chain"]
        ]
        flat["order"] = list(map(code_of, flat["order"]))
        y.__setstate__(flat)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HMemento(window={self.window}, H={self.num_patterns}, "
            f"counters={self.counters}, tau={self.tau})"
        )
