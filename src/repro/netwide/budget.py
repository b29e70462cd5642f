"""The network-wide error model of Theorem 5.5 and the optimal batch size.

Given a per-packet bandwidth budget ``B``, header overhead ``O``, sample
payload ``E``, ``m`` measurement points, window ``W``, hierarchy size ``H``
and confidence ``delta``, a batch size ``b`` yields the sampling rate
``tau = B·b / (O + E·b)`` and an overall guaranteed error of::

    E_b = m·(O + E·b)/B  +  sqrt( H · W · Z_{1−δ/2} · (O + E·b) / (B·b) )
          └── delay error ──┘   └────────── sampling error ──────────┘

The delay term grows with ``b`` (reports happen every ``b/τ`` packets per
point, so up to ``m·b/τ`` packets are unreported); the sampling term shrinks
with ``b`` (bigger batches waste fewer budget bytes on headers, buying a
higher ``tau``).  The sum is convex in ``b`` with a single minimum, so
:meth:`BudgetModel.optimal_batch` finds the integer optimum exactly by
bisecting on the sign of the forward difference, reproducing the worked
example of Section 5.2 (``b* = 44`` and a ≈13K-packet bound at ``B = 1``;
``b* = 68`` / ≈5.3K at ``B = 5``).

The Sample method is the ``b = 1`` point of the same model, and Figure 4 is
three slices of it (Sample, Batch-100, optimal Batch) across budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.error_model import z_quantile
from .messages import PAYLOAD_SRC, TCP_HEADER_OVERHEAD

__all__ = ["BudgetModel", "figure4_series"]


@dataclass(frozen=True)
class BudgetModel:
    """Theorem 5.5's error model for one deployment configuration.

    Parameters use the paper's symbols: ``points`` = m, ``header`` = O,
    ``payload`` = E, ``budget`` = B (bytes per measured packet), ``window``
    = W, ``hierarchy_size`` = H (1 for plain D-Memento), ``delta`` = δs.
    """

    points: int = 10
    header: int = TCP_HEADER_OVERHEAD
    payload: int = PAYLOAD_SRC
    budget: float = 1.0
    window: int = 1_000_000
    hierarchy_size: int = 5
    delta: float = 0.0001

    def __post_init__(self) -> None:
        if self.points <= 0:
            raise ValueError(f"points must be positive, got {self.points}")
        if self.header < 0 or self.payload <= 0:
            raise ValueError("header must be >= 0 and payload > 0")
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.hierarchy_size <= 0:
            raise ValueError(
                f"hierarchy_size must be positive, got {self.hierarchy_size}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    # ------------------------------------------------------------------
    # model components
    # ------------------------------------------------------------------
    def message_bytes(self, batch: float) -> float:
        """Size of one report carrying ``batch`` samples: ``O + E·b``."""
        return self.header + self.payload * batch

    def tau(self, batch: float, clamp: bool = True) -> float:
        """Sampling rate exhausting the budget: ``B·b / (O + E·b)``.

        The paper's closed forms do not clamp ``tau`` at 1 (its own B = 5
        worked example has ``tau > 1``); pass ``clamp=False`` to match them
        exactly.  Simulations always clamp.
        """
        raw = self.budget * batch / self.message_bytes(batch)
        return min(1.0, raw) if clamp else raw

    def delay_error(self, batch: float) -> float:
        """Theorem 5.4 bound ``m·b/τ = m·(O + E·b)/B`` (packets)."""
        return self.points * self.message_bytes(batch) / self.budget

    def sampling_error(self, batch: float) -> float:
        """The ``W·eps_s = sqrt(H·W·Z·(O + E·b)/(B·b))`` term (packets)."""
        z = z_quantile(1.0 - self.delta / 2.0)
        return math.sqrt(
            self.hierarchy_size
            * self.window
            * z
            * self.message_bytes(batch)
            / (self.budget * batch)
        )

    def total_error(self, batch: float) -> float:
        """Theorem 5.5's overall bound ``E_b`` in packets."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self.delay_error(batch) + self.sampling_error(batch)

    def relative_error(self, batch: float) -> float:
        """``E_b / W`` — the fraction-of-window form quoted in Section 5.2."""
        return self.total_error(batch) / self.window

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    def optimal_batch(self, max_batch: int = 1_000_000) -> int:
        """The integer batch size in ``[1, max_batch]`` minimizing
        :meth:`total_error`.

        The objective is a linear delay term plus a strictly decreasing,
        convex ``sqrt(c·(E + O/b))`` sampling term, so it is convex and
        its forward difference ``f(b+1) − f(b)`` changes sign once.  The
        smallest ``b`` with ``f(b+1) ≥ f(b)`` is the integer argmin;
        bisection finds it in ``log2(max_batch)`` steps, and returns
        ``max_batch`` when the objective still falls there.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        f = self.total_error
        lo, hi = 1, int(max_batch)
        while lo < hi:
            mid = (lo + hi) // 2
            if f(mid + 1) >= f(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def summary(self, batch: Optional[int] = None) -> Dict[str, float]:
        """One row of the Figure 4 / Section 5.2 report for this config."""
        if batch is None:
            batch = self.optimal_batch()
        return {
            "budget": self.budget,
            "batch": float(batch),
            "tau": self.tau(batch),
            "delay_error": self.delay_error(batch),
            "sampling_error": self.sampling_error(batch),
            "total_error": self.total_error(batch),
            "relative_error": self.relative_error(batch),
        }


def figure4_series(
    budgets: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0),
    fixed_batch: int = 100,
    **model_kwargs,
) -> List[Dict[str, float]]:
    """Figure 4's three series across bandwidth budgets.

    For every budget ``B`` the row reports the guaranteed error of the
    Sample method (``b = 1``), the fixed Batch (``b = 100`` by default),
    and the optimal Batch, each split into its delay and sampling parts
    (the hatched vs solid areas of the figure).
    """
    rows: List[Dict[str, float]] = []
    for budget in budgets:
        model = BudgetModel(budget=budget, **model_kwargs)
        optimal = model.optimal_batch()
        row: Dict[str, float] = {"budget": budget, "optimal_batch": float(optimal)}
        for label, batch in (
            ("sample", 1),
            (f"batch{fixed_batch}", fixed_batch),
            ("batch_opt", optimal),
        ):
            row[f"{label}_delay"] = model.delay_error(batch)
            row[f"{label}_sampling"] = model.sampling_error(batch)
            row[f"{label}_total"] = model.total_error(batch)
        rows.append(row)
    return rows
