"""Analytical accuracy model — Theorems 5.2 and 5.3 and their inverses.

The paper's guarantees tie four quantities together: the window size ``W``,
the sampling probability ``tau``, the sampling error ``eps_s``, and the
confidence ``delta`` (via the standard-normal quantile ``Z``):

* Theorem 5.2 (Memento):     ``tau >= Z_{1-δ/4} / (W · eps_s²)``
* Theorem 5.3 (H-Memento):   ``tau >= Z_{1-δ/2} · H / (W · eps_s²)``

This module provides the quantile, the minimal-``tau`` forms, and the
inverse forms (the ``eps_s`` achieved by a given ``tau``) used by the
network-wide error model (Theorem 5.5, in :mod:`repro.netwide.budget`) and
by the statistical tests that check the guarantees empirically.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

__all__ = [
    "z_quantile",
    "memento_min_tau",
    "memento_sampling_error",
    "hmemento_min_tau",
    "hmemento_sampling_error",
    "total_epsilon",
]

_STANDARD_NORMAL = NormalDist()


@functools.lru_cache(maxsize=128)
def z_quantile(prob: float) -> float:
    """Inverse CDF of the standard normal distribution (the paper's ``Z``).

    Computed by the standard library's ``NormalDist().inv_cdf``
    (Wichura's AS241 rational approximation, accurate to about 1e-16
    relative), so the package needs no scipy.  Memoized: sketches ask
    for the same few confidence levels on every output call.
    The paper notes ``Z_{1-δ/4} < 4`` for every ``δ > 1e-6``; tests pin
    that remark.

    >>> round(z_quantile(0.975), 2)
    1.96
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    return _STANDARD_NORMAL.inv_cdf(prob)


def memento_min_tau(window: int, eps_s: float, delta: float) -> float:
    """Theorem 5.2: smallest ``tau`` meeting (eps_s, delta) for Memento.

    The result is capped at 1.0 — tiny windows may simply require full
    updates for every packet.
    """
    _check(window, eps_s, delta)
    tau = z_quantile(1.0 - delta / 4.0) / (window * eps_s * eps_s)
    return min(1.0, tau)


def memento_sampling_error(window: int, tau: float, delta: float) -> float:
    """Inverse of Theorem 5.2: the ``eps_s`` guaranteed by a given ``tau``."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return math.sqrt(z_quantile(1.0 - delta / 4.0) / (window * tau))


def hmemento_min_tau(
    window: int, eps_s: float, delta: float, hierarchy_size: int
) -> float:
    """Theorem 5.3: smallest ``tau`` for H-Memento over ``H`` patterns."""
    _check(window, eps_s, delta)
    if hierarchy_size <= 0:
        raise ValueError(f"hierarchy_size must be positive, got {hierarchy_size}")
    tau = (
        z_quantile(1.0 - delta / 2.0)
        * hierarchy_size
        / (window * eps_s * eps_s)
    )
    return min(1.0, tau)


def hmemento_sampling_error(
    window: int, tau: float, delta: float, hierarchy_size: int
) -> float:
    """Inverse of Theorem 5.3: ``eps_s`` achieved by ``tau`` with ``H`` patterns.

    This is the ``eps_s = sqrt(H · Z / (W · tau))`` step inside the proof of
    Theorem 5.5.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    return math.sqrt(
        hierarchy_size * z_quantile(1.0 - delta / 2.0) / (window * tau)
    )


def total_epsilon(eps_algorithm: float, eps_sampling: float) -> float:
    """Overall error ``eps = eps_a + eps_s`` (Theorems 5.2/5.3)."""
    return eps_algorithm + eps_sampling


def _check(window: int, eps_s: float, delta: float) -> None:
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if not 0.0 < eps_s < 1.0:
        raise ValueError(f"eps_s must be in (0, 1), got {eps_s}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
