"""The HHH output computation (Algorithm 2 lines 3-10, Algorithms 3 and 4).

All three HHH algorithms in this reproduction — H-Memento, MST, and RHHH —
share the same output stage: scan candidate prefixes bottom-up (depth 0
first), estimate each candidate's *conditioned frequency* with respect to
the heavy hitters already selected, and keep it when the (conservative)
estimate reaches ``theta * total``.

The conditioned frequency ``C_{p|P}`` subtracts traffic already claimed by
selected descendants.  In one dimension that is a plain subtraction
(Algorithm 3 / Lemma A.9); in two dimensions the subtracted descendants can
overlap, so the inclusion-exclusion correction adds back pairwise greatest
lower bounds (Algorithm 4 / Lemma A.14).

The computation is estimator-agnostic: callers supply ``upper`` (``f̂+``)
and ``lower`` (``f̂−``) bound functions plus a sampling ``correction``
(H-Memento and RHHH pass ``2 · Z_{1−δ} · sqrt(V · W)``; MST passes 0).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set

from .domain import Hierarchy

__all__ = ["calc_pred_1d", "calc_pred_2d", "compute_hhh", "group_by_depth"]

Estimator = Callable[[Hashable], float]


def calc_pred_1d(
    hierarchy: Hierarchy,
    prefix: Hashable,
    selected: Iterable[Hashable],
    lower: Estimator,
    upper: Estimator,
) -> float:
    """Algorithm 3: subtract the selected closest descendants' lower bounds."""
    return -sum(lower(h) for h in hierarchy.best_generalized(prefix, selected))


def calc_pred_2d(
    hierarchy: Hierarchy,
    prefix: Hashable,
    selected: Iterable[Hashable],
    lower: Estimator,
    upper: Estimator,
) -> float:
    """Algorithm 4: inclusion-exclusion over the selected descendants.

    Subtract each closest descendant's lower bound, then add back the upper
    bound of every pairwise greatest lower bound — unless a third member of
    ``G(p|P)`` generalizes that glb, in which case its mass was only
    subtracted once and needs no compensation.
    """
    best = hierarchy.best_generalized(prefix, selected)
    return _inclusion_exclusion(hierarchy, best, [lower(h) for h in best], upper)


def _inclusion_exclusion(
    hierarchy: Hierarchy,
    best: Sequence[Hashable],
    lowers: Sequence[float],
    upper: Estimator,
) -> float:
    """Algorithm 4 over a given ``G(p|P)`` and its members' lower bounds."""
    result = -sum(lowers)
    n = len(best)
    for i in range(n):
        h1 = best[i]
        for j in range(i + 1, n):
            meet = hierarchy.glb(h1, best[j])
            if meet is None:
                continue
            covered = any(
                k != i and k != j and hierarchy.generalizes(best[k], meet)
                for k in range(n)
            )
            if not covered:
                result += upper(meet)
    return result


def group_by_depth(
    hierarchy: Hierarchy, candidates: Iterable[Hashable]
) -> Dict[int, List[Hashable]]:
    """Bucket candidate prefixes by their depth level (0 = fully specified)."""
    levels: Dict[int, List[Hashable]] = defaultdict(list)
    for prefix in candidates:
        levels[hierarchy.depth(prefix)].append(prefix)
    return levels


def compute_hhh(
    hierarchy: Hierarchy,
    candidates: Iterable[Hashable],
    upper: Estimator,
    lower: Estimator,
    threshold_count: float,
    correction: float = 0.0,
) -> Set[Hashable]:
    """Run the bottom-up HHH scan and return the selected prefix set.

    Each candidate's ``G(p|P)`` is kept current as prefixes are selected
    instead of being recomputed from the whole selected set, so the scan
    is linear in the candidates: ``upper`` is called once per distinct
    candidate (and, in 2-D, for the glbs Algorithm 4 adds back) and
    ``lower`` once per selected prefix.

    In one dimension a caller whose ``lower`` is never negative may pass
    only the candidates with ``upper(p) + correction >= threshold_count``
    (in floats) and get the same set.  Algorithm 3's ``calcPred`` is
    ``−Σ lower ≤ 0``, so by monotone rounding a candidate's conditioned
    frequency ``(upper + pred) + correction`` never exceeds ``upper +
    correction``: a dropped candidate could not have been selected, and
    a candidate that is never selected never enters another's
    ``G(a|P)``.  ``HMemento.output`` prunes this way.  In two dimensions
    Algorithm 4 adds glb upper bounds back, ``pred`` can be positive,
    and every candidate must be scanned.

    Parameters
    ----------
    hierarchy:
        The prefix lattice (1-D or 2-D); selects the calcPred variant.
    candidates:
        Prefixes that currently hold a counter in the sketch — the paper's
        "only over prefixes with a counter" (Algorithm 2, line 6).
    upper / lower:
        Conservative frequency bound estimators ``f̂+`` / ``f̂−``.
    threshold_count:
        ``theta * W`` for window algorithms, ``theta * N`` for intervals.
    correction:
        The per-candidate sampling slack (Algorithm 2 line 8); zero for
        deterministic algorithms such as MST.

    Returns
    -------
    set
        The approximate HHH set ``P`` satisfying the coverage property with
        the configured confidence.
    """
    two_d = hierarchy.dimensions == 2
    # frontier[a] is G(a|P) for candidate a, each member mapped to its lower
    # bound (None while empty); selecting h updates h's strict ancestors only
    frontier: Dict[Hashable, Optional[Dict[Hashable, float]]] = dict.fromkeys(
        candidates
    )
    levels = group_by_depth(hierarchy, frontier)
    selected: Set[Hashable] = set()
    for depth in hierarchy.levels():
        for prefix in levels.get(depth, ()):
            best = frontier[prefix]
            if best is None:
                pred = 0
            elif two_d:
                pred = _inclusion_exclusion(
                    hierarchy, list(best), list(best.values()), upper
                )
            else:
                pred = -sum(best.values())
            conditioned = upper(prefix) + pred
            conditioned += correction
            if conditioned >= threshold_count:
                selected.add(prefix)
                _claim(hierarchy, prefix, lower(prefix), frontier)
    return selected


def _claim(
    hierarchy: Hierarchy,
    prefix: Hashable,
    bound: float,
    frontier: Dict[Hashable, Optional[Dict[Hashable, float]]],
) -> None:
    """Add a newly selected ``prefix`` to ``G(a|P)`` of its strict ancestors.

    The scan runs bottom-up, so every selected prefix so far is at most as
    deep as ``prefix`` and none lies strictly between it and an ancestor
    ``a``: ``G(a|P ∪ {h}) = G(a|P) − G(h|P) + {h}``.  Ancestors that are
    not candidates are never scanned, so their sets are not kept.
    """
    below = frontier[prefix] or ()
    parents = hierarchy.parents
    seen: Set[Hashable] = set()
    stack = list(parents(prefix))
    while stack:
        ancestor = stack.pop()
        if ancestor in seen:
            continue
        seen.add(ancestor)
        stack.extend(parents(ancestor))
        if ancestor not in frontier:
            continue
        front = frontier[ancestor]
        if front is None:
            front = frontier[ancestor] = {}
        for member in below:
            front.pop(member, None)
        front[prefix] = bound
