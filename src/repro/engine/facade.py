"""The :class:`HeavyHitterEngine` facade: one entry point for every mode.

The paper's deployment story (Section 6: a single HAProxy-integrated
measurement service spanning single-device, hierarchical, and
network-wide modes) assumes one coherent surface.  ``build_engine(spec)``
is that surface: it reads a declarative :class:`~repro.engine.spec
.SketchSpec`, resolves the algorithm family through the registry, and
composes the bare sketch and :class:`~repro.sharding.ShardedSketch`
scale-out internally — callers never thread constructor arguments
through four layers again.

The engine exposes the **unified surface** every deployment scenario
shares::

    update / update_many / extend          # ingestion
    query / heavy_hitters(theta) / top_k(k) / entries
    stats() / flush() / close()            # introspection & lifecycle
    with build_engine(spec) as engine: ...  # context manager

plus capability passthroughs (``ingest_gap`` / ``ingest_samples`` for
windowed families, ``output`` / ``heavy_prefixes`` for hierarchical
ones) and attribute delegation to the wrapped sketch, so the engine is a
drop-in replacement wherever a sketch was hosted before.

Construction is **state-identical** to hand-wiring: an engine-built
``Memento`` / sharded / resident-worker deployment is byte-for-byte the same
as the equivalent explicit construction under a fixed seed — pinned by
``tests/engine/test_engine.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.api import Entry
from ..core.exact import ExactWindowCounter
from ..core.memento import Memento
from ..core.mst import MST, WindowBaseline
from ..core.rhhh import RHHH
from ..core.space_saving import SpaceSaving
from ..hierarchy.domain import Hierarchy
from ..sharding.sharded import ShardedSketch
from .registry import AlgorithmInfo, algorithm_info
from .spec import SketchSpec

__all__ = ["HeavyHitterEngine", "build_engine"]

SpecLike = Union[SketchSpec, Dict[str, object], str, Path]


def _coerce_spec(spec: SpecLike) -> SketchSpec:
    """Accept a spec object, a plain dict, or a JSON file path."""
    if isinstance(spec, SketchSpec):
        return spec
    if isinstance(spec, dict):
        return SketchSpec.from_dict(spec)
    if isinstance(spec, (str, Path)):
        return SketchSpec.from_file(spec)
    raise TypeError(
        f"spec must be a SketchSpec, a dict, or a path to a JSON spec "
        f"file, got {type(spec).__name__}"
    )


def build_engine(
    spec: SpecLike, hierarchy: Optional[Hierarchy] = None
) -> "HeavyHitterEngine":
    """Build a :class:`HeavyHitterEngine` from a declarative spec.

    ``spec`` may be a :class:`SketchSpec`, a plain dict, or a path to a
    JSON spec file.  ``hierarchy`` overrides the spec's hierarchy section
    with a ready :class:`Hierarchy` object — required when the spec says
    ``{"kind": "custom"}``, ignored for non-hierarchical families.
    """
    return HeavyHitterEngine.from_spec(spec, hierarchy=hierarchy)


class HeavyHitterEngine:
    """One stable surface over bare and sharded deployments.

    Build through :func:`build_engine` / :meth:`from_spec`; direct
    construction wires a pre-built sketch to its spec and registry entry
    (the escape hatch for tests and custom composition).

    Examples
    --------
    >>> from repro.engine import build_engine
    >>> with build_engine({
    ...     "algorithm": {"family": "space_saving", "counters": 8},
    ... }) as engine:
    ...     engine.update_many(["a", "a", "b"])
    ...     engine.top_k(1)
    [('a', 2)]
    """

    def __init__(
        self, sketch: Any, spec: SketchSpec, info: AlgorithmInfo
    ) -> None:
        self._sketch = sketch
        self._spec = spec
        self._info = info

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: SpecLike, hierarchy: Optional[Hierarchy] = None
    ) -> "HeavyHitterEngine":
        """Resolve ``spec`` through the registry and compose the stack."""
        spec = _coerce_spec(spec)
        info = algorithm_info(spec.algorithm.family)
        if hierarchy is None and spec.hierarchy is not None:
            hierarchy = spec.hierarchy.resolve()
        if info.hierarchical and hierarchy is None:
            raise ValueError(
                f"{info.name} needs a hierarchy: add a hierarchy section "
                f"or pass build_engine(spec, hierarchy=...)"
            )
        sharding = spec.sharding
        if sharding is None:
            sketch = info.factory(spec.algorithm, hierarchy, None)
            return cls(sketch, spec, info)
        query_mode = sharding.query_mode
        if query_mode is None:
            # prefix queries span routing shards; flat keys route cleanly
            query_mode = "sum" if info.hierarchical else "route"

        def factory(shard_id: int) -> object:
            return info.factory(spec.algorithm, hierarchy, shard_id)

        sketch = ShardedSketch(
            factory,
            shards=sharding.shards,
            executor=sharding.executor,
            query_mode=query_mode,
            merge_counters=sharding.merge_counters,
            windowed=info.windowed,
        )
        return cls(sketch, spec, info)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> SketchSpec:
        """The declarative spec this engine was built from."""
        return self._spec

    @property
    def sketch(self) -> Any:
        """The composed sketch stack (bare sketch or ShardedSketch)."""
        return self._sketch

    @property
    def capabilities(self) -> FrozenSet[str]:
        """The algorithm family's declared capability set."""
        return self._info.capabilities

    @property
    def family(self) -> str:
        """The algorithm family name."""
        return self._info.name

    @property
    def sharded(self) -> bool:
        """Whether the stack includes the sharding layer."""
        return isinstance(self._sketch, ShardedSketch)

    @property
    def windowed(self) -> bool:
        """Whether the family advances a sliding window."""
        return self._info.windowed

    def stats(self) -> Dict[str, object]:
        """A flat snapshot of what is deployed and how much it has seen."""
        sketch = self._sketch
        out: Dict[str, object] = {
            "family": self._info.name,
            "capabilities": sorted(self._info.capabilities),
            "sharded": self.sharded,
            "shards": getattr(sketch, "num_shards", 1),
        }
        for attr in ("updates", "packets", "processed"):
            seen = getattr(sketch, attr, None)
            if seen is not None and not callable(seen):
                out["updates"] = int(seen)
                break
        else:
            out["updates"] = None
        if self._spec.algorithm.window is not None:
            out["window"] = self._spec.algorithm.window
        return out

    # ------------------------------------------------------------------
    # unified ingestion surface
    # ------------------------------------------------------------------
    def update(self, item: Hashable) -> None:
        """Ingest one item."""
        self._sketch.update(item)

    def update_many(self, items: Sequence[Hashable]) -> None:
        """Ingest a materialized batch (list/tuple fast path)."""
        self._sketch.update_many(items)

    def extend(
        self, iterable: Iterable[Hashable], chunk_size: int = 4096
    ) -> None:
        """Ingest any iterable in chunks."""
        self._sketch.extend(iterable, chunk_size=chunk_size)

    # ------------------------------------------------------------------
    # unified query surface
    # ------------------------------------------------------------------
    def query(self, key: Hashable) -> float:
        """Frequency estimate for ``key`` (family-native units)."""
        return self._sketch.query(key)

    def heavy_hitters(self, theta: float) -> Dict[Hashable, float]:
        """Keys above the family's ``theta`` threshold convention."""
        return self._sketch.heavy_hitters(theta)

    def top_k(self, k: int) -> List[Tuple[Hashable, float]]:
        """The ``k`` largest tracked keys as ``(key, estimate)`` pairs."""
        return self._sketch.top_k(k)

    def entries(self) -> List[Entry]:
        """The mergeable ``(key, estimate, guaranteed)`` snapshot."""
        return self._sketch.entries()

    # ------------------------------------------------------------------
    # capability passthroughs (windowed / hierarchical families)
    # ------------------------------------------------------------------
    def ingest_gap(self, count: int) -> None:
        """Advance the window for ``count`` uninserted packets."""
        self._sketch.ingest_gap(count)

    def ingest_sample(self, item: Hashable) -> None:
        """Full update for one externally-sampled packet."""
        self._sketch.ingest_sample(item)

    def ingest_samples(self, items: Sequence[Hashable]) -> None:
        """Full updates for a batch of externally-sampled packets."""
        self._sketch.ingest_samples(items)

    def candidates(self) -> List[Hashable]:
        """Keys/prefixes the sketch currently tracks."""
        candidates = getattr(self._sketch, "candidates", None)
        if candidates is not None:
            return candidates()
        return [key for key, _, _ in self._sketch.entries()]

    def query_point(self, key: Hashable) -> float:
        """Midpoint (bias-removed) estimate when the family has one."""
        query_point = getattr(self._sketch, "query_point", None)
        if query_point is not None:
            return query_point(key)
        return self._sketch.query(key)

    def query_lower(self, key: Hashable) -> float:
        """Guaranteed (lower-bound) estimate when the family has one."""
        for name in ("query_lower", "lower_bound"):
            fn = getattr(self._sketch, name, None)
            if fn is not None:
                return fn(key)
        return self._sketch.query(key)

    def heavy_prefixes(self, theta: float) -> Dict[Hashable, float]:
        """Prefix enumeration for hierarchical families; else plain HH."""
        heavy_prefixes = getattr(self._sketch, "heavy_prefixes", None)
        if heavy_prefixes is not None:
            return heavy_prefixes(theta)
        return self._sketch.heavy_hitters(theta)

    def output(self, theta: float) -> Set[Hashable]:
        """The HHH output set (hierarchical) or the heavy-hitter keys."""
        output = getattr(self._sketch, "output", None)
        if output is not None:
            return output(theta)
        return set(self._sketch.heavy_hitters(theta))

    # ------------------------------------------------------------------
    # state snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Picklable snapshot of the composed sketch stack's state.

        Sharded stacks delegate to
        :meth:`~repro.sharding.ShardedSketch.state_snapshot` (buffered
        writes applied, resident worker state pulled back); bare
        sketches are snapshotted whole.  The snapshot references live objects — it is
        meant to be pickled immediately, which is what
        :mod:`repro.service`'s checkpoint writer does.
        """
        if self.sharded:
            return {"kind": "sharded", "state": self._sketch.state_snapshot()}
        return {"kind": "bare", "state": self._sketch}

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Adopt a :meth:`snapshot_state` as the engine's current state.

        The engine must have been built from the same spec that produced
        the snapshot (``CheckpointStore.restore`` guarantees this by
        rebuilding via :func:`build_engine` from the checkpointed spec).
        A snapshot that does not have the built stack's shape fails fast
        with ``ValueError``: sharded against bare, or a sketch whose
        class or attribute names differ from the one the spec builds
        (a checkpoint whose spec names another family, or whose state
        was damaged past its CRC).  So does a state whose counters
        disagree with themselves: a Memento's overflow records, a Space
        Saving's counters and their total, an exact counter's counts and
        its ring, or a per-pattern sketch's keys and its patterns, bare,
        sharded or nested (see :func:`_check_shape`).
        """
        if not isinstance(snapshot, dict) or set(snapshot) != {"kind", "state"}:
            raise ValueError("snapshot is not a {'kind', 'state'} mapping")
        kind = snapshot["kind"]
        expected = "sharded" if self.sharded else "bare"
        if kind != expected:
            raise ValueError(
                f"snapshot kind {kind!r} does not match this engine's "
                f"stack ({expected!r}) — was it taken under the same spec?"
            )
        state = snapshot["state"]
        if self.sharded:
            if (
                not isinstance(state, dict)
                or set(state) != {"shards", "updates"}
                or not isinstance(state["shards"], list)
                or not isinstance(state["updates"], int)
            ):
                raise ValueError("sharded snapshot is not a shard list and count")
            for built, adopted in zip(self._sketch.shards, state["shards"]):
                _check_shape(built, adopted, "shard")
            self._sketch.restore_state(state)
        else:
            _check_shape(self._sketch, state, "sketch")
            self._sketch = state

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Apply any coalesced writes (no-op for bare sketches)."""
        flush = getattr(self._sketch, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Release executor workers (idempotent no-op for bare sketches);
        queries keep working on the synced state."""
        close = getattr(self._sketch, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "HeavyHitterEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # compatibility passthrough
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        """Delegate anything else to the wrapped sketch.

        The unified surface above is the stable API; the passthrough
        keeps family-specific extras (``windowed_entries``,
        ``full_update_many``, ``merged_window`` ...) reachable so the
        engine hosts anywhere a bare sketch did.
        """
        if name in ("_sketch", "_spec", "_info"):
            # the engine's own state: absent only mid-(un)pickle/init —
            # delegating would recurse
            raise AttributeError(name)
        return getattr(self._sketch, name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"HeavyHitterEngine(family={self._info.name!r}, "
            f"sharded={self.sharded}, sketch={self._sketch!r})"
        )


def _attribute_names(obj: object) -> Set[str]:
    """The instance attributes ``obj`` holds: its ``__dict__`` keys and
    the slots that are set."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            try:
                object.__getattribute__(obj, slot)
            except AttributeError:
                continue
            names.add(slot)
    return names


def _is_ours(value: object) -> bool:
    return type(value).__module__.startswith("repro.")


def _check_shape(built: object, adopted: object, where: str) -> None:
    """Raise ``ValueError`` unless ``adopted`` has ``built``'s class and
    attribute names, recursively through the project objects (samplers,
    inner sketches, hierarchies) it holds, alone or in a list.

    Values are not compared: a restored sketch's counts are its own,
    though each Memento, Space Saving, exact window counter and
    per-pattern sketch met on the way must agree with itself
    (:func:`_check_memento` and the other ``_check_*`` functions).
    """
    if type(adopted) is not type(built):
        raise ValueError(
            f"{where} is a {type(adopted).__name__}, the spec builds a "
            f"{type(built).__name__}"
        )
    names = _attribute_names(built)
    stray = names ^ _attribute_names(adopted)
    if stray:
        raise ValueError(
            f"{where} ({type(built).__name__}) differs in attributes "
            f"{sorted(stray)}"
        )
    for name in names:
        mine = getattr(built, name)
        theirs = getattr(adopted, name)
        if _is_ours(mine):
            _check_shape(mine, theirs, f"{where}.{name}")
        elif isinstance(mine, list) and mine and all(map(_is_ours, mine)):
            if not isinstance(theirs, list) or len(theirs) != len(mine):
                raise ValueError(
                    f"{where}.{name} is not a list of {len(mine)} entries"
                )
            for index, (inner, other) in enumerate(zip(mine, theirs)):
                _check_shape(inner, other, f"{where}.{name}[{index}]")
    check = next(
        (_CHECKS[cls] for cls in type(adopted).__mro__ if cls in _CHECKS), None
    )
    if check is None:
        return
    try:
        problem = check(adopted)
    except (TypeError, ArithmeticError) as exc:  # a value of the wrong type
        problem = str(exc)
    if problem is not None:
        raise ValueError(
            f"{where} ({type(adopted).__name__}) is damaged: {problem}"
        )


# Each check below returns what is wrong with a restored object, or None
# when it agrees with itself.  A state damaged past its CRC can still
# pass: a flipped counter value or key can be well-formed.


def _check_memento(m: Memento) -> Optional[str]:
    """The count ring holds ``k + 1`` counts, each in ``[0, block_size]``
    (a block takes at most one record per update); they sum to the
    FIFO's length; the overflow table ``B`` counts the FIFO's records
    exactly (so every count is above 0); ``y`` has ``k`` counters (it is
    checked as a Space Saving of its own); and ``1/tau`` is the inverse
    of ``tau``."""
    counts = m._counts
    if len(counts) != m.k + 1 or not all(
        0 <= count <= m.block_size for count in counts
    ):
        return f"its count ring is not {m.k + 1} counts in [0, {m.block_size}]"
    if sum(counts) != len(m._fifo):
        return "its count ring does not sum to its FIFO's length"
    if Counter(m._fifo) != m._offsets:
        return "its overflow table does not count its FIFO's records"
    if m._y.counters != m.k:
        return f"its Space Saving does not have {m.k} counters"
    if m._inv_tau != 1.0 / m.tau:
        return "its 1/tau is not the inverse of its tau"
    return None


def _check_space_saving(ss: SpaceSaving) -> Optional[str]:
    """The bucket chain's values rise strictly from 1; every key's error
    lies in ``[0, value]``; the index holds exactly the chain's keys, at
    most ``counters`` of them; and the counters sum to the items
    processed, as every arrival adds its weight to one counter."""
    index = ss._index
    keys = total = 0
    last = 0
    bucket = ss._head
    while bucket is not None:
        value = bucket.value
        if value <= last:
            return "its counter values do not rise strictly from 1"
        for key, error in bucket.keys.items():
            if not 0 <= error <= value:
                return "a key's error is outside [0, its value]"
            if index.get(key) is not bucket:
                return "its index does not map a key to its bucket"
        keys += len(bucket.keys)
        total += value * len(bucket.keys)
        last = value
        bucket = bucket.next
    if not keys == ss._size == len(index) <= ss.counters:
        return "its size disagrees with its keys or exceeds its counters"
    if total != ss._items:
        return "its counters do not sum to the items it processed"
    return None


def _check_exact(counter: ExactWindowCounter) -> Optional[str]:
    """The ring holds ``window`` slots and the position is one of them;
    the counts are exactly the tally of the ring's keys, so their total
    is the packets the window holds, at most the packets seen."""
    ring = counter._ring
    if len(ring) != counter.window or not 0 <= counter._pos < counter.window:
        return f"its ring is not {counter.window} slots with a position in it"
    tally = Counter(key for key in ring if key is not None)
    if tally != counter._counts:
        return "its counts are not the tally of its ring's keys"
    if sum(tally.values()) > counter._total:
        return "its window holds more packets than it has seen"
    return None


def _pattern_problem(sketch: Any) -> Optional[str]:
    """Every key instance ``i`` of a per-pattern sketch holds is a
    canonical prefix of pattern ``i``: a key outside the lattice, or in
    another pattern's instance, is no state the sketch can reach."""
    hierarchy = sketch.hierarchy
    code_of = hierarchy.code_of
    pattern_index = hierarchy.pattern_index
    for index, instance in enumerate(sketch._instances):
        if isinstance(instance, Memento):
            keys: Iterable[Hashable] = chain(instance._offsets, instance._y._index)
        else:
            keys = instance._index
        for key in keys:
            # a key code_of accepts has a pattern
            if code_of(key) is None or pattern_index(key) != index:
                return f"its pattern {index} instance holds {key!r}, not a prefix of it"
    return None


def _check_mst(sketch: MST) -> Optional[str]:
    """Every pattern's instance counted every packet."""
    if any(instance._items != sketch._packets for instance in sketch._instances):
        return "an instance did not count every packet"
    return _pattern_problem(sketch)


def _check_window_baseline(sketch: WindowBaseline) -> Optional[str]:
    """Every pattern's Memento took every packet."""
    if any(instance._updates != sketch._packets for instance in sketch._instances):
        return "an instance did not take every packet"
    return _pattern_problem(sketch)


def _check_rhhh(sketch: RHHH) -> Optional[str]:
    """The instances counted the sampled packets between them, and the
    buffered pattern choices name patterns."""
    patterns = range(sketch.hierarchy.num_patterns)
    if sum(instance._items for instance in sketch._instances) != sketch._sampled:
        return "its instances do not sum to its sampled packets"
    if not sketch._sampled <= sketch._packets:
        return "it sampled more packets than it saw"
    if not 0 <= sketch._pattern_pos <= len(sketch._pattern_buf) or not all(
        choice in patterns for choice in sketch._pattern_buf
    ):
        return "its pattern choices are not patterns"
    return _pattern_problem(sketch)


_CHECKS: Dict[type, Callable[[Any], Optional[str]]] = {
    Memento: _check_memento,
    SpaceSaving: _check_space_saving,
    ExactWindowCounter: _check_exact,
    MST: _check_mst,
    WindowBaseline: _check_window_baseline,
    RHHH: _check_rhhh,
}
