"""A restored state whose counters disagree with themselves is refused.

``HeavyHitterEngine.restore_state`` checks every Memento, Space Saving,
exact window counter and per-pattern sketch it adopts.  Each case here
damages one live sketch in one way a flipped bit could, and the restore
must fail with ``ValueError`` naming what is wrong (``CheckpointStore``
turns it into ``CheckpointError``); the undamaged sketch restores.
"""

from __future__ import annotations

import pytest

from repro.engine import SketchSpec, build_engine
from repro.engine.registry import algorithm_info
from repro.service.checkpoint import CheckpointError, CheckpointStore


def spec_of(family):
    info = algorithm_info(family)
    algorithm = {"family": family, "seed": 3}
    if info.needs_window:
        algorithm["window"] = 512
    if info.counter_mode != "none":
        algorithm["counters"] = 64
    payload = {"algorithm": algorithm}
    if info.hierarchical:
        payload["hierarchy"] = {"kind": "src"}
    return SketchSpec.from_dict(payload)


def live_sketch(family):
    """A bare sketch of ``family`` after 3,000 scattered packets."""
    with build_engine(spec_of(family)) as engine:
        engine.update_many([(i * 2654435761) % 2**32 for i in range(3000)])
        return engine.sketch


def rekey(ss, old, new):
    """Rename ``old`` to ``new`` in a Space Saving, in place."""
    bucket = ss._index.pop(old)
    bucket.keys[new] = bucket.keys.pop(old)
    ss._index[new] = bucket


def off_pattern(sketch):
    """Give the /24 instance a key with bits below its mask."""
    instance = sketch._instances[1]
    ip, length = next(iter(instance._index))
    rekey(instance, (ip, length), (ip | 1, length))


def second_bucket_ties_head(ss):
    ss._head.next.value = ss._head.value


def error_past_value(ss):
    key, _ = next(iter(ss._head.keys.items()))
    ss._head.keys[key] = ss._head.value + 1


def unindexed_key(ss):
    del ss._index[next(iter(ss._head.keys))]


def ring_count_off(counter):
    key = next(iter(counter._counts))
    counter._counts[key] += 1


def pattern_choice_past_h(sketch):
    sketch._pattern_buf[-1] = sketch.hierarchy.num_patterns


#: (id, family, damage, message)
CASES = [
    ("ss-values", "space_saving", second_bucket_ties_head, "rise strictly"),
    ("ss-error", "space_saving", error_past_value, "error is outside"),
    ("ss-index", "space_saving", unindexed_key, "index does not map"),
    ("ss-items", "space_saving", lambda ss: setattr(ss, "_items", ss._items + 1),
     "do not sum to the items"),
    ("ss-size", "space_saving", lambda ss: setattr(ss, "_size", ss._size + 1),
     "size disagrees"),
    ("memento-y-items", "memento",
     lambda m: setattr(m._y, "_items", m._y._items - 1), "do not sum to the items"),
    ("memento-y-counters", "memento",
     lambda m: setattr(m._y, "counters", m.k + 1), "does not have 64 counters"),
    ("memento-inv-tau", "memento",
     lambda m: setattr(m, "_inv_tau", m._inv_tau * (1 + 2**-40)), "inverse of its tau"),
    ("exact-counts", "exact", ring_count_off, "tally of its ring"),
    ("exact-ring", "exact", lambda c: c._ring.append(None), "ring is not"),
    ("exact-total", "exact", lambda c: setattr(c, "_total", 1), "more packets"),
    ("mst-packets", "mst", lambda s: setattr(s, "_packets", s._packets + 1),
     "did not count every packet"),
    ("mst-key", "mst", off_pattern, "not a prefix of it"),
    ("rhhh-sampled", "rhhh", lambda s: setattr(s, "_sampled", s._sampled + 1),
     "do not sum to its sampled"),
    ("rhhh-choices", "rhhh", pattern_choice_past_h, "pattern choices"),
    ("rhhh-key", "rhhh", off_pattern, "not a prefix of it"),
    ("baseline-packets", "window_baseline",
     lambda s: setattr(s, "_packets", s._packets - 1), "did not take every packet"),
]


@pytest.mark.parametrize(
    "family, damage, message",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_damaged_state_is_refused(family, damage, message):
    sketch = live_sketch(family)
    with build_engine(spec_of(family)) as engine:
        engine.restore_state({"kind": "bare", "state": sketch})
    damage(sketch)
    with build_engine(spec_of(family)) as engine:
        with pytest.raises(ValueError, match=f"is damaged: .*{message}"):
            engine.restore_state({"kind": "bare", "state": sketch})


def test_the_store_names_the_damage(tmp_path):
    sketch = live_sketch("exact")
    ring_count_off(sketch)
    store = CheckpointStore(tmp_path)
    store.save(spec_of("exact"), 3000, {"kind": "bare", "state": sketch})
    with pytest.raises(CheckpointError, match="tally of its ring"):
        store.restore()
