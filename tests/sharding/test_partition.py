"""Broadcast-and-filter routing, pinned to the scalar ``shard_index`` loop.

An integer batch is hashed once into an owner column
(``_owner_column``), and every shard selects its own positions from it
(``flatnonzero(owners == j)`` in ``_apply_selected``) and boxes only its
keys.  Any other batch goes through the scalar routing loop.  These
tests pin the owner column and what each shard is fed — on both
executors and both persistent lanes — to a reference implementation of
that scalar loop.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ShardedSketch, shard_index
from repro.sharding.executors import RING_MIN_ITEMS
from repro.sharding.sharded import (
    COALESCE_ITEMS,
    _apply_selected,
    _integer_column,
    _owner_column,
)


def reference_partition(items, shards):
    """The scalar routing loop every other path must reproduce."""
    per_positions = [[] for _ in range(shards)]
    per_items = [[] for _ in range(shards)]
    for idx, item in enumerate(items):
        j = shard_index(item, shards)
        per_positions[j].append(idx)
        per_items[j].append(item)
    return list(zip(per_positions, per_items))


class PlanRecorder:
    """A windowed stand-in shard that records what it is fed."""

    def __init__(self):
        self.plans = []

    def ingest_gap(self, count):  # pragma: no cover - no gaps fed here
        self.plans.append(("gap", count))

    def ingest_plan(self, plan, *, sampled=False):
        positions = (
            list(range(plan.n)) if plan.dense else plan.positions.tolist()
        )
        self.plans.append((positions, list(plan.items)))

    def update_many(self, items):  # the one-shard delegation path
        self.plans.append((list(range(len(items))), list(items)))


def fed_partition(items, shards, executor="serial"):
    """The ``(positions, items)`` each shard was fed for one batch."""
    with ShardedSketch(
        lambda i: PlanRecorder(), shards=shards, executor=executor
    ) as sharded:
        sharded.update_many(items)
        sharded.flush()
        fed = [shard.plans for shard in sharded.shards]
    assert all(len(plans) == 1 for plans in fed)
    return [plans[0] for plans in fed]


def selected(keys, owners, index):
    """What ``_apply_selected`` feeds shard ``index``."""
    recorder = PlanRecorder()
    _apply_selected(recorder, keys, owners, index, True, "update_many")
    (plan,) = recorder.plans
    return plan


class TestOwnerColumn:
    @pytest.mark.parametrize(
        "dtype", [np.int64, np.uint64, np.uint32, np.int32, np.int8]
    )
    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_matches_shard_index(self, dtype, shards, rng):
        info = np.iinfo(dtype)
        keys = rng.integers(info.min, info.max, size=999, dtype=dtype)
        owners = _owner_column(keys, shards)
        assert owners.tolist() == [
            shard_index(key, shards) for key in keys.tolist()
        ]


class TestGroupByOwner:
    """Each shard's selection from an owner column is the mask pass."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 16])
    def test_matches_mask_pass(self, shards, rng):
        owners = rng.integers(0, shards, size=501, dtype=np.uint64)
        keys = np.arange(501, dtype=np.int64)
        index = np.arange(len(owners), dtype=np.int64)
        for j in range(shards):
            positions, items = selected(keys, owners, j)
            assert positions == index[owners == j].tolist()
            # stream order preserved
            assert positions == sorted(positions)
            assert items == positions

    def test_empty_batch(self):
        keys = np.empty(0, dtype=np.int64)
        owners = np.empty(0, dtype=np.uint64)
        assert [selected(keys, owners, j) for j in range(4)] == [([], [])] * 4

    def test_all_one_owner(self):
        keys = np.arange(64, dtype=np.int64)
        owners = np.full(64, 2, dtype=np.uint64)
        sizes = [len(selected(keys, owners, j)[0]) for j in range(5)]
        assert sizes == [0, 0, 64, 0, 0]
        assert selected(keys, owners, 2) == (list(range(64)), list(range(64)))


class TestGatherItems:
    def test_inline_matches_take(self):
        rng = random.Random(11)
        keys = np.asarray([rng.randint(0, 1000) for _ in range(256)])
        owners = _owner_column(keys, 3)
        for j in range(3):
            positions, items = selected(keys, owners, j)
            assert items == keys.take(positions).tolist()
            # boxed as Python ints: sketch state must not see np.int64
            assert all(type(item) is int for item in items)


class TestPartitionPinned:
    """What every shard is fed must not depend on which lane routed it."""

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_int_batch_vectorized(self, shards):
        rng = random.Random(3)
        items = [rng.randint(0, 500) for _ in range(997)]
        assert _integer_column(items) is not None
        assert fed_partition(items, shards) == reference_partition(
            items, shards
        )

    def test_negative_ints(self):
        items = [-5, -1, 0, 7, -(2**40), 2**40, -3, -5]
        assert fed_partition(items, 4) == reference_partition(items, 4)

    def test_large_uint64_ints(self):
        items = [2**64 - 1, 2**63, 2**63 - 1, 1, 0, 2**64 - 17]
        assert fed_partition(items, 3) == reference_partition(items, 3)

    def test_float_batch_python_fallback(self):
        # floats must NOT vectorize (asarray would coerce and diverge
        # from hash routing); the scalar loop handles them
        items = [1.5, 2.5, 1.5, 3.0, 2.5]
        assert _integer_column(items) is None
        assert fed_partition(items, 3) == reference_partition(items, 3)

    def test_str_batch_python_fallback(self):
        items = [f"flow-{i % 11}" for i in range(200)]
        assert _integer_column(items) is None
        assert fed_partition(items, 4) == reference_partition(items, 4)

    def test_mixed_int_types_fallback(self):
        # the first element is an int, but asarray of the whole batch
        # makes a string column, which the dtype check rejects
        items = [1, "x", 3]
        assert _integer_column(items) is None
        assert fed_partition(items, 2) == reference_partition(items, 2)


class TestPartitionColumns:
    def test_matches_list_partition(self):
        # a list and the equal numpy columns (dispatched as is from
        # COALESCE_ITEMS keys up) feed every shard alike
        rng = random.Random(5)
        items = [rng.randint(0, 300) for _ in range(COALESCE_ITEMS + 17)]
        expected = reference_partition(items, 4)
        assert fed_partition(items, 4) == expected
        for dtype in (np.int64, np.uint32):
            column = np.asarray(items, dtype=dtype)
            assert fed_partition(column, 4) == expected

    def test_lists_for_non_vectorizable(self):
        for items in (["a", "b"], [1.5, 2.5], [True, 1]):
            assert _integer_column(items) is None
            assert fed_partition(items, 4) == reference_partition(items, 4)


class TestLanesSelectAlike:
    """Resident workers select exactly what the serial loop selects,
    whether the batch rode the shared ring or was pickled."""

    @pytest.mark.parametrize(
        "size", [RING_MIN_ITEMS - 1, 3 * RING_MIN_ITEMS], ids=["pickle", "ring"]
    )
    def test_persistent_matches_reference(self, size):
        rng = random.Random(17)
        items = [rng.randint(-1000, 1000) for _ in range(size)]
        assert fed_partition(items, 3, "persistent") == reference_partition(
            items, 3
        )

    def test_persistent_routes_strings(self):
        items = [f"flow-{i % 13}" for i in range(700)]
        assert fed_partition(items, 3, "persistent") == reference_partition(
            items, 3
        )
