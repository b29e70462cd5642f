"""Argsort partition: pinned byte-identical to the historical S-pass.

``_group_by_owner`` replaced the per-shard boolean-mask loop
(``index[owners == j]`` for each shard ``j``) with one stable argsort
plus a ``searchsorted``.  These tests pin the new grouping — and the
partition built on it — byte-identical to a reference implementation
of the old loop.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ShardedSketch, SpaceSaving, shard_index
from repro.sharding.sharded import _group_by_owner


def reference_groups(owners: np.ndarray, shards: int):
    """The historical S-pass: one boolean mask per shard."""
    index = np.arange(len(owners), dtype=np.int64)
    return [index[owners == j] for j in range(shards)]


def reference_partition(items, shards, key_fn=None):
    """The scalar routing loop every vectorized path must reproduce."""
    per_positions = [[] for _ in range(shards)]
    per_items = [[] for _ in range(shards)]
    for idx, item in enumerate(items):
        key = item if key_fn is None else key_fn(item)
        j = shard_index(key, shards)
        per_positions[j].append(idx)
        per_items[j].append(item)
    return list(zip(per_positions, per_items))


def as_lists(partition):
    """A partition with numpy columns decoded to the reference's lists."""
    return [
        tuple(col.tolist() if isinstance(col, np.ndarray) else col for col in pair)
        for pair in partition
    ]


class TestGroupByOwner:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 16])
    def test_matches_mask_pass(self, shards, rng):
        owners = rng.integers(0, shards, size=501, dtype=np.uint64)
        groups = _group_by_owner(owners, shards)
        expected = reference_groups(owners, shards)
        assert len(groups) == shards
        for got, want in zip(groups, expected):
            assert np.array_equal(got, want)
            # stable sort ⇒ each group ascends (stream order preserved)
            assert np.all(np.diff(got) > 0) or got.size <= 1

    def test_empty_batch(self):
        owners = np.empty(0, dtype=np.uint64)
        groups = _group_by_owner(owners, 4)
        assert len(groups) == 4
        assert all(g.size == 0 for g in groups)

    def test_all_one_owner(self):
        owners = np.full(64, 2, dtype=np.uint64)
        groups = _group_by_owner(owners, 5)
        assert [g.size for g in groups] == [0, 0, 64, 0, 0]
        assert np.array_equal(groups[2], np.arange(64))


class TestGatherItems:
    def test_inline_matches_take(self):
        rng = random.Random(11)
        items = [rng.randint(0, 1000) for _ in range(256)]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=3)
        probe = np.asarray(items)
        for positions, owned in sketch._partition(items):
            assert np.array_equal(owned, probe[positions])


class TestPartitionPinned:
    """`_partition` output must not depend on which lane routed it."""

    def partition(self, items, shards, key_fn=None):
        sketch = ShardedSketch(
            lambda i: SpaceSaving(8), shards=shards, key_fn=key_fn
        )
        return as_lists(sketch._partition(items))

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_int_batch_vectorized(self, shards):
        rng = random.Random(3)
        items = [rng.randint(0, 500) for _ in range(997)]
        assert self.partition(items, shards) == reference_partition(
            items, shards
        )

    def test_negative_ints(self):
        items = [-5, -1, 0, 7, -(2**40), 2**40, -3, -5]
        assert self.partition(items, 4) == reference_partition(items, 4)

    def test_large_uint64_ints(self):
        items = [2**64 - 1, 2**63, 2**63 - 1, 1, 0, 2**64 - 17]
        assert self.partition(items, 3) == reference_partition(items, 3)

    def test_float_batch_python_fallback(self):
        # floats must NOT vectorize (asarray would coerce and diverge
        # from hash routing); the Python loop handles them
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=3)
        items = [1.5, 2.5, 1.5, 3.0, 2.5]
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(items, 3)

    def test_str_batch_python_fallback(self):
        items = [f"flow-{i % 11}" for i in range(200)]
        assert self.partition(items, 4) == reference_partition(items, 4)

    def test_key_fn_disables_vectorized_lane(self):
        key_fn = lambda item: item // 10  # noqa: E731
        items = list(range(100))
        sketch = ShardedSketch(
            lambda i: SpaceSaving(8), shards=4, key_fn=key_fn
        )
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(
            items, 4, key_fn=key_fn
        )

    def test_mixed_int_types_fallback(self):
        # a bool is an int subclass but `type(items[0]) is int` gates the
        # lane on the first element; mixing later elements still routes
        # through asarray, whose dtype check rejects object columns
        items = [1, "x", 3]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=2)
        assert sketch._route_owners(items) is None
        assert sketch._partition(items) == reference_partition(items, 2)



class TestPartitionColumns:
    def test_matches_list_partition(self):
        rng = random.Random(5)
        items = [rng.randint(0, 300) for _ in range(800)]
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=4)
        columns = sketch._partition(items)
        for positions, owned in columns:
            assert isinstance(positions, np.ndarray)
            assert positions.dtype == np.int64
            assert isinstance(owned, np.ndarray)
        assert as_lists(columns) == reference_partition(items, 4)

    def test_lists_for_non_vectorizable(self):
        sketch = ShardedSketch(lambda i: SpaceSaving(8), shards=4)
        for items in (["a", "b"], [1.5, 2.5]):
            partition = sketch._partition(items)
            assert all(
                isinstance(positions, list) and isinstance(owned, list)
                for positions, owned in partition
            )
            assert partition == reference_partition(items, 4)
        assert sketch._partition([]) == [([], [])] * 4
