"""Hierarchy lattice laws for the 1-D and 2-D byte hierarchies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SRC_DST_HIERARCHY, SRC_HIERARCHY, ip_to_int

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.sampled_from([0, 8, 16, 24, 32])


def prefix1(ip, length):
    return (ip & SRC_HIERARCHY._masks[(32 - length) // 8], length)


prefixes_1d = st.builds(prefix1, ips, lengths)
prefixes_2d = st.builds(
    lambda s, sl, d, dl: (
        s & __import__("repro").hierarchy.prefix.MASKS[sl],
        sl,
        d & __import__("repro").hierarchy.prefix.MASKS[dl],
        dl,
    ),
    ips,
    lengths,
    ips,
    lengths,
)


class TestHierarchy1D:
    def test_constants(self):
        assert SRC_HIERARCHY.num_patterns == 5
        assert SRC_HIERARCHY.max_depth == 4
        assert SRC_HIERARCHY.dimensions == 1
        assert list(SRC_HIERARCHY.levels()) == [0, 1, 2, 3, 4]

    def test_all_prefixes_order_and_content(self):
        pkt = ip_to_int("181.7.20.6")
        rendered = [SRC_HIERARCHY.format(p) for p in SRC_HIERARCHY.all_prefixes(pkt)]
        assert rendered == ["181.7.20.6", "181.7.20.*", "181.7.*", "181.*", "*"]

    @given(ips, st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_prefix_at_matches_all_prefixes(self, pkt, idx):
        assert SRC_HIERARCHY.prefix_at(pkt, idx) == SRC_HIERARCHY.all_prefixes(pkt)[idx]

    @given(prefixes_1d)
    @settings(max_examples=100, deadline=None)
    def test_depth_pattern_consistency(self, prefix):
        assert SRC_HIERARCHY.depth(prefix) == SRC_HIERARCHY.pattern_index(prefix)

    @given(prefixes_1d)
    @settings(max_examples=100, deadline=None)
    def test_parents_are_one_level_up(self, prefix):
        parents = SRC_HIERARCHY.parents(prefix)
        if prefix[1] == 0:
            assert parents == ()
        else:
            (parent,) = parents
            assert SRC_HIERARCHY.depth(parent) == SRC_HIERARCHY.depth(prefix) + 1
            assert SRC_HIERARCHY.generalizes(parent, prefix)

    @given(prefixes_1d, prefixes_1d)
    @settings(max_examples=150, deadline=None)
    def test_glb_is_meet(self, p, q):
        meet = SRC_HIERARCHY.glb(p, q)
        if meet is not None:
            assert SRC_HIERARCHY.generalizes(p, meet)
            assert SRC_HIERARCHY.generalizes(q, meet)
        else:
            # disjoint: no packet generalized by both
            assert not SRC_HIERARCHY.generalizes(p, q)
            assert not SRC_HIERARCHY.generalizes(q, p)

    def test_root(self):
        assert SRC_HIERARCHY.root() == (0, 0)
        assert SRC_HIERARCHY.depth(SRC_HIERARCHY.root()) == 4

    @given(st.lists(st.tuples(ips, st.integers(0, 4)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_codes_at_matches_code_at(self, pairs):
        packets = [pkt for pkt, _ in pairs]
        patterns = [idx for _, idx in pairs]
        got = SRC_HIERARCHY.codes_at(packets, patterns)
        assert got == [SRC_HIERARCHY.code_at(p, i) for p, i in pairs]
        # plain Python ints, so sketch keys (and pickled state) match the
        # scalar path's
        assert all(type(code) is int for code in got)

    @given(ips, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_code_at_encodes_prefix_at(self, pkt, idx):
        prefix = SRC_HIERARCHY.prefix_at(pkt, idx)
        code = SRC_HIERARCHY.code_at(pkt, idx)
        assert code == SRC_HIERARCHY.code_of(prefix)
        assert SRC_HIERARCHY.prefix_of(code) == prefix

    @given(prefixes_1d)
    @settings(max_examples=100, deadline=None)
    def test_code_of_and_prefix_of_are_inverses(self, prefix):
        code = SRC_HIERARCHY.code_of(prefix)
        assert type(code) is int and 0 <= code < 2**38
        assert SRC_HIERARCHY.prefix_of(code) == prefix

    @given(st.lists(prefixes_1d, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_prefixes_of_matches_prefix_of(self, prefixes):
        codes = [SRC_HIERARCHY.code_of(prefix) for prefix in prefixes]
        got = SRC_HIERARCHY.prefixes_of(codes)
        assert got == prefixes
        assert all(type(v) is int for prefix in got for v in prefix)
        assert SRC_HIERARCHY.prefixes_of(dict.fromkeys(codes)) == list(
            dict.fromkeys(prefixes)
        )

    @pytest.mark.parametrize(
        "key",
        [
            (0x0A0B0C0D, 24),  # bits below the mask
            (0x0A000000, 12),  # off the byte grid
            (2**40, 32),
            (-256, 24),
            (1.5, 32),
            (5,),
            (1, 2, 3, 4),
            "ab",
            7,
            None,
        ],
    )
    def test_code_of_a_non_prefix_is_none(self, key):
        assert SRC_HIERARCHY.code_of(key) is None

    def test_code_of_accepts_numpy_fields(self):
        prefix = (np.int64(0x0A0B0C00), np.int64(24))
        assert SRC_HIERARCHY.code_of(prefix) == SRC_HIERARCHY.code_of((0x0A0B0C00, 24))

    @pytest.mark.parametrize(
        "packets",
        [[-5, 2**40], [2**63 + 7], [True, 3]],
        ids=["negative-and-wide", "beyond-int64", "bool"],
    )
    def test_codes_at_edge_integers(self, packets):
        patterns = list(range(len(packets)))
        assert SRC_HIERARCHY.codes_at(packets, patterns) == [
            SRC_HIERARCHY.code_at(p, i) for p, i in zip(packets, patterns)
        ]

    def test_codes_at_rejects_what_code_at_rejects(self):
        with pytest.raises(TypeError):
            SRC_HIERARCHY.prefix_at(1.5, 0)
        with pytest.raises(TypeError):
            SRC_HIERARCHY.code_at(1.5, 0)
        with pytest.raises(TypeError):
            SRC_HIERARCHY.codes_at([1.5], [0])


class TestHierarchy2D:
    def test_constants(self):
        assert SRC_DST_HIERARCHY.num_patterns == 25
        assert SRC_DST_HIERARCHY.max_depth == 8  # 9 levels, 0..8
        assert SRC_DST_HIERARCHY.dimensions == 2

    def test_all_prefixes_count_and_uniqueness_of_patterns(self):
        pkt = (ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8"))
        prefixes = SRC_DST_HIERARCHY.all_prefixes(pkt)
        assert len(prefixes) == 25
        patterns = {(p[1], p[3]) for p in prefixes}
        assert len(patterns) == 25

    def test_paper_two_parents_example(self):
        """(181.7.20.6, 208.67.222.222) has exactly the two parents from §4.2."""
        full = (ip_to_int("181.7.20.6"), 32, ip_to_int("208.67.222.222"), 32)
        parents = set(SRC_DST_HIERARCHY.parents(full))
        expected = {
            (ip_to_int("181.7.20.0"), 24, ip_to_int("208.67.222.222"), 32),
            (ip_to_int("181.7.20.6"), 32, ip_to_int("208.67.222.0"), 24),
        }
        assert parents == expected

    @given(prefixes_2d)
    @settings(max_examples=100, deadline=None)
    def test_depth_sums_dimensions(self, prefix):
        assert SRC_DST_HIERARCHY.depth(prefix) == (32 - prefix[1]) // 8 + (
            32 - prefix[3]
        ) // 8

    @given(prefixes_2d, prefixes_2d)
    @settings(max_examples=200, deadline=None)
    def test_glb_definition(self, h1, h2):
        """glb is the greatest common descendant (Definition 4.3)."""
        meet = SRC_DST_HIERARCHY.glb(h1, h2)
        if meet is None:
            # incomparable in some dimension -> no common descendant
            src_ok = (
                SRC_DST_HIERARCHY.generalizes(
                    (h1[0], h1[1], 0, 0), (h2[0], h2[1], 0, 0)
                )
                or SRC_DST_HIERARCHY.generalizes(
                    (h2[0], h2[1], 0, 0), (h1[0], h1[1], 0, 0)
                )
            )
            dst_ok = (
                SRC_DST_HIERARCHY.generalizes(
                    (0, 0, h1[2], h1[3]), (0, 0, h2[2], h2[3])
                )
                or SRC_DST_HIERARCHY.generalizes(
                    (0, 0, h2[2], h2[3]), (0, 0, h1[2], h1[3])
                )
            )
            assert not (src_ok and dst_ok)
        else:
            assert SRC_DST_HIERARCHY.generalizes(h1, meet)
            assert SRC_DST_HIERARCHY.generalizes(h2, meet)

    def test_glb_worked_example(self):
        a = (ip_to_int("1.2.0.0"), 16, 0, 0)
        b = (ip_to_int("1.0.0.0"), 8, ip_to_int("5.0.0.0"), 8)
        meet = SRC_DST_HIERARCHY.glb(a, b)
        assert meet == (ip_to_int("1.2.0.0"), 16, ip_to_int("5.0.0.0"), 8)

    def test_glb_disjoint(self):
        a = (ip_to_int("1.2.0.0"), 16, 0, 0)
        b = (ip_to_int("9.9.0.0"), 16, 0, 0)
        assert SRC_DST_HIERARCHY.glb(a, b) is None

    @given(prefixes_2d)
    @settings(max_examples=100, deadline=None)
    def test_parents_generalize(self, prefix):
        for parent in SRC_DST_HIERARCHY.parents(prefix):
            assert SRC_DST_HIERARCHY.generalizes(parent, prefix)
            assert SRC_DST_HIERARCHY.depth(parent) == SRC_DST_HIERARCHY.depth(prefix) + 1

    def test_format(self):
        pkt = (ip_to_int("181.7.20.6"), ip_to_int("208.67.222.222"))
        idx = SRC_DST_HIERARCHY.pattern_index_of(24, 16)
        assert (
            SRC_DST_HIERARCHY.format(SRC_DST_HIERARCHY.prefix_at(pkt, idx))
            == "(181.7.20.*, 208.67.*)"
        )


class TestCodes2D:
    def test_base_loop_matches_code_at(self):
        pkts = [(ip_to_int("1.2.3.4"), ip_to_int("5.6.7.8")), (7, 9)]
        assert SRC_DST_HIERARCHY.codes_at(pkts, [0, 24]) == [
            SRC_DST_HIERARCHY.code_at(pkts[0], 0),
            SRC_DST_HIERARCHY.code_at(pkts[1], 24),
        ]

    @given(ips, ips, st.integers(0, 24))
    @settings(max_examples=100, deadline=None)
    def test_code_at_encodes_prefix_at(self, src, dst, idx):
        prefix = SRC_DST_HIERARCHY.prefix_at((src, dst), idx)
        code = SRC_DST_HIERARCHY.code_at((src, dst), idx)
        assert code == SRC_DST_HIERARCHY.code_of(prefix)
        assert SRC_DST_HIERARCHY.prefix_of(code) == prefix

    @given(prefixes_2d)
    @settings(max_examples=100, deadline=None)
    def test_code_of_and_prefix_of_are_inverses(self, prefix):
        code = SRC_DST_HIERARCHY.code_of(prefix)
        assert type(code) is int and 0 <= code < 2**76
        assert SRC_DST_HIERARCHY.prefix_of(code) == prefix

    @given(st.lists(prefixes_2d, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_prefixes_of_matches_prefix_of(self, prefixes):
        codes = [SRC_DST_HIERARCHY.code_of(prefix) for prefix in prefixes]
        assert SRC_DST_HIERARCHY.prefixes_of(codes) == prefixes

    def test_numpy_fields_encode_without_overflow(self):
        pkt = (np.int64(0xFFFFFFFF), np.int64(0xFFFFFFFF))
        assert SRC_DST_HIERARCHY.code_at(pkt, 0) == SRC_DST_HIERARCHY.code_at(
            (0xFFFFFFFF, 0xFFFFFFFF), 0
        )
        prefix = tuple(np.int64(v) for v in (0xFFFFFF00, 24, 0xFF000000, 8))
        assert SRC_DST_HIERARCHY.prefix_of(
            SRC_DST_HIERARCHY.code_of(prefix)
        ) == tuple(map(int, prefix))

    @pytest.mark.parametrize(
        "key",
        [
            (0x0A0B0C0D, 32, 0x01020304, 8),  # bits below the dst mask
            (0x0A000000, 8, 0x01020300, 20),  # off the byte grid
            (0x0A000001, 8, 0, 0),
            (0x0A000000, 8),
            (1.5, 32, 0, 0),
            "abcd",
            7,
        ],
    )
    def test_code_of_a_non_prefix_is_none(self, key):
        assert SRC_DST_HIERARCHY.code_of(key) is None


class TestBestGeneralized:
    def test_paper_example(self):
        """G(142.14.* | {142.14.13.*, 142.14.13.14}) = {142.14.13.*}."""
        p = (ip_to_int("142.14.0.0"), 16)
        selected = [
            (ip_to_int("142.14.13.0"), 24),
            (ip_to_int("142.14.13.14"), 32),
        ]
        assert SRC_HIERARCHY.best_generalized(p, selected) == [
            (ip_to_int("142.14.13.0"), 24)
        ]

    def test_excludes_self_and_non_descendants(self):
        p = (ip_to_int("10.0.0.0"), 8)
        selected = [p, (ip_to_int("11.1.0.0"), 16), (ip_to_int("10.1.0.0"), 16)]
        assert SRC_HIERARCHY.best_generalized(p, selected) == [
            (ip_to_int("10.1.0.0"), 16)
        ]

    def test_incomparable_descendants_both_kept(self):
        p = (0, 0)
        selected = [(ip_to_int("10.0.0.0"), 8), (ip_to_int("20.0.0.0"), 8)]
        assert sorted(SRC_HIERARCHY.best_generalized(p, selected)) == sorted(selected)
