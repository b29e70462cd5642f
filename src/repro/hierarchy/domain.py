"""Prefix hierarchies (the paper's 1-D and 2-D byte-granularity lattices).

A *hierarchy* fixes the set of prefix patterns a packet generalizes into:

* :class:`Hierarchy1D` — source-IP byte hierarchy, ``H = 5`` patterns
  (/32, /24, /16, /8, /0), depth ``L = 4``;
* :class:`Hierarchy2D` — (source, destination) byte hierarchy, ``H = 25``
  patterns, maximal depth ``L = 8`` (the paper's "H = 25 and L = 9" counts
  the 9 depth *levels* 0..8).

Both expose the operations the HHH machinery needs (Section 4.2):
per-packet generalization (``all_prefixes``, ``prefix_at``), the partial
order ``generalizes`` (the paper's ``⪯``), immediate ``parents``, the 2-D
greatest lower bound ``glb`` (Definition 4.3), and best-generalization sets
``G(p|P)`` — the most general strict descendants of ``p`` inside a set ``P``.

They also encode prefixes as integers, for the sketches that count them
(H-Memento's shared Memento): ``code_at``/``codes_at`` generalize packets
straight to codes, ``code_of`` and ``prefix_of`` are exact inverses, and
``prefixes_of`` decodes many codes at once.  A 1-D code is
``(ip << 6) | length``; a 2-D code puts the source's code above the
destination's, ``(src_code << 38) | dst_code``.  An int hashes in one
step and is not tracked by the garbage collector, where a tuple hashes
each field and is.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .prefix import MASKS, generalizes_1d, prefix_str

__all__ = ["Hierarchy", "Hierarchy1D", "Hierarchy2D", "SRC_HIERARCHY", "SRC_DST_HIERARCHY"]

_BYTE_STEPS = (32, 24, 16, 8, 0)


class Hierarchy:
    """Common interface for prefix hierarchies.

    Concrete hierarchies provide ``num_patterns`` (the paper's ``H``),
    ``max_depth`` (the paper's ``L``), and the lattice operations used by
    H-Memento, MST, and RHHH.  Prefixes are plain tuples (see
    :mod:`repro.hierarchy.prefix`), packets are ints (1-D) or int pairs
    (2-D).
    """

    num_patterns: int
    max_depth: int
    dimensions: int

    def all_prefixes(self, packet) -> Tuple:
        """The ``H`` generalizations of ``packet``, in pattern order."""
        raise NotImplementedError

    def prefix_at(self, packet, pattern_index: int):
        """The single generalization of ``packet`` for one pattern."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # integer codes (identity here; the byte hierarchies pack integers)
    # ------------------------------------------------------------------
    def code_at(self, packet, pattern_index: int):
        """The code of ``prefix_at(packet, pattern_index)``."""
        return self.prefix_at(packet, pattern_index)

    def codes_at(self, packets: Sequence, patterns: Sequence[int]) -> List:
        """``code_at`` of each packet with its pattern, as one list."""
        code_at = self.code_at
        return [
            code_at(packet, pattern)
            for packet, pattern in zip(packets, patterns)
        ]

    def code_of(self, prefix):
        """The code of ``prefix``; ``None`` when it is not a prefix of
        this hierarchy, so it matches no code a sketch holds."""
        return prefix

    def prefix_of(self, code):
        """The prefix whose code is ``code`` (inverse of ``code_of``)."""
        return code

    def prefixes_of(self, codes: Iterable) -> List:
        """``prefix_of`` of each code, as one list in ``codes``' order."""
        return list(map(self.prefix_of, codes))

    def pattern_index(self, prefix) -> int:
        """Index of the pattern that ``prefix`` belongs to."""
        raise NotImplementedError

    def depth(self, prefix) -> int:
        """Depth of ``prefix``: fully specified = 0, root = ``max_depth``."""
        raise NotImplementedError

    def generalizes(self, p, q) -> bool:
        """The paper's ``p ⪯ q``: every item under ``q`` is under ``p``."""
        raise NotImplementedError

    def parents(self, prefix) -> Tuple:
        """Immediate parents (1 in 1-D; up to 2 in 2-D; none for the root)."""
        raise NotImplementedError

    def glb(self, h1, h2):
        """Greatest lower bound (Definition 4.3); None when disjoint."""
        raise NotImplementedError

    def root(self):
        """The fully-general prefix (depth ``max_depth``)."""
        raise NotImplementedError

    def format(self, prefix) -> str:
        """Human-readable rendering of ``prefix``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared lattice helpers
    # ------------------------------------------------------------------
    def best_generalized(self, p, selected: Sequence) -> List:
        """``G(p|P)``: most general *strict* descendants of ``p`` in ``P``.

        Following the worked example of Section 4.2: with
        ``P = {142.14.13.*, 142.14.13.14}`` and ``p = 142.14.*``, the result
        is ``{142.14.13.*}`` — descendants with no other member of ``P``
        between them and ``p``.
        """
        descendants = [
            h for h in selected if h != p and self.generalizes(p, h)
        ]
        out = []
        for h in descendants:
            if not any(
                other != h and self.generalizes(other, h)
                for other in descendants
            ):
                out.append(h)
        return out

    def levels(self) -> range:
        """Iteration order for the HHH output scan: depths 0..L."""
        return range(self.max_depth + 1)


class Hierarchy1D(Hierarchy):
    """Source-IP byte-granularity hierarchy (``H = 5``, ``L = 4``).

    Packets are 32-bit integers; pattern ``i`` keeps the first ``4 - i``
    bytes, so pattern 0 is the fully-specified address and pattern 4 the
    root ``*``.

    Examples
    --------
    >>> from repro.hierarchy.prefix import ip_to_int
    >>> h = Hierarchy1D()
    >>> [h.format(p) for p in h.all_prefixes(ip_to_int("181.7.20.6"))]
    ['181.7.20.6', '181.7.20.*', '181.7.*', '181.*', '*']
    """

    num_patterns = 5
    max_depth = 4
    dimensions = 1

    _lengths = _BYTE_STEPS  # pattern index -> prefix length in bits
    _masks = tuple(MASKS[length] for length in _BYTE_STEPS)

    def all_prefixes(self, packet: int) -> Tuple:
        masks = self._masks
        lengths = self._lengths
        return tuple(
            (packet & masks[i], lengths[i]) for i in range(5)
        )

    def prefix_at(self, packet: int, pattern_index: int):
        return (packet & self._masks[pattern_index], self._lengths[pattern_index])

    def code_at(self, packet: int, pattern_index: int) -> int:
        mask = self._masks[pattern_index]
        return (packet & mask) << 6 | self._lengths[pattern_index]

    _mask_column = np.array(_masks, dtype=np.int64)
    _length_column = np.array(_lengths, dtype=np.int64)

    def codes_at(self, packets: Sequence, patterns: Sequence[int]) -> List[int]:
        """Column form of ``code_at``: ``(packet & mask) << 6 | length``
        over one numpy column, returned as Python ints (the codes the
        scalar path builds).  Batches that are not an ``int64``-compatible
        integer column take the scalar loop.
        """
        column = np.asarray(packets)
        if column.dtype.kind not in "iu" or column.dtype == np.uint64:
            return super().codes_at(packets, patterns)
        pattern_column = np.asarray(patterns, dtype=np.intp)
        return (
            (column & self._mask_column[pattern_column]) << 6
            | self._length_column[pattern_column]
        ).tolist()

    def code_of(self, prefix) -> Optional[int]:
        try:
            ip, length = prefix
            if ip & MASKS[length] == ip:
                return ip << 6 | length
        except (TypeError, ValueError, KeyError):
            pass
        return None

    def prefix_of(self, code: int) -> Tuple[int, int]:
        return (code >> 6, code & 63)

    def prefixes_of(self, codes: Iterable[int]) -> List[Tuple[int, int]]:
        # inline, not a numpy column: as fast at thousands of codes and
        # several times faster at the tens a threshold query decodes
        return [(code >> 6, code & 63) for code in codes]

    def pattern_index(self, prefix) -> int:
        return (32 - prefix[1]) // 8

    def depth(self, prefix) -> int:
        return (32 - prefix[1]) // 8

    def generalizes(self, p, q) -> bool:
        return generalizes_1d(p, q)

    def parents(self, prefix) -> Tuple:
        ip, length = prefix
        if length == 0:
            return ()
        shorter = length - 8
        return ((ip & MASKS[shorter], shorter),)

    def glb(self, h1, h2):
        if self.generalizes(h1, h2):
            return h2
        if self.generalizes(h2, h1):
            return h1
        return None

    def root(self):
        return (0, 0)

    def format(self, prefix) -> str:
        return prefix_str(prefix)


class Hierarchy2D(Hierarchy):
    """(source, destination) byte hierarchy (``H = 25``, 9 depth levels).

    Packets are ``(src, dst)`` integer pairs; prefixes are flat
    ``(src, src_len, dst, dst_len)`` tuples.  A prefix's depth is the total
    number of generalization steps from a fully-specified pair, so the 25
    patterns spread over depths 0..8 (the paper's ``L = 9`` levels).

    Examples
    --------
    >>> from repro.hierarchy.prefix import ip_to_int
    >>> h = Hierarchy2D()
    >>> pkt = (ip_to_int("181.7.20.6"), ip_to_int("208.67.222.222"))
    >>> h.format(h.prefix_at(pkt, h.pattern_index_of(24, 16)))
    '(181.7.20.*, 208.67.*)'
    """

    num_patterns = 25
    max_depth = 8
    dimensions = 2

    #: the two lengths' bits of each pattern's codes, in pattern order (a
    #: class attribute, so pickled hierarchies keep their attributes)
    _length_codes = tuple(
        slen << 38 | dlen for slen in _BYTE_STEPS for dlen in _BYTE_STEPS
    )

    def __init__(self) -> None:
        # pattern order: all (src_len, dst_len) pairs, most specific first
        self._patterns: List[Tuple[int, int]] = [
            (slen, dlen) for slen in _BYTE_STEPS for dlen in _BYTE_STEPS
        ]
        self._pattern_of = {
            pair: idx for idx, pair in enumerate(self._patterns)
        }
        self._mask_pairs = tuple(
            (MASKS[slen], MASKS[dlen]) for slen, dlen in self._patterns
        )

    def all_prefixes(self, packet) -> Tuple:
        src, dst = packet
        out = []
        for idx, (smask, dmask) in enumerate(self._mask_pairs):
            slen, dlen = self._patterns[idx]
            out.append((src & smask, slen, dst & dmask, dlen))
        return tuple(out)

    def prefix_at(self, packet, pattern_index: int):
        src, dst = packet
        smask, dmask = self._mask_pairs[pattern_index]
        slen, dlen = self._patterns[pattern_index]
        return (src & smask, slen, dst & dmask, dlen)

    def code_at(self, packet, pattern_index: int) -> int:
        src, dst = packet
        smask, dmask = self._mask_pairs[pattern_index]
        # int(): a numpy scalar field would overflow 64 bits when shifted
        return (
            int(src & smask) << 44
            | int(dst & dmask) << 6
            | self._length_codes[pattern_index]
        )

    def code_of(self, prefix) -> Optional[int]:
        try:
            src, slen, dst, dlen = prefix
            if src & MASKS[slen] == src and dst & MASKS[dlen] == dst:
                # int(): numpy scalar fields would overflow 64 bits
                return int(src) << 44 | int(slen) << 38 | int(dst) << 6 | int(dlen)
        except (TypeError, ValueError, KeyError):
            pass
        return None

    def prefix_of(self, code: int) -> Tuple[int, int, int, int]:
        return (code >> 44, code >> 38 & 63, code >> 6 & 0xFFFFFFFF, code & 63)

    def prefixes_of(self, codes: Iterable[int]) -> List[Tuple[int, int, int, int]]:
        # a 2-D code is 76 bits wide, past any numpy integer column
        return [
            (code >> 44, code >> 38 & 63, code >> 6 & 0xFFFFFFFF, code & 63)
            for code in codes
        ]

    def pattern_index(self, prefix) -> int:
        return self._pattern_of[(prefix[1], prefix[3])]

    def pattern_index_of(self, src_len: int, dst_len: int) -> int:
        """Pattern index from explicit (src, dst) prefix lengths."""
        return self._pattern_of[(src_len, dst_len)]

    def depth(self, prefix) -> int:
        return (32 - prefix[1]) // 8 + (32 - prefix[3]) // 8

    def generalizes(self, p, q) -> bool:
        ps, psl, pd, pdl = p
        qs, qsl, qd, qdl = q
        return (
            psl <= qsl
            and pdl <= qdl
            and (qs & MASKS[psl]) == ps
            and (qd & MASKS[pdl]) == pd
        )

    def parents(self, prefix) -> Tuple:
        src, slen, dst, dlen = prefix
        out = []
        if slen > 0:
            shorter = slen - 8
            out.append((src & MASKS[shorter], shorter, dst, dlen))
        if dlen > 0:
            shorter = dlen - 8
            out.append((src, slen, dst & MASKS[shorter], shorter))
        return tuple(out)

    def glb(self, h1, h2):
        """Greatest lower bound of two 2-D prefixes (Definition 4.3).

        Per dimension, the more specific side wins when one generalizes the
        other; incomparable dimensions have no common descendant, making
        the glb empty (returned as None).
        """
        s1, sl1, d1, dl1 = h1
        s2, sl2, d2, dl2 = h2
        # source dimension
        if sl1 <= sl2 and (s2 & MASKS[sl1]) == s1:
            src, slen = s2, sl2
        elif sl2 <= sl1 and (s1 & MASKS[sl2]) == s2:
            src, slen = s1, sl1
        else:
            return None
        # destination dimension
        if dl1 <= dl2 and (d2 & MASKS[dl1]) == d1:
            dst, dlen = d2, dl2
        elif dl2 <= dl1 and (d1 & MASKS[dl2]) == d2:
            dst, dlen = d1, dl1
        else:
            return None
        return (src, slen, dst, dlen)

    def root(self):
        return (0, 0, 0, 0)

    def format(self, prefix) -> str:
        src, slen, dst, dlen = prefix
        return f"({prefix_str((src, slen))}, {prefix_str((dst, dlen))})"


#: Shared singleton instances — the hierarchies are stateless.
SRC_HIERARCHY = Hierarchy1D()
SRC_DST_HIERARCHY = Hierarchy2D()
