"""IP prefix primitives for the HHH hierarchies.

Prefixes are represented as plain tuples so they can serve as dictionary
keys on the algorithms' hot paths:

* a 1-D (source) prefix is ``(ip, length)`` with ``ip`` already masked and
  ``length`` in bits (byte granularity: 0, 8, 16, 24, 32);
* a 2-D (source, destination) prefix is ``(src, src_len, dst, dst_len)``.

H-Memento's shared sketch counts the prefixes' integer codes instead
(``Hierarchy.code_of``/``prefix_of`` in :mod:`repro.hierarchy.domain`).

This module owns the low-level bit manipulation (masks, parents,
generalization tests) and the human-readable formatting used in examples and
reports (``181.7.*`` style, matching the paper's notation).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

__all__ = [
    "BYTE_LENGTHS",
    "MASKS",
    "ip_to_int",
    "int_to_ip",
    "mask_ip",
    "make_prefix",
    "prefix_str",
    "parse_prefix",
    "generalizes_1d",
    "parent_1d",
    "subnet_of",
]

#: Byte-granularity prefix lengths, most specific first.
BYTE_LENGTHS: Tuple[int, ...] = (32, 24, 16, 8, 0)

#: ``MASKS[length] -> 32-bit netmask`` for every byte-granularity length.
MASKS = {length: (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in BYTE_LENGTHS}
MASKS[0] = 0

Prefix1D = Tuple[int, int]


def ip_to_int(dotted: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer.

    >>> ip_to_int("181.7.20.6")
    3037139974
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format a 32-bit integer as dotted-quad notation.

    >>> int_to_ip(3037139974)
    '181.7.20.6'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit address: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mask_ip(ip: int, length: int) -> int:
    """Zero out the host bits of ``ip`` beyond ``length`` bits."""
    return ip & MASKS[length]


def make_prefix(ip: int, length: int) -> Prefix1D:
    """Build a canonical (masked) 1-D prefix tuple."""
    if length not in MASKS:
        raise ValueError(f"length must be one of {BYTE_LENGTHS}, got {length}")
    return (ip & MASKS[length], length)


def generalizes_1d(p: Prefix1D, q: Prefix1D) -> bool:
    """True when ``p ⪯ q``: ``p`` generalizes ``q`` (or equals it).

    >>> p = make_prefix(ip_to_int("181.7.0.0"), 16)
    >>> q = make_prefix(ip_to_int("181.7.20.6"), 32)
    >>> generalizes_1d(p, q)
    True
    >>> generalizes_1d(q, p)
    False
    """
    ip_p, len_p = p
    ip_q, len_q = q
    return len_p <= len_q and (ip_q & MASKS[len_p]) == ip_p


def parent_1d(p: Prefix1D) -> Optional[Prefix1D]:
    """The longest strictly-generalizing prefix, or None for the root."""
    ip, length = p
    if length == 0:
        return None
    shorter = length - 8
    return (ip & MASKS[shorter], shorter)


def prefix_str(p: Prefix1D) -> str:
    """Paper-style rendering: ``181.7.*`` / ``181.7.20.6`` / ``*``.

    >>> prefix_str(make_prefix(ip_to_int("181.7.0.0"), 16))
    '181.7.*'
    """
    ip, length = p
    if length == 0:
        return "*"
    octets = [str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0)]
    kept = octets[: length // 8]
    if length == 32:
        return ".".join(kept)
    return ".".join(kept) + ".*"


def parse_prefix(text: str) -> Prefix1D:
    """Inverse of :func:`prefix_str`.

    >>> parse_prefix("181.7.*") == make_prefix(ip_to_int("181.7.0.0"), 16)
    True
    >>> parse_prefix("*")
    (0, 0)
    """
    text = text.strip()
    if text == "*":
        return (0, 0)
    parts = text.split(".")
    if parts[-1] == "*":
        parts = parts[:-1]
        length = 8 * len(parts)
        if not 8 <= length <= 24:
            raise ValueError(f"bad wildcard prefix: {text!r}")
    else:
        length = 32
        if len(parts) != 4:
            raise ValueError(f"bad fully-specified prefix: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    value <<= 8 * (4 - len(parts))
    return (value, length)


def subnet_of(ip: int, length: int = 8) -> Prefix1D:
    """Convenience: the ``length``-bit subnet containing address ``ip``."""
    return make_prefix(ip, length)


def format_prefixes(prefixes: Iterable[Prefix1D]) -> str:
    """Comma-joined human rendering of several 1-D prefixes (for reports)."""
    return ", ".join(sorted(prefix_str(p) for p in prefixes))
