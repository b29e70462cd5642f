"""Cross-version pin of H-Memento's answers under fixed-seed feeds.

The shared Memento inside H-Memento counts integer prefix codes; its
public surface speaks prefix tuples.  These digests were recorded when
the shared Memento was keyed by the prefix tuples themselves, so they
prove that encoding on ingest and decoding at the surface changed no
answer and no order: ``heavy_prefixes`` items in order, the ``output``
sets, the ``candidates`` order, ``entries``, ``windowed_entries``,
``top_k`` and point queries (of tracked prefixes, and of keys that are
not prefixes, which answer as absent keys), for both hierarchies and
the scalar, ``update_many``, ``receive_many`` and ``ingest_gap`` feeds.

Point queries are pinned apart from every other answer.  The shared
Memento runs at overflow quantum 1 in all three geometries, where it
leaves its in-frame Space Saving ``y`` empty: a key absent from the
overflow table now answers ``2·blk/tau`` (its exact in-frame count is 0)
where it answered ``(2·blk + min(y))/tau`` before, so the point-probe
digests were re-recorded with that change.  The digests of every other
answer were computed on the commit before it, whose full digests matched
the tuple-keyed ones, and hold unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import SRC_DST_HIERARCHY, SRC_HIERARCHY, HMemento
from repro.netwide.controller import SketchController
from repro.netwide.messages import BatchReport

GEOMETRIES = {
    # name: (hierarchy, window, counters, tau, seed, packets, theta,
    #        ((output theta, conservative), ...))
    "src": (SRC_HIERARCHY, 4_000, 400, 1 / 4, 21, 23_457, 0.01,
            ((0.05, True), (0.02, False))),
    "src_controller": (SRC_HIERARCHY, 20_000, 2_500, 1 / 8, 22, 61_111, 0.005,
                       ((0.15, True), (0.01, False))),
    "src_dst": (SRC_DST_HIERARCHY, 4_000, 1_000, 1 / 2, 23, 17_321, 0.01,
                ((0.9, True), (0.1, False))),
}

#: keys that are not prefixes of either hierarchy: bits below the mask,
#: a length off the byte grid, an address past 32 bits, other shapes
NOT_PREFIXES = (
    (0x0A0B0C0D, 24),
    (0x0A000000, 12),
    (2**40, 32),
    (0x0A0B0C0D, 32, 0x01020304, 8),
    (0x0A000000, 8, 0x01020300, 20),
    (5,),
    "key",
    7,
)


def addresses(n: int, seed: int) -> list:
    """A skewed stream of 32-bit addresses from a 64-bit LCG: one packet
    in eight from four heavy hosts, one in four from sixteen heavy /16
    subnets, the rest uniform."""
    out = []
    x = seed
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        r = x >> 32
        kind = r & 7
        if kind == 0:
            out.append(0x0A000001 + ((r >> 3) & 3))
        elif kind < 3:
            out.append((0xC0A8 + ((r >> 5) & 15)) << 16 | (r >> 9) & 0xFFFF)
        else:
            out.append(r)
    return out


def packets(hierarchy, n: int, seed: int) -> list:
    src = addresses(n, seed)
    if hierarchy.dimensions == 1:
        return src
    dst = addresses(n, seed + 1000)
    return [(s, d & 0xFFFFFF0F) for s, d in zip(src, dst)]


def feed_scalar(h: HMemento, stream: list) -> None:
    for packet in stream:
        h.update(packet)


def feed_update_many(h: HMemento, stream: list) -> None:
    chunks = (1, 7, 64, 1023, 4096)
    i = ci = 0
    while i < len(stream):
        chunk = chunks[ci % len(chunks)]
        h.update_many(stream[i : i + chunk])
        i += chunk
        ci += 1


def feed_receive_many(h: HMemento, stream: list) -> None:
    """Batch reports, each a run of samples covering ``1/tau`` packets
    per sample, applied nine at a time by a controller."""
    controller = SketchController(h)
    batch = []
    i = 0
    per_sample = round(1 / h.tau)
    size = 5
    while i < len(stream):
        samples = tuple(stream[i : i + size])
        covered = len(samples) * per_sample + (i % 3)
        batch.append(BatchReport(i % 10, samples, covered, 0))
        i += size
        size = size % 37 + 6
    for lo in range(0, len(batch), 9):
        controller.receive_many(batch[lo : lo + 9])


def feed_ingest_gap(h: HMemento, stream: list) -> None:
    """Samples and gaps, with one gap of more than two frames halfway."""
    inner_frame = h.counters * -(-h.window // h.counters)
    half = len(stream) // 2
    i = 0
    step = 0
    while i < len(stream):
        chunk = stream[i : i + 3 + step % 50]
        h.ingest_samples(chunk)
        i += len(chunk)
        if half <= i < half + len(chunk):
            h.ingest_gap(2 * inner_frame + 5)
        else:
            h.ingest_gap(step % 17 * round(1 / h.tau))
        step += 1


FEEDS = {
    "scalar": feed_scalar,
    "update_many": feed_update_many,
    "receive_many": feed_receive_many,
    "ingest_gap": feed_ingest_gap,
}


def answers(h: HMemento, theta: float, outputs) -> tuple:
    """Every public answer of ``h`` but point queries, in the order it
    gives them."""
    return (
        list(h.heavy_prefixes(theta).items()),
        list(h.heavy_hitters(theta).items()),
        [sorted(h.output(t, conservative=c)) for t, c in outputs],
        list(h.candidates()),
        h.entries(),
        h.windowed_entries(),
        h.top_k(20),
        h.updates,
        h.full_updates,
    )


def point_probes(h: HMemento) -> list:
    """Point queries of every 40th-or-so tracked prefix and of keys that
    are not prefixes."""
    candidates = list(h.candidates())
    probes = candidates[:: max(1, len(candidates) // 40)] + list(NOT_PREFIXES)
    return [(h.query(p), h.query_lower(p), h.query_point(p)) for p in probes]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run(geometry: str, feed: str) -> tuple:
    hierarchy, window, counters, tau, seed, n, theta, outputs = GEOMETRIES[geometry]
    h = HMemento(window, hierarchy, counters=counters, tau=tau, seed=seed)
    FEEDS[feed](h, packets(hierarchy, n, seed))
    return h, theta, outputs


#: every answer but point queries, computed on the integer-keyed shared
#: Memento whose full digests matched the prefix-tuple-keyed ones; a
#: scalar feed and its update_many twin pin one digest
PINNED = {
    "src-scalar": "d2f798470924aa10a8faee4c1758997cf88411f8e5c4eceb6586f30c4d6c649e",
    "src-update_many": "d2f798470924aa10a8faee4c1758997cf88411f8e5c4eceb6586f30c4d6c649e",
    "src-receive_many": "a2a3d13d57a29ee5f5d037848021967b2c8d14fcfcc213b7d3d681a8399633e2",
    "src-ingest_gap": "57adbce7e599ea4d2a3366e3816d204ca371c4a3b96ac875e9014bc3f26707ee",
    "src_controller-scalar": "c9f5c02f33f87d456e23d22876ef34017b721e8604a8c0e53015cdf4195600c8",
    "src_controller-update_many": "c9f5c02f33f87d456e23d22876ef34017b721e8604a8c0e53015cdf4195600c8",
    "src_controller-receive_many": "f3b7629c219dfc09d6c2d6577ccbe694b19d4c11e2834019d9aa0a073dea14e6",
    "src_controller-ingest_gap": "66e2baf4a6d029272391d9e0a9cc02557d3fa89afd250c789936b9f9af239277",
    "src_dst-scalar": "397a34cacea9e8d230d78ad0f5da91926092c1899c06028fcef17f89a525a8f5",
    "src_dst-update_many": "397a34cacea9e8d230d78ad0f5da91926092c1899c06028fcef17f89a525a8f5",
    "src_dst-receive_many": "8d5716a6d1821b88a1d7dbea8354178eff086c037e020fa5d4adc3e2fa2ef8b1",
    "src_dst-ingest_gap": "65738bf504cb664455aa9416c5ea681aca2f27714f660feaac3ef8256a6771d1",
}

#: point queries, recorded with ``y`` left empty at quantum 1
PINNED_PROBES = {
    "src-scalar": "3436cd646d7e73c1794e4e8e8713735c0addbeacd68d0c4381982dbc99692113",
    "src-update_many": "3436cd646d7e73c1794e4e8e8713735c0addbeacd68d0c4381982dbc99692113",
    "src-receive_many": "777826ef9b88f51fca045866a617673f4abc1fbe82e992883c4be4ba1a7915a8",
    "src-ingest_gap": "92ccd959ef33fa6a2da68572b2c0d9c9cab6a2ef80a700a757ada22a006a73df",
    "src_controller-scalar": "503979e43f5c082ef6c2c1b4689be578904d4160cc3a27bbfe036466bb5fc553",
    "src_controller-update_many": "503979e43f5c082ef6c2c1b4689be578904d4160cc3a27bbfe036466bb5fc553",
    "src_controller-receive_many": "c8a13927e97a10d32bec8298b9b942a58431eadc77471d7c1e5aa26bc04d8711",
    "src_controller-ingest_gap": "ad4f4bc02f7d95d234985cd97e3b30cfc220d6542382452f27f9483bb38cb487",
    "src_dst-scalar": "5e84f0404bdbd010b0fd3696ce12c37579896b93b374f8091fde22aaabeb87de",
    "src_dst-update_many": "5e84f0404bdbd010b0fd3696ce12c37579896b93b374f8091fde22aaabeb87de",
    "src_dst-receive_many": "0d41ba66c8ec8b76eb00776a2e2e44cec8c57d5b46dde35cfe28ad2e8d257718",
    "src_dst-ingest_gap": "84c93f140f91bc92de79db16887d47253a91c1690512d25dcef352e762f599d0",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_answers_match_the_tuple_keyed_sketch(case):
    geometry, feed = case.split("-")
    h, theta, outputs = run(geometry, feed)
    assert digest(answers(h, theta, outputs)) == PINNED[case]
    assert digest(point_probes(h)) == PINNED_PROBES[case]


def test_every_geometry_and_feed_is_pinned():
    cases = {f"{g}-{f}" for g in GEOMETRIES for f in FEEDS}
    assert set(PINNED) == set(PINNED_PROBES) == cases
