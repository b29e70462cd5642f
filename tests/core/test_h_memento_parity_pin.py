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
    """Every public answer of ``h``, in the order it gives them."""
    candidates = list(h.candidates())
    probes = candidates[:: max(1, len(candidates) // 40)] + list(NOT_PREFIXES)
    return (
        list(h.heavy_prefixes(theta).items()),
        list(h.heavy_hitters(theta).items()),
        [sorted(h.output(t, conservative=c)) for t, c in outputs],
        candidates,
        h.entries(),
        h.windowed_entries(),
        h.top_k(20),
        [(h.query(p), h.query_lower(p), h.query_point(p)) for p in probes],
        h.updates,
        h.full_updates,
    )


def digest(h: HMemento, theta: float, outputs) -> str:
    return hashlib.sha256(repr(answers(h, theta, outputs)).encode()).hexdigest()


def run(geometry: str, feed: str) -> str:
    hierarchy, window, counters, tau, seed, n, theta, outputs = GEOMETRIES[geometry]
    h = HMemento(window, hierarchy, counters=counters, tau=tau, seed=seed)
    FEEDS[feed](h, packets(hierarchy, n, seed))
    return digest(h, theta, outputs)


#: recorded with the prefix-tuple-keyed shared Memento; a scalar feed and
#: its update_many twin pin one digest
PINNED = {
    "src-scalar": "35602e06237219676561f362263691605c26119f6b1e83b9a851f8ed16120178",
    "src-update_many": "35602e06237219676561f362263691605c26119f6b1e83b9a851f8ed16120178",
    "src-receive_many": "06566863387275ed21200c6fdbe8ef89f894fb98ad50d1cd99b7bd588e75ebfb",
    "src-ingest_gap": "fbabe537430c122aa3fb8092d9293607e3258bebde9dfe4713057e619c8185ae",
    "src_controller-scalar": "9c0987206e9ec3580d77eac0123a749c3bb0f0553e4ad18c9663888ae4864924",
    "src_controller-update_many": "9c0987206e9ec3580d77eac0123a749c3bb0f0553e4ad18c9663888ae4864924",
    "src_controller-receive_many": "c90ac78ce55a9d4bb9284ef7a44ff053b24616c98d8d329a8d5aecf7c6f1125b",
    "src_controller-ingest_gap": "bfaa84f526d132a73f1dc898f7dda426ce325b47f07f1d1b7bb2d3cade2bfa86",
    "src_dst-scalar": "12b7ecca6d3bbd3854966471854c1f1e5c6f657c3cc87c78812cc6b53ee38da9",
    "src_dst-update_many": "12b7ecca6d3bbd3854966471854c1f1e5c6f657c3cc87c78812cc6b53ee38da9",
    "src_dst-receive_many": "9825e184c90a52e281f8f3920bef0b7916c75f68519c089f8e7d4ff3b0846e78",
    "src_dst-ingest_gap": "6af51723c75e538d5cfc35d092ae9c982b507f09947d8f8a7c2614a0f2757d4b",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_answers_match_the_tuple_keyed_sketch(case):
    geometry, feed = case.split("-")
    assert run(geometry, feed) == PINNED[case]


def test_every_geometry_and_feed_is_pinned():
    assert set(PINNED) == {f"{g}-{f}" for g in GEOMETRIES for f in FEEDS}
