"""Cross-version pin of Memento's state under fixed-seed feeds.

The differential tests prove that the ingestion paths agree with each
other; these digests prove that the state they agree on is the one the
sketch reached before its overflow records moved from ``k + 1`` block
deques into one FIFO with a ring of per-block counts.  Each digest was
recorded on the block-deque layout, where the flattened records are the
deques laid end to end and the per-block lengths are their lengths.

A digest covers the overflow table ``B`` with its insertion order, every
overflow record in order, every block's record count, ``y``'s bucket
chain and key order, the update counters and the frame position, and the
``heavy_hitters`` answer with its order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Memento
from repro.netwide.controller import SketchController
from repro.netwide.messages import BatchReport

GEOMETRIES = {
    # name: (window, counters, tau, seed, packets, theta)
    "tau1": (2_000, 200, 1.0, 11, 10_777, 0.01),
    "tau1_16": (2_000, 50, 1 / 16, 12, 10_777, 0.01),
    "controller": (100_000, 12_500, 1 / 8, 13, 262_345, 0.002),
}


def keys(n: int, seed: int) -> list:
    """A skewed integer stream from a 64-bit LCG: one packet in eight is
    one of eight elephants, the rest a product of two uniforms (a long
    tail that thins out towards large keys)."""
    out = []
    x = seed
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        r = x >> 33
        if r % 8 == 0:
            out.append((r >> 3) & 7)
        else:
            out.append(8 + ((r >> 3) & 4095) * ((r >> 15) & 4095) // 4096)
    return out


def feed_scalar(m: Memento, stream: list) -> None:
    for item in stream:
        m.update(item)


def feed_update_many(m: Memento, stream: list) -> None:
    chunks = (1, 7, 64, 1023, 4096)
    i = ci = 0
    while i < len(stream):
        chunk = chunks[ci % len(chunks)]
        m.update_many(stream[i : i + chunk])
        i += chunk
        ci += 1


def reports(m: Memento, stream: list) -> list:
    """Batch reports covering the stream: each carries a run of samples
    and covers a gap of ``1/tau`` packets per sample behind them."""
    out = []
    i = 0
    per_sample = round(1 / m.tau)
    size = 5
    while i < len(stream):
        samples = tuple(stream[i : i + size])
        covered = len(samples) * per_sample + (i % 3)
        out.append(BatchReport(i % 10, samples, covered, 0))
        i += size
        size = size % 37 + 6
    return out


def feed_receive_many(m: Memento, stream: list) -> None:
    controller = SketchController(m)
    batch = reports(m, stream)
    for lo in range(0, len(batch), 9):
        controller.receive_many(batch[lo : lo + 9])


def feed_ingest_gap(m: Memento, stream: list) -> None:
    """Samples and gaps, with one gap of more than two frames halfway."""
    frame = m.effective_window
    half = len(stream) // 2
    i = 0
    step = 0
    while i < len(stream):
        chunk = stream[i : i + 3 + step % 50]
        m.ingest_samples(chunk)
        i += len(chunk)
        if half <= i < half + len(chunk):
            m.ingest_gap(2 * frame + 3 * m.block_size + 5)
        else:
            m.ingest_gap(step % 17 * round(1 / m.tau))
        step += 1


FEEDS = {
    "scalar": feed_scalar,
    "update_many": feed_update_many,
    "receive_many": feed_receive_many,
    "ingest_gap": feed_ingest_gap,
}


def block_records(m: Memento):
    """Every overflow record in order, and each block's record count."""
    return list(m._fifo), list(m._counts)


def digest(m: Memento, theta: float) -> str:
    y = m._y
    chain = []
    bucket = y._head
    while bucket is not None:
        chain.append((bucket.value, list(bucket.keys.items())))
        bucket = bucket.next
    records, counts = block_records(m)
    state = (
        list(m._offsets.items()),
        records,
        counts,
        chain,
        list(y._index),
        m.updates,
        m.full_updates,
        m.frame_position,
        list(m.heavy_hitters(theta).items()),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def run(geometry: str, feed: str) -> str:
    window, counters, tau, seed, packets, theta = GEOMETRIES[geometry]
    m = Memento(window, counters=counters, tau=tau, seed=seed)
    FEEDS[feed](m, keys(packets, seed))
    return digest(m, theta)


#: recorded on the block-deque layout; a scalar feed and its update_many
#: twin pin one digest
PINNED = {
    "tau1-scalar": "2c5f071091038060a834599c8b4480d2ecc3d4e9934dc2bc27017b9f2e352d99",
    "tau1-update_many": "2c5f071091038060a834599c8b4480d2ecc3d4e9934dc2bc27017b9f2e352d99",
    "tau1-receive_many": "197c20fd3f8d71763a814318df8036970c64de9925f9b03fdb17c96cdad1d5bb",
    "tau1-ingest_gap": "946953ffdbe0f95644aa3700c4f3f415d9870dc980259df5aea11ce5aa36a221",
    "tau1_16-scalar": "d77d77bf81066b314fcf4d7b3c94c000b6de54432b992cae3de754fce7e1ba8d",
    "tau1_16-update_many": "d77d77bf81066b314fcf4d7b3c94c000b6de54432b992cae3de754fce7e1ba8d",
    "tau1_16-receive_many": "1cbefcf004bf762efa3acd8c35cc97e9451e9ba59cfca2a91cb49915a0455542",
    "tau1_16-ingest_gap": "285b1c6851b620e4cf0f1a5e0c7e7f01afb3155642600c0211935a395e645b4a",
    "controller-scalar": "a73189bb0f6a7be707432f49620f609291d56f2bc30aa915348b312729c1a6be",
    "controller-update_many": "a73189bb0f6a7be707432f49620f609291d56f2bc30aa915348b312729c1a6be",
    "controller-receive_many": "020444cfed25352038dcbe49f65318f427d7a363b6034d314944be02f3eb0160",
    "controller-ingest_gap": "621c51ad9a50a9a966604201ab0e7c782854407990ae483df802bbfb01685ef6",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_state_matches_the_block_deque_layout(case):
    geometry, feed = case.split("-")
    assert run(geometry, feed) == PINNED[case]


def test_every_geometry_and_feed_is_pinned():
    assert set(PINNED) == {f"{g}-{f}" for g in GEOMETRIES for f in FEEDS}
