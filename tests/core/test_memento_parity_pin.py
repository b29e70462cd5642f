"""Cross-version pin of Memento's state under fixed-seed feeds.

The differential tests prove that the ingestion paths agree with each
other; these digests prove that the state they agree on is the one the
sketch reached before its overflow records moved from ``k + 1`` block
deques into one FIFO with a ring of per-block counts.  Each digest was
recorded on the block-deque layout, where the flattened records are the
deques laid end to end and the per-block lengths are their lengths.

A state digest covers the overflow table ``B`` with its insertion order,
every overflow record in order, every block's record count, the update
counters and the frame position, and the ``heavy_hitters`` answer with
its order; a second digest covers ``y``'s bucket chain and key order.
At overflow quantum 1 (the ``controller`` geometry) every Full update
writes an overflow record whatever ``y`` counts, so Memento leaves ``y``
empty there: its state digests still equal the block-deque layout's
(computed, without ``y``, on the commit before that change, whose full
digests matched), and ``y`` is checked to be empty instead of pinned.
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


def y_chain(m: Memento) -> tuple:
    """``y``'s bucket chain and key order."""
    y = m._y
    chain = []
    bucket = y._head
    while bucket is not None:
        chain.append((bucket.value, list(bucket.keys.items())))
        bucket = bucket.next
    return chain, list(y._index)


def state(m: Memento, theta: float) -> tuple:
    """Everything but ``y``."""
    records, counts = block_records(m)
    return (
        list(m._offsets.items()),
        records,
        counts,
        m.updates,
        m.full_updates,
        m.frame_position,
        list(m.heavy_hitters(theta).items()),
    )


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run(geometry: str, feed: str) -> tuple:
    window, counters, tau, seed, packets, theta = GEOMETRIES[geometry]
    m = Memento(window, counters=counters, tau=tau, seed=seed)
    FEEDS[feed](m, keys(packets, seed))
    return m, theta


#: state digests without ``y``, computed on the FIFO layout whose full
#: digests matched the block-deque layout's; a scalar feed and its
#: update_many twin pin one digest
PINNED = {
    "tau1-scalar": "9c907445c1972e5a9f20cf576c3774dd5de39e0cf4ab6dd6b9205649dcb8f356",
    "tau1-update_many": "9c907445c1972e5a9f20cf576c3774dd5de39e0cf4ab6dd6b9205649dcb8f356",
    "tau1-receive_many": "8afd63cd7e3963b478d28d5eb1b16d464f70fea79340501d47be0b4ba03a1d29",
    "tau1-ingest_gap": "55a53e6c747067f9905591210e7e51da548274059ad11cddf9f1d6796172cae9",
    "tau1_16-scalar": "37f20a264d0ad5c7ce46eb5cc7d73ad52324bfe499dbd52a12d75efe84565000",
    "tau1_16-update_many": "37f20a264d0ad5c7ce46eb5cc7d73ad52324bfe499dbd52a12d75efe84565000",
    "tau1_16-receive_many": "852aaddd122046cf19523c93b6e0e83b4d9aa67b10fdd993039e6098b4463307",
    "tau1_16-ingest_gap": "7023b820d7f3b86e4d3347306babd5db59cbef5419f9ab1f9c77817b285a23b8",
    "controller-scalar": "c776923ef11988db0cb14a38e2f777720bea586cd7c88a14b1149924f1b6c5b3",
    "controller-update_many": "c776923ef11988db0cb14a38e2f777720bea586cd7c88a14b1149924f1b6c5b3",
    "controller-receive_many": "51878f0d8d3e2f1ae9bef3b059736fac3c7da9d0c290feb052b3b85fb3a10068",
    "controller-ingest_gap": "5654b8355059119b18cf99696d799e09549f51bece06fcfb030c9c6e5a3720b4",
}

#: ``y`` digests of the geometries above quantum 1, same provenance
PINNED_Y = {
    "tau1-scalar": "cc8c8f356c10db5896333c1cf9eaa0f0f63d2763d9b023d7ea0833c1cf19e9a3",
    "tau1-update_many": "cc8c8f356c10db5896333c1cf9eaa0f0f63d2763d9b023d7ea0833c1cf19e9a3",
    "tau1-receive_many": "9aa03c69ec839e25261b4b04bb26c89d0f0bcec2e673f00172597fb02046e00c",
    "tau1-ingest_gap": "e73ae73188a93e769d27697f1ae56eb43adc645184dc076ddb8aec55cf731c3d",
    "tau1_16-scalar": "c9ef80d118dcb5dfd53ed63ab0a5006e17e76e2056378738271703749f1fb50e",
    "tau1_16-update_many": "c9ef80d118dcb5dfd53ed63ab0a5006e17e76e2056378738271703749f1fb50e",
    "tau1_16-receive_many": "b3db1c314375312ee47014208f18655d16f93fd56506bb5826e512cafb9e9af6",
    "tau1_16-ingest_gap": "9dc0154408ec4fb55ca19d10b3899d835f5709b3d678f0a5b3a4f4b418ce3040",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_state_matches_the_block_deque_layout(case):
    geometry, feed = case.split("-")
    m, theta = run(geometry, feed)
    assert digest(state(m, theta)) == PINNED[case]
    if m.sample_block == 1:
        y = m._y
        assert y._head is None and not y._index
        assert y.monitored == y.processed == 0
    else:
        assert digest(y_chain(m)) == PINNED_Y[case]


def test_every_geometry_and_feed_is_pinned():
    assert set(PINNED) == {f"{g}-{f}" for g in GEOMETRIES for f in FEEDS}
    quanta = {
        g: Memento(window, counters=counters, tau=tau).sample_block
        for g, (window, counters, tau, *_) in GEOMETRIES.items()
    }
    assert quanta["controller"] == 1
    assert set(PINNED_Y) == {
        case for case in PINNED if quanta[case.split("-")[0]] > 1
    }
