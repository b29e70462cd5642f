"""Shared plumbing for the per-figure experiment drivers.

Every figure/table of the paper's evaluation has a driver module in this
package exposing ``run(...) -> list[dict]`` (the figure's data series) and
``format_table(rows) -> str`` (a paper-style text rendering).  The
``benchmarks/`` harness and the ``python -m repro`` CLI both call these, so
the numbers in EXPERIMENTS.md, the benches, and ad-hoc runs always come
from the same code.

Scaling: the paper ran 5M-packet windows over 16M-packet traces on a Xeon
with C implementations.  Pure Python is orders of magnitude slower, so the
drivers default to proportionally scaled inputs and honour the
``REPRO_SCALE`` environment variable (a float multiplier on the default
sizes; ``REPRO_SCALE=100`` approaches paper-sized runs).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "scale",
    "scaled",
    "format_rows",
    "rate_mpps",
    "drive",
    "measure_throughput",
]

#: Default batch size for the drivers' batch-ingestion feeding.
DEFAULT_CHUNK = 4096


def scale(default: float = 1.0) -> float:
    """The global experiment scale factor from ``REPRO_SCALE`` (≥ 0.01)."""
    try:
        value = float(os.environ.get("REPRO_SCALE", default))
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be a number, got "
            f"{os.environ.get('REPRO_SCALE')!r}"
        ) from None
    return max(0.01, value)


def scaled(base: int, default: float = 1.0) -> int:
    """``base`` packets scaled by :func:`scale` (at least 1)."""
    return max(1, int(base * scale(default)))


def format_rows(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    floatfmt: str = "{:.4g}",
) -> str:
    """Render result rows as an aligned text table (paper-style)."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        line = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                line.append(floatfmt.format(value))
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    out_lines = []
    for idx, line in enumerate(rendered):
        out_lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        )
        if idx == 0:
            out_lines.append("  ".join("-" * width for width in widths))
    return "\n".join(out_lines)


def rate_mpps(packets: int, seconds: float) -> float:
    """Throughput in million packets per second."""
    if seconds <= 0:
        return float("inf")
    return packets / seconds / 1e6


def drive(algorithm, stream: Sequence, chunk_size: int = DEFAULT_CHUNK):
    """Feed ``stream`` into ``algorithm`` through its batch ingestion path.

    Prefers the algorithm's own ``extend`` (all the core sketches have
    one; it consumes arbitrary iterables incrementally), then chunked
    ``update_many``, then the scalar ``update`` loop.  Returns the
    algorithm for chaining.
    """
    extend = getattr(algorithm, "extend", None)
    if extend is not None:
        extend(stream, chunk_size=chunk_size)
        return algorithm
    update_many = getattr(algorithm, "update_many", None)
    if update_many is None:
        update = algorithm.update
        for item in stream:
            update(item)
        return algorithm
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    for start in range(0, len(stream), chunk_size):
        update_many(stream[start : start + chunk_size])
    return algorithm


def measure_throughput(
    algorithm,
    stream: Sequence,
    chunk_size: int = DEFAULT_CHUNK,
    batch: bool = True,
) -> float:
    """Update throughput (packets/second) of one ingestion run.

    ``batch=True`` measures the batch path via :func:`drive` (the system's
    hot path); ``batch=False`` measures the historical per-packet loop.
    The run is timed on this thread's CPU clock: every measured sketch
    ingests on the calling thread, and CPU time keeps the speed ratios
    the figures report from moving with host load.
    """
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    start = time.thread_time()
    if batch:
        drive(algorithm, stream, chunk_size=chunk_size)
    else:
        update = algorithm.update
        for item in stream:
            update(item)
    elapsed = time.thread_time() - start
    return len(stream) / elapsed if elapsed > 0 else float("inf")
