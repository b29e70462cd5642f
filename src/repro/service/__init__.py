"""Always-on ingestion service for the Memento engine (ROADMAP item 2).

The library becomes a daemon: :class:`IngestServer` hosts one
:class:`~repro.engine.HeavyHitterEngine` behind a length-prefixed frame
protocol (TCP and/or unix socket), accepting batched packet reports
from many concurrent clients and serving live
``heavy_hitters`` / ``top_k`` / ``query`` / ``stats`` with
flush-consistent reads.  The pieces:

* :mod:`repro.service.protocol` — the ``repro-wire/2`` framing shared
  by server and clients: a 4-byte big-endian length prefix, then either
  a binary report column (op byte ``0x01``, dtype code ``0x01`` uint32
  or ``0x02`` int64, little-endian uint32 count, little-endian keys) or
  a JSON object (control ops and every response).
* :mod:`repro.service.checkpoint` — the versioned ``repro-ckpt/1``
  checkpoint envelope (resolved spec + pickled engine state + stream
  position + CRC), written atomically, and :class:`CheckpointStore`
  with torn-file fallback and :meth:`CheckpointStore.restore`.
* :mod:`repro.service.server` — :class:`IngestServer` (asyncio) and
  :class:`ServiceDaemon` (thread-hosted wrapper for sync callers),
  with real backpressure: accepted-but-unapplied report bytes are
  bounded by ``ServiceSpec.max_inflight_bytes``, beyond which the
  server stops reading so the transport pushes back on clients.
* :mod:`repro.service.client` — :class:`ServiceClient` (sync) and
  :class:`AsyncServiceClient`.
* :mod:`repro.service.cli` — the ``repro-serve`` console script: a
  daemon is fully described by one JSON spec file with a ``service``
  section (:class:`~repro.engine.ServiceSpec`).

Quickstart::

    from repro.engine import SketchSpec
    from repro.service import ServiceDaemon, ServiceClient

    spec = SketchSpec.from_dict({
        "algorithm": {"family": "memento", "window": 4096,
                      "counters": 64, "tau": 0.5, "seed": 1},
        "service": {"port": 0},
    })
    with ServiceDaemon(spec) as daemon:
        with ServiceClient.connect(port=daemon.port) as client:
            client.report([1, 2, 1])
            heavy = client.heavy_hitters(0.01)
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from .client import AsyncServiceClient, ServiceClient, ServiceError
from .server import IngestServer, ServiceDaemon

__all__ = [
    "AsyncServiceClient",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "IngestServer",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "read_checkpoint",
    "write_checkpoint",
]
