"""Distributed runtime: actors, transports, and the HTTP query gateway.

This package turns the in-process protocol stacks into a real system:

* :mod:`repro.net.frames` — length-prefixed frame codec (partial reads,
  torn-frame detection, oversized-frame rejection).
* :mod:`repro.net.wire` — message/run serialization, reusing the WAL's
  packed-int codec and the snapshot codec for exact round-trips.
* :mod:`repro.net.transport` — pluggable transports: in-process
  loopback queues and framed TCP over asyncio streams.
* :mod:`repro.net.actors` — :class:`SiteHost` (site actors; sync
  protocol core on a worker thread per connection) and
  :class:`CoordinatorHub` (the coordinator actor, hosting the real
  ``Network`` ledger and transcript tracer).
* :mod:`repro.net.cluster` — :class:`Cluster`, the synchronous facade:
  run any scheme over loopback or TCP with transcripts byte-identical
  to :class:`~repro.runtime.Simulation`, checkpoint/restore included.
* :mod:`repro.net.gateway` — the HTTP/JSON query gateway over a
  :class:`~repro.shard.ShardedTrackingService` (request batching,
  bounded ingest queue with backpressure).

Quickstart::

    from repro import RandomizedCountScheme
    from repro.net import Cluster

    with Cluster(RandomizedCountScheme(0.05), num_sites=8, seed=7,
                 transport="tcp") as cluster:
        cluster.run(uniform_sites(100_000, 8, seed=7))
        print(cluster.query(), cluster.comm.total_messages)
"""

from .actors import (
    CoordinatorHub,
    NetError,
    ProtocolError,
    RemoteActorError,
    SiteHost,
    SiteUnavailableError,
    SiteWorker,
)
from .cluster import Cluster, restore_cluster
from .frames import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    TornFrameError,
    encode_frame,
)
from .gateway import Gateway
from .transport import (
    ConnectionClosedError,
    LoopbackTransport,
    TcpTransport,
)
from .wire import decode_chunk, decode_message, encode_chunk, encode_message

__all__ = [
    "Cluster",
    "CoordinatorHub",
    "ConnectionClosedError",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "Gateway",
    "LoopbackTransport",
    "NetError",
    "ProtocolError",
    "RemoteActorError",
    "SiteHost",
    "SiteUnavailableError",
    "SiteWorker",
    "TcpTransport",
    "TornFrameError",
    "decode_chunk",
    "decode_message",
    "encode_chunk",
    "encode_frame",
    "encode_message",
    "restore_cluster",
]
