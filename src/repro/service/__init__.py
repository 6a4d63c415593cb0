"""Live networked monitoring of synchronization conditions.

This package exposes the online monitor
(:class:`~repro.monitor.online.OnlineMonitor`) over the network as a
long-running service.  The pieces, bottom-up:

* :mod:`~repro.service.protocol` — the length-prefixed newline-JSON
  wire protocol (frame encoding, incremental decoding, size limits);
* :mod:`~repro.service.log` — the append-only, fsync-batched,
  replayable event log every accepted operation is written to, and
  its in-memory twin for a service run without a log file;
* :mod:`~repro.service.core` — the transport-agnostic ingest state
  machine: per-node queues feeding a streaming clock table
  (:class:`~repro.events.clocks.GrowableClockTable`), causal parking of
  receives ahead of their sends, deferred interval closes, monotone
  watch-sequence numbering, and warm-standby record application;
* :mod:`~repro.service.server` — the asyncio front end
  (:class:`~repro.service.server.MonitorService`): client sessions,
  backpressure (``throttle`` frames, then disconnects), verdict
  pushes, replication streaming, and promotion;
* :mod:`~repro.service.client` — the blocking-socket
  :class:`~repro.service.client.MonitorClient` plus recorded-trace
  replay.

See ``docs/SERVICE.md`` for the protocol and failover semantics, and
``python -m repro serve`` / ``python -m repro client`` for the CLI.
"""

from .client import MonitorClient, ServiceError, plan_replay, replay_trace
from .core import MonitorCore, ShardCounters
from .log import EventLog, LogError, read_records
from .protocol import (
    FrameDecoder,
    FrameTooLargeError,
    ProtocolError,
    encode_frame,
)
from .server import MonitorService, ServiceHandle

__all__ = [
    "EventLog",
    "FrameDecoder",
    "FrameTooLargeError",
    "LogError",
    "MonitorClient",
    "MonitorCore",
    "MonitorService",
    "ProtocolError",
    "ServiceError",
    "ServiceHandle",
    "ShardCounters",
    "encode_frame",
    "plan_replay",
    "read_records",
    "replay_trace",
]
