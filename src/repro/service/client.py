"""Blocking client for the live monitoring service.

:class:`MonitorClient` opens one session over a plain TCP socket and
speaks the :mod:`~repro.service.protocol` frames synchronously — the
natural shape for instrumented application code, tests, and the
``python -m repro client`` CLI, none of which want an event loop.
Pushed frames (verdicts, throttles) are collected whenever the client
touches the socket: explicitly via :meth:`~MonitorClient.poll` /
:meth:`~MonitorClient.wait_verdicts`, and implicitly while waiting for
a ``stats`` reply or during :meth:`~MonitorClient.close`.

:func:`plan_replay` / :func:`replay_trace` turn a recorded
:class:`~repro.events.trace.Trace` into the live frame stream a real
deployment would produce: per-node program order, receives after their
sends (via :func:`~repro.events.trace.causal_schedule`), events tagged
into intervals by label, and a ``close`` frame for each label issued
by the client that owns the label's *last* event.  Sharding splits the
stream by node (``node % num_shards == shard``); because every shard
derives the same global schedule, exactly one shard owns each close,
and the server's deferred-close counting makes arrival order
irrelevant.
"""

from __future__ import annotations

import socket
from typing import Any

from ..events.trace import Trace, causal_schedule
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)

__all__ = ["MonitorClient", "ServiceError", "plan_replay", "replay_trace"]

_RECV_CHUNK = 1 << 16


class ServiceError(RuntimeError):
    """The service answered with a terminal ``error`` frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class MonitorClient:
    """One blocking session against a :class:`~repro.service.server.MonitorService`.

    Connects, performs the hello/welcome handshake, and exposes the
    client-side frame vocabulary as methods.  Usable as a context
    manager; :attr:`verdicts` and :attr:`throttles` accumulate the
    pushes observed so far.

    Parameters
    ----------
    host, port:
        Service address.
    num_nodes:
        If given, sent in the hello so the server can reject a client
        instrumented for a different system width.
    timeout:
        Socket timeout for blocking reads (seconds).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        num_nodes: int | None = None,
        timeout: float = 10.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.verdicts: list[dict[str, Any]] = []
        self.throttles = 0
        self.session: int | None = None
        self.num_nodes: int | None = None
        self._decoder = FrameDecoder(max_frame_bytes)
        self._timeout = timeout
        self._pending: list[dict[str, Any]] = []
        self._closed = False
        sock = socket.create_connection((host, port), timeout=timeout)
        try:
            # frames are small and go out one per call: Nagle's
            # algorithm would hold each back until the last is ACKed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            hello: dict[str, Any] = {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "role": "client",
            }
            if num_nodes is not None:
                hello["num_nodes"] = num_nodes
            self._send(hello)
            welcome = self._read_until("welcome")
            self.session = welcome["session"]
            self.num_nodes = welcome["num_nodes"]
        except BaseException:
            sock.close()
            raise

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------
    def _send(self, frame: dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(frame))

    def _dispatch(self, frame: dict[str, Any]) -> dict[str, Any] | None:
        """Absorb push frames; return the frame if it is a reply."""
        ftype = frame.get("type")
        if ftype == "verdict":
            self.verdicts.append(frame)
            return None
        if ftype == "throttle":
            self.throttles += 1
            return None
        if ftype == "error":
            self._closed = True
            raise ServiceError(frame.get("code", "?"), frame.get("message", ""))
        return frame

    def _read_until(self, ftype: str) -> dict[str, Any]:
        """Block until a frame of the given type arrives, absorbing
        pushes along the way."""
        self._sock.settimeout(self._timeout)
        while True:
            while self._pending:
                reply = self._dispatch(self._pending.pop(0))
                if reply is not None and reply.get("type") == ftype:
                    return reply
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                self._closed = True
                raise ConnectionError("service closed the connection")
            self._pending.extend(self._decoder.feed(chunk))

    def poll(self) -> int:
        """Drain any already-arrived pushes without blocking; returns
        the number of frames absorbed."""
        absorbed = 0
        while self._pending:
            self._dispatch(self._pending.pop(0))
            absorbed += 1
        if self._closed:
            return absorbed
        self._sock.setblocking(False)
        try:
            while True:
                try:
                    chunk = self._sock.recv(_RECV_CHUNK)
                except (BlockingIOError, InterruptedError):
                    break
                if not chunk:
                    self._closed = True
                    break
                for frame in self._decoder.feed(chunk):
                    self._dispatch(frame)
                    absorbed += 1
        finally:
            self._sock.settimeout(self._timeout)
        return absorbed

    # ------------------------------------------------------------------
    # frame vocabulary
    # ------------------------------------------------------------------
    def send_event(
        self,
        node: int,
        kind: str = "internal",
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
        send: tuple[int, int] | list[int] | None = None,
    ) -> None:
        """Stream one observed event (fire-and-forget)."""
        frame: dict[str, Any] = {"type": "event", "node": node, "kind": kind}
        if label is not None:
            frame["label"] = label
        if time is not None:
            frame["time"] = time
        if interval is not None:
            frame["interval"] = interval
        if send is not None:
            frame["send"] = list(send)
        self._send(frame)

    def close_interval(self, interval: str, expected: int) -> None:
        """Declare ``interval`` complete at ``expected`` tagged events."""
        self._send({"type": "close", "interval": interval, "expected": expected})

    def watch(self, name: str, condition: str) -> None:
        """Register a watch condition."""
        self._send({"type": "watch", "name": name, "condition": condition})

    def stats(self) -> dict[str, Any]:
        """Fetch the service's counters snapshot (blocks for the reply,
        which also confirms every previously sent frame was ingested).

        Ingested is not applied: a causally early frame (a receive
        whose send is still missing) may sit parked, and parked frames
        are not yet in the replicated log.  ``stats()["parked"] == 0``
        is the durability check a client should make before treating
        its stream as fully handed off."""
        self._send({"type": "stats"})
        return self._read_until("stats")["stats"]

    def wait_verdicts(self, count: int) -> list[dict[str, Any]]:
        """Block until at least ``count`` verdicts have been pushed."""
        self._sock.settimeout(self._timeout)
        while len(self.verdicts) < count:
            while self._pending:
                self._dispatch(self._pending.pop(0))
            if len(self.verdicts) >= count:
                break
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                self._closed = True
                raise ConnectionError(
                    f"service closed with {len(self.verdicts)}/{count} verdicts"
                )
            self._pending.extend(self._decoder.feed(chunk))
        return self.verdicts

    def close(self) -> None:
        """End the session cleanly (idempotent): bye, drain, shutdown."""
        if self._closed:
            self._sock.close()
            return
        try:
            self._send({"type": "bye"})
            self._read_until("bye")
        except (ConnectionError, OSError, ServiceError):
            pass
        finally:
            self._closed = True
            self._sock.close()

    def __enter__(self) -> "MonitorClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------
def plan_replay(
    trace: Trace, shard: int = 0, num_shards: int = 1
) -> list[dict[str, Any]]:
    """Frames this shard must stream to replay ``trace`` live.

    Nodes are partitioned round-robin (``node % num_shards == shard``);
    the returned frames keep the causal schedule's order for the owned
    nodes.  Each labelled event is tagged into the interval named by
    its label, and the shard owning a label's globally *last* event
    also emits that label's ``close`` frame (with ``expected`` set to
    the label's total count across *all* shards).
    """
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard {shard} outside 0..{num_shards - 1}")
    schedule = causal_schedule(trace)
    totals: dict[str, int] = {}
    last_owner: dict[str, int] = {}
    for node, ev, _send in schedule:
        if ev.label is not None:
            totals[ev.label] = totals.get(ev.label, 0) + 1
            last_owner[ev.label] = node
    frames: list[dict[str, Any]] = []
    seen: dict[str, int] = {}
    for node, ev, send in schedule:
        mine = node % num_shards == shard
        if mine:
            frame: dict[str, Any] = {
                "type": "event",
                "node": node,
                "kind": ev.kind.value,
            }
            if ev.label is not None:
                frame["label"] = ev.label
                frame["interval"] = ev.label
            if ev.time is not None:
                frame["time"] = ev.time
            if send is not None:
                frame["send"] = [send[0], send[1]]
            frames.append(frame)
        if ev.label is not None:
            seen[ev.label] = seen.get(ev.label, 0) + 1
            if (
                seen[ev.label] == totals[ev.label]
                and last_owner[ev.label] % num_shards == shard
            ):
                frames.append({
                    "type": "close",
                    "interval": ev.label,
                    "expected": totals[ev.label],
                })
    return frames


def replay_trace(
    client: MonitorClient,
    trace: Trace,
    shard: int = 0,
    num_shards: int = 1,
    *,
    poll_every: int = 64,
) -> dict[str, int]:
    """Stream one shard of a recorded trace through a live session.

    Polls the socket every ``poll_every`` frames so verdict and
    throttle pushes are absorbed while streaming (a client that never
    reads would eventually trip the server's slow-consumer cutoff).
    Returns ``{"events": ..., "closes": ...}`` counts.
    """
    events = closes = 0
    for i, frame in enumerate(plan_replay(trace, shard, num_shards)):
        client._send(frame)
        if frame["type"] == "event":
            events += 1
        else:
            closes += 1
        if poll_every and (i + 1) % poll_every == 0:
            client.poll()
    client.poll()
    return {"events": events, "closes": closes}
