"""Imperative construction of traces, recorded as columns.

:class:`TraceBuilder` is the programmatic way to record a distributed
execution event by event — used by the simulator, the workload
generators, the scripted paper-figure scenarios, the online monitor
and by tests that need hand-crafted posets.

Storage is the columnar layout :class:`~repro.events.trace.Trace`
keeps (:class:`~repro.events.trace.NodeColumns`): per node, a
``bytearray`` of kind codes and lists of labels, times and payloads.
Labels are interned once per builder, so a stream that repeats a few
labels keeps one string per distinct label.  Message endpoints go into
one flat ``array('q')``, and double receives are caught by a per-node
``bytearray`` of received flags.  Recording builds no
:class:`~repro.events.event.Event` and no
:class:`~repro.events.trace.Message`; :meth:`TraceBuilder.build` hands
the columns to :meth:`Trace.from_columns
<repro.events.trace.Trace.from_columns>`, which builds ``Event`` objects
only when a node's events are read.

Example
-------
Build the two-process execution ``a1 → b2`` (node 0 sends, node 1 does
an internal event then receives)::

    b = TraceBuilder(2)
    m = b.send(0, label="req")
    b.internal(1)
    b.recv(1, m)
    execution = b.execute()
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

from .event import EventId, EventKind
from .poset import Execution
from .trace import Message, NodeColumns, Trace, TraceError

__all__ = ["MessageHandle", "TraceBuilder"]

#: Kind codes stored in a node's kind column, and the kinds they decode to.
_INTERNAL, _SEND, _RECV = 0, 1, 2
_KIND_OF = (EventKind.INTERNAL, EventKind.SEND, EventKind.RECV)


@dataclass(frozen=True, slots=True)
class MessageHandle:
    """Opaque handle returned by :meth:`TraceBuilder.send`.

    Pass it to :meth:`TraceBuilder.recv` to close the message edge.
    """

    send: EventId


class TraceBuilder:
    """Incremental builder for :class:`~repro.events.trace.Trace`.

    Parameters
    ----------
    num_nodes:
        Number of process partitions.  Node ids are ``0..num_nodes-1``.

    Notes
    -----
    The builder appends events in per-node program order; the global
    interleaving is whatever order the ``internal``/``send``/``recv``
    calls are made in, but only the per-node orders and message edges
    matter causally.  Unreceived sends are legal (lost messages).
    Each event costs one kind byte, one received-flag byte and one
    slot in each of the label, time and payload lists; each message
    four integers.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self._kinds = [bytearray() for _ in range(num_nodes)]
        self._labels: list[list[str | None]] = [[] for _ in range(num_nodes)]
        self._times: list[list[float | None]] = [[] for _ in range(num_nodes)]
        self._payloads: list[list[Any]] = [[] for _ in range(num_nodes)]
        self._received = [bytearray() for _ in range(num_nodes)]
        # (send node, send index, recv node, recv index) per message
        self._ends = array("q")
        self._interned: dict[str, str] = {}

    @property
    def num_nodes(self) -> int:
        """Number of process partitions."""
        return len(self._kinds)

    def count(self, node: int) -> int:
        """Number of events appended to ``node`` so far."""
        return len(self._kinds[node])

    def last_id(self, node: int) -> EventId | None:
        """Identifier of the most recent event on ``node`` (or None)."""
        k = len(self._kinds[node])
        return (node, k) if k else None

    def is_send(self, eid: EventId) -> bool:
        """Whether ``eid`` names a send event appended so far.

        Answered from the kind column: no :class:`Event` is built, and
        an unknown node or index reads False.
        """
        node, index = eid
        return (
            0 <= node < len(self._kinds)
            and 1 <= index <= len(self._kinds[node])
            and self._kinds[node][index - 1] == _SEND
        )

    def is_received(self, send: EventId) -> bool:
        """Whether the send event ``send`` already has its receive
        appended (one read of the received flags; False for an id that
        names no send)."""
        return self.is_send(send) and bool(self._received[send[0]][send[1] - 1])

    # ------------------------------------------------------------------
    # event appenders
    # ------------------------------------------------------------------
    def _append(
        self,
        node: int,
        kind: int,
        label: str | None,
        time: float | None,
        payload: object,
    ) -> EventId:
        if not (0 <= node < len(self._kinds)):
            raise ValueError(f"no such node: {node}")
        if label is not None:
            label = self._interned.setdefault(label, label)
        kinds = self._kinds[node]
        kinds.append(kind)
        self._received[node].append(0)
        self._labels[node].append(label)
        self._times[node].append(time)
        self._payloads[node].append(payload)
        return (node, len(kinds))

    def internal(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        payload: object = None,
    ) -> EventId:
        """Append an internal event on ``node``; returns its id."""
        return self._append(node, _INTERNAL, label, time, payload)

    def send(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        payload: object = None,
    ) -> MessageHandle:
        """Append a send event on ``node``; returns a message handle."""
        return MessageHandle(send=self._append(node, _SEND, label, time, payload))

    def recv(
        self,
        node: int,
        handle: MessageHandle,
        *,
        label: str | None = None,
        time: float | None = None,
        payload: object = None,
    ) -> EventId:
        """Append a receive event on ``node`` matched to ``handle``.

        Raises
        ------
        TraceError
            If the handle names no send event of this builder, or its
            message was already received (a :class:`ValueError`).
        """
        send = handle.send
        if not self.is_send(send):
            raise TraceError(f"message from {send}: no such send event")
        s_node, s_idx = send
        flags = self._received[s_node]
        if flags[s_idx - 1]:
            raise TraceError(f"message from {send} already received")
        eid = self._append(node, _RECV, label, time, payload)
        flags[s_idx - 1] = 1
        self._ends.extend((s_node, s_idx, *eid))
        return eid

    def message(
        self,
        src: int,
        dst: int,
        *,
        label: str | None = None,
        time: float | None = None,
    ) -> tuple[EventId, EventId]:
        """Convenience: append a send on ``src`` immediately received on
        ``dst``.  Returns ``(send_id, recv_id)``."""
        h = self.send(src, label=label, time=time)
        r = self.recv(dst, h, label=label, time=time)
        return h.send, r

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def build(self) -> Trace:
        """Finalise into an immutable :class:`Trace` (builder stays usable).

        The trace copies the columns, so later appends do not reach it.
        """
        columns = [
            NodeColumns(
                tuple(map(_KIND_OF.__getitem__, kinds)),
                tuple(labels), tuple(times), tuple(payloads),
            )
            for kinds, labels, times, payloads in zip(
                self._kinds, self._labels, self._times, self._payloads,
                strict=True,
            )
        ]
        ends = iter(self._ends)
        messages = [
            Message(send=(sn, si), recv=(rn, ri))
            for sn, si, rn, ri in zip(ends, ends, ends, ends)
        ]
        return Trace.from_columns(columns, messages)

    def execute(self) -> Execution:
        """Finalise and analyse: build the trace and its :class:`Execution`."""
        return Execution(self.build())
