"""Recorded traces of distributed computations.

A :class:`Trace` is the raw, immutable record of one distributed
execution: for every node, the linearly ordered sequence of real events
it executed, plus the set of messages exchanged (as pairs of send/recv
event identifiers).  A trace is purely syntactic — causality, vector
timestamps and the cut machinery are layered on top by
:class:`repro.events.poset.Execution`.

Traces are what the paper's Problem 4 takes as input: *"Given a recorded
trace of a distributed computation (E, ≺) and a set of nonatomic events
A ..."*.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import attrgetter
from typing import Any, NamedTuple

from .event import Event, EventId, EventKind

__all__ = ["Message", "NodeColumns", "Trace", "TraceError", "causal_schedule"]


class TraceError(ValueError):
    """Raised when a trace is structurally invalid."""


@dataclass(frozen=True, slots=True)
class Message:
    """A message edge: the send event and its matching receive event.

    Both ends are identified by ``(node, index)`` pairs of *real*
    events.  A message may connect two events of the same node (a
    self-message), in which case the send must locally precede the
    receive.
    """

    send: EventId
    recv: EventId

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.send}->{self.recv}"


class NodeColumns(NamedTuple):
    """One node's stored events as columns; entry ``j`` is event ``j + 1``."""

    kinds: tuple[EventKind, ...]
    labels: tuple[str | None, ...]
    times: tuple[float | None, ...]
    payloads: tuple[Any, ...]


class Trace:
    """An immutable record of one distributed execution.

    Parameters
    ----------
    events:
        ``events[i]`` is the sequence of *real* events of node ``i`` in
        local execution order.  Event ``events[i][j]`` must carry
        ``node == i`` and ``index == j + 1``.
    messages:
        The message edges.  Each send event must be of kind
        :attr:`EventKind.SEND` and each receive of kind
        :attr:`EventKind.RECV`; every event can be the endpoint of at
        most one message in each role.

    Raises
    ------
    TraceError
        If indices, kinds or message endpoints are inconsistent.

    Notes
    -----
    Storage is columnar: each node keeps four equal-length tuples
    (kinds, labels, times, payloads; see :meth:`node_columns`), and the
    trace keeps the per-node lengths.  Counts, identifiers and message
    validation read only the lengths and the kind column, so a trace
    filled from columns (:meth:`from_columns`, as
    :func:`~repro.events.serialization.loads` does) is analysed without
    building one :class:`Event`.  The :class:`Event` tuple of a node is
    built on the first :meth:`events_of`, :meth:`event` or
    :meth:`iter_events` call that reads the node and memoised; a trace
    built from events starts with that memo filled by the tuples it was
    given.

    Acyclicity of the induced happened-before relation is *not* checked
    here (it requires a topological pass); it is enforced when the trace
    is analysed by :class:`repro.events.poset.Execution`.
    """

    __slots__ = (
        "_columns", "_lengths", "_memo", "_messages", "_recv_of", "_send_of",
        "_num_nodes",
    )

    _columns: tuple[NodeColumns, ...]
    _memo: list[tuple[Event, ...] | None]

    def __init__(
        self,
        events: Sequence[Sequence[Event]],
        messages: Sequence[Message] = (),
    ) -> None:
        memo = [tuple(per_node) for per_node in events]
        columns = [
            NodeColumns._make(tuple(map(get, per_node)) for get in _EVENT_FIELDS)
            for per_node in memo
        ]
        for i, (per_node, col) in enumerate(zip(memo, columns, strict=True)):
            if (
                list(map(_NODE, per_node)) != [i] * len(per_node)
                or list(map(_INDEX, per_node)) != list(range(1, len(per_node) + 1))
                or not _REAL_KINDS.issuperset(col.kinds)
            ):
                raise next(
                    _bad_event(i, j, ev) for j, ev in enumerate(per_node, 1)
                    if ev.node != i or ev.index != j or ev.kind not in _REAL_KINDS
                )
        self._store(columns, list(memo))
        self._set_messages(messages)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[NodeColumns],
        messages: Sequence[Message] = (),
    ) -> Trace:
        """A trace stored straight from per-node columns.

        ``columns[i]`` holds node ``i``'s kinds, labels, times and
        payloads; entry ``j`` of each describes event ``(i, j + 1)``.
        Validates as the event constructor does, with one set check of
        each node's kind column instead of one check per event.  Builds
        no :class:`Event`.

        Raises
        ------
        TraceError
            If a node's columns differ in length, a kind is not a real
            :class:`EventKind`, or a message endpoint is inconsistent.
        """
        stored = [NodeColumns._make(map(tuple, col)) for col in columns]
        for i, col in enumerate(stored):
            if not len(col.labels) == len(col.times) == len(col.payloads) == len(col.kinds):
                raise TraceError(f"node {i}: its event columns differ in length")
            if not _REAL_KINDS.issuperset(col.kinds):
                j = next(j for j, kind in enumerate(col.kinds, 1) if kind not in _REAL_KINDS)
                raise _bad_event(i, j, Event(i, j, col.kinds[j - 1], col.labels[j - 1]))
        trace = cls.__new__(cls)
        trace._store(stored, [None] * len(stored))
        trace._set_messages(messages)
        return trace

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _store(
        self, columns: list[NodeColumns], memo: list[tuple[Event, ...] | None]
    ) -> None:
        self._columns = tuple(columns)
        self._lengths = tuple(len(col.kinds) for col in columns)
        self._num_nodes = len(columns)
        self._memo = memo

    def _set_messages(self, messages: Sequence[Message]) -> None:
        self._messages: tuple[Message, ...] = tuple(messages)
        self._send_of: dict[EventId, EventId] = {}
        self._recv_of: dict[EventId, EventId] = {}
        for msg in self._messages:
            if self._checked_kind(msg.send, "send") is not EventKind.SEND:
                raise TraceError(
                    f"message send endpoint {self.event(msg.send)} is not a SEND event"
                )
            if self._checked_kind(msg.recv, "recv") is not EventKind.RECV:
                raise TraceError(
                    f"message recv endpoint {self.event(msg.recv)} is not a RECV event"
                )
            if msg.send in self._recv_of:
                raise TraceError(f"event {msg.send} sends two messages")
            if msg.recv in self._send_of:
                raise TraceError(f"event {msg.recv} receives two messages")
            if msg.send[0] == msg.recv[0] and msg.send[1] >= msg.recv[1]:
                raise TraceError(
                    f"self-message {msg} must be sent before it is received"
                )
            self._recv_of[msg.send] = msg.recv
            self._send_of[msg.recv] = msg.send

    def _checked_kind(self, eid: EventId, role: str) -> EventKind:
        node, index = eid
        if not (0 <= node < self._num_nodes):
            raise TraceError(f"message {role} endpoint {eid}: no such node")
        if not (1 <= index <= self._lengths[node]):
            raise TraceError(f"message {role} endpoint {eid}: no such event")
        return self._columns[node].kinds[index - 1]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of process/node partitions ``|P|``."""
        return self._num_nodes

    @property
    def messages(self) -> tuple[Message, ...]:
        """All message edges of the trace."""
        return self._messages

    def num_real(self, node: int) -> int:
        """Number of real events ``k_i`` on ``node``."""
        return self._lengths[node]

    @property
    def total_events(self) -> int:
        """Total number of real events across all nodes."""
        return sum(self._lengths)

    def node_columns(self, node: int) -> NodeColumns:
        """The stored columns of ``node``: kinds, labels, times, payloads.

        Entry ``j`` of each column describes event ``(node, j + 1)``.
        Reading them builds no :class:`Event`.
        """
        return self._columns[node]

    def events_of(self, node: int) -> tuple[Event, ...]:
        """The real events of ``node`` in local order (built once, then memoised)."""
        events = self._memo[node]
        if events is None:
            node = range(self._num_nodes)[node]  # a negative node counts back
            events = self._memo[node] = tuple(map(
                Event, repeat(node), range(1, self._lengths[node] + 1),
                *self._columns[node],
            ))
        return events

    def event(self, eid: EventId) -> Event:
        """Look up the real event with identifier ``eid``.

        Raises
        ------
        KeyError
            If ``eid`` does not denote a real event of this trace.
        """
        node, index = eid
        if not (0 <= node < self._num_nodes) or not (
            1 <= index <= self._lengths[node]
        ):
            raise KeyError(eid)
        return self.events_of(node)[index - 1]

    def send_of(self, recv: EventId) -> EventId | None:
        """The send event matched to receive event ``recv`` (or None)."""
        return self._send_of.get(recv)

    def recv_of(self, send: EventId) -> EventId | None:
        """The receive event matched to send event ``send`` (or None)."""
        return self._recv_of.get(send)

    def iter_events(self) -> Iterator[Event]:
        """Iterate over every real event, node-major."""
        for node in range(self._num_nodes):
            yield from self.events_of(node)

    def iter_ids(self) -> Iterator[EventId]:
        """Iterate over every real event identifier, node-major."""
        for node, k in enumerate(self._lengths):
            yield from zip(repeat(node, k), range(1, k + 1), strict=True)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._compared() == other._compared() and set(
            self._messages
        ) == set(other._messages)

    def __hash__(self) -> int:
        return hash((self._compared(), frozenset(self._messages)))

    def _compared(self) -> tuple[tuple[Any, ...], ...]:
        """Kinds, labels and times per node: what :class:`Event` equality
        compares (node and index are positional, payloads excluded)."""
        return tuple(col[:3] for col in self._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(nodes={self._num_nodes}, events={self.total_events}, "
            f"messages={len(self._messages)})"
        )


#: The kinds a trace event may have: no ``⊥``/``⊤`` dummy, and nothing
#: that is not an :class:`EventKind`.
_REAL_KINDS = frozenset(kind for kind in EventKind if not kind.is_dummy)

_NODE, _INDEX = attrgetter("node"), attrgetter("index")

#: The :class:`Event` fields stored as :class:`NodeColumns`, in order.
_EVENT_FIELDS = tuple(map(attrgetter, ("kind", "label", "time", "payload")))


def _bad_event(node: int, index: int, ev: Event) -> TraceError:
    """Why event ``ev``, stored as ``(node, index)``, is rejected."""
    if ev.node != node:
        return TraceError(
            f"event {ev} stored under node {node} but claims node {ev.node}"
        )
    if ev.index != index:
        return TraceError(
            f"event {ev} at position {index - 1} of node {node} must have "
            f"index {index}, got {ev.index}"
        )
    return TraceError(
        f"dummy event {ev} may not appear in a trace; dummies "
        "are synthesised by Execution"
    )


def _node_lengths(trace: Trace) -> list[int]:
    """Per-node real event counts (helper shared by clock routines)."""
    return [trace.num_real(i) for i in range(trace.num_nodes)]


def causal_schedule(trace: Trace) -> list[tuple[int, Event, EventId | None]]:
    """A causally valid global replay order for a recorded trace.

    Returns ``(node, event, send_eid)`` triples — exactly what a live
    monitoring point would observe: per-node program order, every
    receive after its matching send.  ``send_eid`` is the id of the
    matching send for receive events, else ``None``.  Shared by the
    ``stream`` CLI command, the networked monitoring client's trace
    replay, and the streaming benchmarks.

    Raises
    ------
    TraceError
        If no such order exists (a cycle through the message edges).
    """
    order: list[tuple[int, Event, EventId | None]] = []
    emitted: set[EventId] = set()
    pos = [0] * trace.num_nodes
    progressed = True
    while progressed:
        progressed = False
        for node in range(trace.num_nodes):
            while pos[node] < trace.num_real(node):
                ev = trace.events_of(node)[pos[node]]
                send = trace.send_of(ev.eid)
                if send is not None and send not in emitted:
                    break  # wait until the matching send is replayed
                emitted.add(ev.eid)
                order.append((node, ev, send))
                pos[node] += 1
                progressed = True
    if pos != _node_lengths(trace):
        raise TraceError(
            "trace admits no causally valid replay order (message cycle)"
        )
    return order
