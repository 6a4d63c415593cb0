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

from .event import Event, EventId, EventKind

__all__ = ["Message", "Trace", "TraceError", "causal_schedule"]


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
    Acyclicity of the induced happened-before relation is *not* checked
    here (it requires a topological pass); it is enforced when the trace
    is analysed by :class:`repro.events.poset.Execution`.
    """

    __slots__ = ("_events", "_messages", "_recv_of", "_send_of", "_num_nodes")

    def __init__(
        self,
        events: Sequence[Sequence[Event]],
        messages: Sequence[Message] = (),
    ) -> None:
        self._events: tuple[tuple[Event, ...], ...] = tuple(
            tuple(per_node) for per_node in events
        )
        self._messages: tuple[Message, ...] = tuple(messages)
        self._num_nodes = len(self._events)
        self._validate_events()
        self._send_of: dict[EventId, EventId] = {}
        self._recv_of: dict[EventId, EventId] = {}
        self._validate_messages()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate_events(self) -> None:
        for i, per_node in enumerate(self._events):
            for j, ev in enumerate(per_node, 1):
                if ev.node != i or ev.index != j or ev.kind not in _REAL_KINDS:
                    raise _bad_event(i, j, ev)

    def _validate_messages(self) -> None:
        for msg in self._messages:
            snd = self._checked_event(msg.send, "send")
            rcv = self._checked_event(msg.recv, "recv")
            if snd.kind is not EventKind.SEND:
                raise TraceError(f"message send endpoint {snd} is not a SEND event")
            if rcv.kind is not EventKind.RECV:
                raise TraceError(f"message recv endpoint {rcv} is not a RECV event")
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

    def _checked_event(self, eid: EventId, role: str) -> Event:
        node, index = eid
        if not (0 <= node < self._num_nodes):
            raise TraceError(f"message {role} endpoint {eid}: no such node")
        if not (1 <= index <= len(self._events[node])):
            raise TraceError(f"message {role} endpoint {eid}: no such event")
        return self._events[node][index - 1]

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
        return len(self._events[node])

    @property
    def total_events(self) -> int:
        """Total number of real events across all nodes."""
        return sum(len(per_node) for per_node in self._events)

    def events_of(self, node: int) -> tuple[Event, ...]:
        """The real events of ``node`` in local order."""
        return self._events[node]

    def event(self, eid: EventId) -> Event:
        """Look up the real event with identifier ``eid``.

        Raises
        ------
        KeyError
            If ``eid`` does not denote a real event of this trace.
        """
        node, index = eid
        if not (0 <= node < self._num_nodes) or not (
            1 <= index <= len(self._events[node])
        ):
            raise KeyError(eid)
        return self._events[node][index - 1]

    def send_of(self, recv: EventId) -> EventId | None:
        """The send event matched to receive event ``recv`` (or None)."""
        return self._send_of.get(recv)

    def recv_of(self, send: EventId) -> EventId | None:
        """The receive event matched to send event ``send`` (or None)."""
        return self._recv_of.get(send)

    def iter_events(self) -> Iterator[Event]:
        """Iterate over every real event, node-major."""
        for per_node in self._events:
            yield from per_node

    def iter_ids(self) -> Iterator[EventId]:
        """Iterate over every real event identifier, node-major."""
        for per_node in self._events:
            for ev in per_node:
                yield ev.eid

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._events == other._events and set(self._messages) == set(
            other._messages
        )

    def __hash__(self) -> int:
        return hash((self._events, frozenset(self._messages)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(nodes={self._num_nodes}, events={self.total_events}, "
            f"messages={len(self._messages)})"
        )


#: The kinds a trace event may have: no ``⊥``/``⊤`` dummy, and nothing
#: that is not an :class:`EventKind`.
_REAL_KINDS = frozenset(kind for kind in EventKind if not kind.is_dummy)


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
