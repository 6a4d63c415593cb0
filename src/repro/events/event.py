"""Atomic events of a distributed execution.

The paper models a distributed computation as a poset ``(E, ≺)`` whose
elements are *atomic events*, partitioned into local executions ``E_i``
(one linearly ordered sequence per process/node ``i``).  Each local
execution carries two *dummy* events: an initial event ``⊥_i`` and a
final event ``⊤_i`` that respectively precede and follow every real
event of the whole computation.

This module defines the primitive :class:`Event` value type and its
identifier scheme.  An event is identified by its ``(node, index)`` pair:

* ``index == 0`` is the dummy initial event ``⊥_i``;
* ``1 <= index <= k_i`` are the real events, in local execution order;
* ``index == k_i + 1`` is the dummy final event ``⊤_i``.

Events are plain immutable values; all relational structure (causality,
timestamps) lives in :class:`repro.events.poset.Execution`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EventId",
    "EventKind",
    "Event",
    "bottom_id",
    "is_real_id",
]

#: An event identifier: ``(node, local_index)``.
EventId = tuple[int, int]


class EventKind(enum.Enum):
    """Classification of an atomic event.

    ``INTERNAL``, ``SEND`` and ``RECV`` are the usual message-passing
    event kinds; ``BOTTOM`` and ``TOP`` are the dummy events ``⊥_i``
    and ``⊤_i`` required by the paper's model (Section 1).
    """

    INTERNAL = "internal"
    SEND = "send"
    RECV = "recv"
    BOTTOM = "bottom"
    TOP = "top"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==``; it runs in C, unlike ``Enum.__hash__``,
    # which keeps set checks over a trace's kind column cheap.
    __hash__ = object.__hash__

    @property
    def is_dummy(self) -> bool:
        """True for the ``⊥``/``⊤`` sentinel kinds."""
        return self in (EventKind.BOTTOM, EventKind.TOP)


@dataclass(frozen=True, slots=True)
class Event:
    """One atomic event of a distributed execution.

    Parameters
    ----------
    node:
        The process/node partition the event belongs to.
    index:
        Local 1-based index within the node's real events (0 and
        ``k_i + 1`` are reserved for the dummies).
    kind:
        The :class:`EventKind` of the event.
    label:
        Optional application-level tag (e.g. ``"cs-enter"``); used by
        :mod:`repro.nonatomic.selection` to group events into nonatomic
        events.
    time:
        Optional physical timestamp (simulation time); carries no causal
        meaning, but real-time applications report it.
    payload:
        Optional application data attached to the event.
    """

    node: int
    index: int
    kind: EventKind = EventKind.INTERNAL
    label: str | None = None
    time: float | None = None
    payload: Any = field(default=None, compare=False)

    @property
    def eid(self) -> EventId:
        """The ``(node, index)`` identifier of this event."""
        return (self.node, self.index)

    @property
    def is_dummy(self) -> bool:
        """True if this is a ``⊥``/``⊤`` sentinel event."""
        return self.kind.is_dummy

    @property
    def is_real(self) -> bool:
        """True if this is an application (non-dummy) event."""
        return not self.kind.is_dummy

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = f":{self.label}" if self.label else ""
        return f"e({self.node},{self.index}){tag}"


def bottom_id(node: int) -> EventId:
    """Identifier of the dummy initial event ``⊥_node``."""
    return (node, 0)


def is_real_id(eid: EventId, num_real: int) -> bool:
    """True if ``eid`` denotes a real event given ``num_real`` real events.

    Parameters
    ----------
    eid:
        Candidate identifier.
    num_real:
        Number of real events ``k_i`` on the event's node.
    """
    return 1 <= eid[1] <= num_real
