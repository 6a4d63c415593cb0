"""Nonatomic poset events (intervals).

A *nonatomic event* (Section 1 of the paper) is a non-empty subset
``X ⊆ E`` of atomic events: a higher-level application activity whose
component events may occur concurrently at several nodes.  This module
implements:

* :class:`NonatomicEvent` — the interval itself, with its *node set*
  ``N_X`` (Definition 1) and per-node extremal events precomputed;
* the coupling point where the relation engines cache the four cuts
  C1–C4 (Key Idea 1: *"Once identified at a one-time cost, these cuts
  can be reused at a low cost to evaluate causality relations with
  respect to all other nonatomic events."*).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from ..events.event import EventId
from ..events.poset import Execution

__all__ = ["NonatomicEvent"]


class NonatomicEvent:
    """A nonatomic poset event ``X`` over an :class:`Execution`.

    Parameters
    ----------
    execution:
        The analysed execution the component events belong to.
    ids:
        The component atomic events, as ``(node, index)`` identifiers.
        Must be non-empty, unique, and denote *real* (non-dummy) events
        — the paper notes that *"an event A of interest to an
        application will usually not contain any dummy events"*, and the
        evaluation theory requires it.
    name:
        Optional human-readable name used in reports and specs.

    Notes
    -----
    Construction is ``O(|X|)``.  The per-node least and greatest
    component events (which determine the proxies of Definition 2 and
    all four cuts of Table 2) are computed eagerly; the cut timestamps
    themselves are computed lazily by :mod:`repro.core.cuts` and cached
    on the instance.
    """

    __slots__ = ("_execution", "_ids", "_name", "_first", "_last", "_nodes",
                 "_key", "cache")

    def __init__(
        self,
        execution: Execution,
        ids: Iterable[EventId],
        name: str | None = None,
    ) -> None:
        id_set = frozenset((int(n), int(j)) for n, j in ids)
        if not id_set:
            raise ValueError("a nonatomic event must contain at least one event")
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for node, idx in id_set:
            lo = first.get(node)
            if lo is None:
                first[node] = last[node] = idx
            elif idx < lo:
                first[node] = idx
            elif idx > last[node]:
                last[node] = idx
        # an id is real iff 0 <= node < |P| and 1 <= idx <= k_node, so
        # checking each node's extrema checks every id of that node
        lengths = execution.lengths
        num_nodes = len(lengths)
        for node, lo in first.items():
            if not 0 <= node < num_nodes or lo < 1:
                bad = (node, lo)
            elif last[node] > lengths[node]:
                bad = (node, last[node])
            else:
                continue
            raise ValueError(f"event id {bad} is not a real event of the execution")
        self._execution = execution
        self._ids: frozenset[EventId] = id_set
        self._name = name
        self._first = first
        self._last = last
        self._nodes: tuple[int, ...] = tuple(sorted(first))
        self._key: Hashable = id_set
        #: scratch cache used by the cut machinery (Key Idea 1)
        self.cache: dict[Any, Any] = {}

    @classmethod
    def _keyed(
        cls,
        execution: Execution,
        ids: Iterable[EventId],
        name: str | None,
        key: Hashable,
    ) -> "NonatomicEvent":
        """An event whose :attr:`key` is ``key`` instead of its id set.

        Only :func:`~repro.nonatomic.proxies.proxy_of` calls this, to key
        a Definition-2 proxy after its interval; nothing checks ``key``
        against ``ids``, so it must not be reachable from the public
        constructor.
        """
        event = cls(execution, ids, name)
        event._key = key
        return event

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The execution this event lives in."""
        return self._execution

    @property
    def ids(self) -> frozenset[EventId]:
        """The component atomic event identifiers."""
        return self._ids

    @property
    def name(self) -> str | None:
        """Optional human-readable name."""
        return self._name

    @property
    def key(self) -> Hashable:
        """Identity the cut cache stores this event's rows under.

        The component id set, except for a Definition-2 proxy built by
        :func:`~repro.nonatomic.proxies.proxy_of`, which is keyed
        ``(x.ids, "L")`` or ``(x.ids, "U")`` after its interval ``x`` —
        the key the batched fills give that proxy's row without
        building the proxy object.
        """
        return self._key

    @property
    def node_set(self) -> tuple[int, ...]:
        """``N_X`` (Definition 1): nodes where X has component events,
        sorted ascending."""
        return self._nodes

    @property
    def width(self) -> int:
        """``|N_X|`` — the number of nodes the event spans."""
        return len(self._nodes)

    def first_at(self, node: int) -> int:
        """Local index of the least component event on ``node``.

        Raises
        ------
        KeyError
            If ``node`` is not in the node set.
        """
        return self._first[node]

    def last_at(self, node: int) -> int:
        """Local index of the greatest component event on ``node``."""
        return self._last[node]

    def first_indices(self) -> Iterator[int]:
        """Per-node least component indices, aligned with :attr:`node_set`."""
        return map(self._first.__getitem__, self._nodes)

    def last_indices(self) -> Iterator[int]:
        """Per-node greatest component indices, aligned with :attr:`node_set`."""
        return map(self._last.__getitem__, self._nodes)

    def first_ids(self) -> tuple[EventId, ...]:
        """Per-node least component events — ``L_X`` under Definition 2."""
        return tuple((n, self._first[n]) for n in self._nodes)

    def last_ids(self) -> tuple[EventId, ...]:
        """Per-node greatest component events — ``U_X`` under Definition 2."""
        return tuple((n, self._last[n]) for n in self._nodes)

    def restrict(self, node: int) -> tuple[EventId, ...]:
        """``X_i = X ∩ E_i``: the component events on ``node``, ordered."""
        return tuple(
            sorted(eid for eid in self._ids if eid[0] == node)
        )

    def is_disjoint(self, other: "NonatomicEvent") -> bool:
        """True if the two intervals share no atomic event."""
        return self._ids.isdisjoint(other._ids)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[EventId]:
        return iter(sorted(self._ids))

    def __contains__(self, eid: object) -> bool:
        return eid in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonatomicEvent):
            return NotImplemented
        return self._execution is other._execution and self._ids == other._ids

    def __hash__(self) -> int:
        return hash((id(self._execution), self._ids))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self._name!r}" if self._name else ""
        return (
            f"NonatomicEvent({tag and tag + ', '}|X|={len(self._ids)}, "
            f"N_X={list(self._nodes)})"
        )
