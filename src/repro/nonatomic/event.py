"""Nonatomic poset events (intervals).

A *nonatomic event* (Section 1 of the paper) is a non-empty subset
``X ⊆ E`` of atomic events: a higher-level application activity whose
component events may occur concurrently at several nodes.  This module
implements:

* :class:`NonatomicEvent` — the interval itself, with its *node set*
  ``N_X`` (Definition 1) and per-node extremal events precomputed;
* the :attr:`NonatomicEvent.key` under which
  :class:`~repro.core.context.CutCache` memoizes the four cuts C1–C4
  (Key Idea 1: *"Once identified at a one-time cost, these cuts can be
  reused at a low cost to evaluate causality relations with respect to
  all other nonatomic events."*).

Per the note closing Section 2.3, only the per-node least and greatest
component events determine an interval's cuts, so an interval is stored
compactly: its ids packed into one ``bytes`` value plus three aligned
per-node tuples.  The ``frozenset`` view of the ids is built only when a
caller reads :attr:`NonatomicEvent.ids`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator
from operator import index
from typing import Any

from ..events.event import EventId
from ..events.poset import Execution

__all__ = ["NonatomicEvent"]

#: Bits of the local index in a packed id ``node << 32 | index``.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


def _unreal(eid: tuple[int, int]) -> ValueError:
    return ValueError(f"event id {eid} is not a real event of the execution")


class NonatomicEvent:
    """A nonatomic poset event ``X`` over an :class:`Execution`.

    Parameters
    ----------
    execution:
        The analysed execution the component events belong to.
    ids:
        The component atomic events, as ``(node, index)`` identifiers.
        Must be non-empty and denote *real* (non-dummy) events — the
        paper notes that *"an event A of interest to an application will
        usually not contain any dummy events"*, and the evaluation
        theory requires it.  Each part is taken through
        :func:`operator.index`: Python and NumPy integers are accepted,
        anything else (a float, a string) raises :class:`TypeError`.
        Duplicates collapse.
    name:
        Optional human-readable name used in reports and specs.

    Notes
    -----
    Construction is ``O(|X| log |X|)`` and keeps ``O(|X|)`` bytes: the
    sorted, deduplicated ids packed as unsigned 64-bit words
    ``node << 32 | index`` (:attr:`packed_ids`, the interval's identity),
    plus the node set and the per-node least and greatest component
    indices as aligned tuples (they determine the proxies of
    Definition 2 and all four cuts of Table 2).  The :attr:`ids`
    frozenset and the :attr:`cache` dict are built on first read; the
    batched paths read neither.
    """

    __slots__ = ("_execution", "_packed", "_key", "_name", "_nodes",
                 "_first", "_last", "_ids", "_cache")

    def __init__(
        self,
        execution: Execution,
        ids: Iterable[EventId],
        name: str | None = None,
    ) -> None:
        packed: set[int] = set()
        add = packed.add
        for n, j in ids:
            n = index(n)
            j = index(j)
            if (n | j) >> _SHIFT:  # negative or ≥ 2³²: would alias on packing
                raise _unreal((n, j))
            add(n << _SHIFT | j)
        if not packed:
            raise ValueError("a nonatomic event must contain at least one event")
        words = sorted(packed)
        nodes: list[int] = []
        first: list[int] = []
        last: list[int] = []
        prev = -1
        for p in words:
            n = p >> _SHIFT
            if n != prev:
                prev = n
                nodes.append(n)
                first.append(p & _LOW)
                last.append(p & _LOW)
            else:
                last[-1] = p & _LOW
        # an id is real iff 0 <= node < |P| and 1 <= idx <= k_node, so
        # checking each node's extrema checks every id of that node
        lengths = execution.lengths
        num_nodes = len(lengths)
        for n, lo, hi in zip(nodes, first, last, strict=True):
            if n >= num_nodes or lo < 1:
                raise _unreal((n, lo))
            if hi > lengths[n]:
                raise _unreal((n, hi))
        self._execution = execution
        self._packed = array("Q", words).tobytes()
        self._key: Hashable = self._packed
        self._name = name
        self._nodes: tuple[int, ...] = tuple(nodes)
        self._first: tuple[int, ...] = tuple(first)
        self._last: tuple[int, ...] = tuple(last)
        self._ids: frozenset[EventId] | None = None
        self._cache: dict[Any, Any] | None = None

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

    def _words(self) -> memoryview:
        """The packed ids as a sorted sequence of ints."""
        return memoryview(self._packed).cast("Q")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The execution this event lives in."""
        return self._execution

    @property
    def ids(self) -> frozenset[EventId]:
        """The component atomic event identifiers (built on first read)."""
        ids = self._ids
        if ids is None:
            ids = self._ids = frozenset(self)
        return ids

    @property
    def packed_ids(self) -> bytes:
        """The component ids, sorted and packed as unsigned 64-bit words
        ``node << 32 | index``.

        Two events over one execution are equal iff their packed ids
        are; :class:`~repro.core.evaluator.SharedVerdictCache` keys its
        verdict rows on them.
        """
        return self._packed

    @property
    def name(self) -> str | None:
        """Optional human-readable name."""
        return self._name

    @property
    def key(self) -> Hashable:
        """Identity the cut cache stores this event's rows under.

        The :attr:`packed_ids`, so equal id sets give equal keys — except
        for a Definition-2 proxy built by
        :func:`~repro.nonatomic.proxies.proxy_of`, which is keyed
        ``(x.key, "L")`` or ``(x.key, "U")`` after its interval ``x``:
        the key the batched fills give that proxy's row without
        building the proxy object.
        """
        return self._key

    @property
    def cache(self) -> dict[Any, Any]:
        """Per-interval scratch dict, created on first read: it holds
        the interval's :func:`~repro.nonatomic.proxies.proxy_of` results.
        Cuts are memoized in :class:`~repro.core.context.CutCache`, not
        here."""
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        return cache

    @property
    def node_set(self) -> tuple[int, ...]:
        """``N_X`` (Definition 1): nodes where X has component events,
        sorted ascending."""
        return self._nodes

    @property
    def width(self) -> int:
        """``|N_X|`` — the number of nodes the event spans."""
        return len(self._nodes)

    def _slot(self, node: int) -> int:
        i = bisect_left(self._nodes, node)
        if i == len(self._nodes) or self._nodes[i] != node:
            raise KeyError(node)
        return i

    def first_at(self, node: int) -> int:
        """Local index of the least component event on ``node``.

        Raises
        ------
        KeyError
            If ``node`` is not in the node set.
        """
        return self._first[self._slot(node)]

    def last_at(self, node: int) -> int:
        """Local index of the greatest component event on ``node``."""
        return self._last[self._slot(node)]

    def first_indices(self) -> tuple[int, ...]:
        """Per-node least component indices, aligned with :attr:`node_set`."""
        return self._first

    def last_indices(self) -> tuple[int, ...]:
        """Per-node greatest component indices, aligned with :attr:`node_set`."""
        return self._last

    def first_ids(self) -> tuple[EventId, ...]:
        """Per-node least component events — ``L_X`` under Definition 2."""
        return tuple(zip(self._nodes, self._first, strict=True))

    def last_ids(self) -> tuple[EventId, ...]:
        """Per-node greatest component events — ``U_X`` under Definition 2."""
        return tuple(zip(self._nodes, self._last, strict=True))

    def restrict(self, node: int) -> tuple[EventId, ...]:
        """``X_i = X ∩ E_i``: the component events on ``node``, ordered."""
        return tuple(eid for eid in self if eid[0] == node)

    def is_disjoint(self, other: "NonatomicEvent") -> bool:
        """True if the two intervals share no atomic event."""
        a, b = self._words(), other._words()
        if a[-1] < b[0] or b[-1] < a[0]:  # packed ranges apart
            return True
        return set(a).isdisjoint(b)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packed) >> 3

    def __iter__(self) -> Iterator[EventId]:
        return ((p >> _SHIFT, p & _LOW) for p in self._words())

    def __contains__(self, eid: object) -> bool:
        return eid in self.ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonatomicEvent):
            return NotImplemented
        return self._execution is other._execution and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((id(self._execution), self._packed))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self._name!r}" if self._name else ""
        return (
            f"NonatomicEvent({tag and tag + ', '}|X|={len(self)}, "
            f"N_X={list(self._nodes)})"
        )
