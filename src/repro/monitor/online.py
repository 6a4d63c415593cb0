"""Online (streaming) monitoring of synchronization conditions.

The offline engines need the *reverse* timestamp structure, which only
exists once the whole trace is recorded.  A real-time monitor cannot
wait for termination — so this module evaluates the relations through
equivalent **past-only** conditions that use nothing but the forward
vector clocks available the moment an event is observed:

======== ============================================================ ==========
Relation Past-only condition (disjoint X, Y)                          Cost
======== ============================================================ ==========
R1, R1'  ``∀m ∈ N_X: T(∩⇓Y)[m] ≥ lastX[m]``                           |N_X|
R2       ``∀m ∈ N_X: T(∪⇓Y)[m] ≥ lastX[m]``                           |N_X|
R3       ``∃m ∈ N_X: T(∩⇓Y)[m] ≥ firstX[m]``                          |N_X|
R4, R4'  ``∃m ∈ N_X: T(∪⇓Y)[m] ≥ firstX[m]``                          |N_X|
R2'      ``∃i ∈ N_Y ∀m ∈ N_X: T(y_last(i))[m] ≥ lastX[m]``            |N_X|·|N_Y|
R3'      ``∀i ∈ N_Y ∃m ∈ N_X: T(y_first(i))[m] ≥ firstX[m]``          |N_X|·|N_Y|
======== ============================================================ ==========

(The future-cut forms of R2'/R3' are linear but need ``T^R``; online,
those two relations fall back to the polynomial past-only form — the
price of not knowing the future.)

Streaming fast path
-------------------
Ingestion writes forward clocks straight into a
streaming clock table (:class:`~repro.events.clocks.GrowableClockTable`)
— capacity-doubling
``(cap, |P|)`` int32 blocks, one amortized-O(|P|) in-place row write
per event, no per-event allocation.  Each :class:`OnlineInterval`
*maintains* its past-cut timestamps incrementally as events are tagged
(one vectorized min/max against the live clock row), so ``close()``
and watch firing evaluate the past-only conditions with **zero
re-scans** of previously tagged events; the only deferred fold is
``T(∩⇓U_Y)`` (a min over per-node *last* rows, which is not
incrementally foldable — a later last event can *raise* the min) and
it is computed once at close.  The events themselves are recorded
as columns by a :class:`~repro.events.builder.TraceBuilder` (a kind
byte, a received flag, label/time slots, interned labels, message
endpoints in one integer array): ingestion builds no
:class:`~repro.events.event.Event`, and :meth:`OnlineMonitor.recv`
checks its handle against those columns (:meth:`OnlineMonitor.receivable`)
before anything is recorded.  Finalisation
(:meth:`OnlineMonitor.to_execution`) hands the live table to
:class:`~repro.events.poset.Execution` via its snapshot: **zero**
forward clock passes, and the reverse pass stays
unbuilt until a future-cut consumer asks
(regression-tested via :func:`repro.events.clocks.clock_pass_counts`).

Usage: feed events through :meth:`OnlineMonitor.internal` /
:meth:`send` / :meth:`recv`, tag them into named intervals, ``close``
an interval when the application activity completes, and query
:meth:`holds` — or register :meth:`watch` conditions that fire as soon
as every interval they mention is closed (all watches decidable at one
``close`` are batch-evaluated in one NumPy pass over the stacked
per-atom operand matrices).

Watch cost model
----------------
Pending watches are indexed by the intervals they still wait on: an
inverted index from each not-yet-closed interval name to its waiting
watches, plus a per-watch count of intervals still open.

* :meth:`~OnlineMonitor.watch` costs ``O(|names|)`` — the condition's
  interval names are computed once, at registration;
* :meth:`~OnlineMonitor.close` visits only the watches waiting on the
  closed interval (``O(waiters)``), never the whole pending set;
* :meth:`~OnlineMonitor.poll_watches` fires the ready watches — and
  only those — in registration order.

A relation between an interval and itself is rejected: the relations
are defined for disjoint X and Y, and ``R(X, X)`` would otherwise read
the irreflexive ``≺`` as ``⪯`` (a watch on ``R1(a, a)`` would pass).
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.family import compare_rows
from ..core.relations import Relation, RelationSpec, SubtestKind, parse_spec
from ..events.builder import MessageHandle, TraceBuilder
from ..events.clocks import CLOCK_DTYPE, GrowableClockTable
from ..events.event import EventId
from ..events.poset import Execution
from ..events.trace import TraceError
from ..nonatomic.proxies import Proxy
from .predicates import Atom, Condition, parse_condition

__all__ = ["OnlineInterval", "OnlineMonitor", "WatchNotification"]

#: Reduction of per-row verdicts over a stacked ``(|N_Y|, P)`` operand.
_Reduce = Callable[[np.ndarray], Any]

#: Relation → ``(kind, Y-side operand, X-side operand, row reduction)``:
#: the past-only rows of the table above, decided by the shared
#: :func:`~repro.core.family.compare_rows` formulas.  Y-side ``"min"`` /
#: ``"max"`` are the maintained ``T(∩⇓Ŷ)`` / ``T(∪⇓Ŷ)``; ``"first"`` /
#: ``"last"`` select X̂'s extremal-index vector, or — on the Y side of
#: R2'/R3' — Ŷ's stacked per-node clock rows, whose per-row verdicts
#: are then reduced with ``any`` / ``all``.
_PAST_ROWS: dict[Relation, tuple[SubtestKind, str, str, _Reduce | None]] = {
    Relation.R1: (SubtestKind.FORALL_PAST, "min", "last", None),
    Relation.R1P: (SubtestKind.FORALL_PAST, "min", "last", None),
    Relation.R2: (SubtestKind.FORALL_PAST, "max", "last", None),
    Relation.R3: (SubtestKind.EXISTS_CUT, "min", "first", None),
    Relation.R4: (SubtestKind.EXISTS_CUT, "max", "first", None),
    Relation.R4P: (SubtestKind.EXISTS_CUT, "max", "first", None),
    Relation.R2P: (SubtestKind.FORALL_PAST, "last", "last", np.any),
    Relation.R3P: (SubtestKind.EXISTS_CUT, "first", "first", np.all),
}

#: Stand-in for an X̂ extremal index off ``N_X̂`` on the existential
#: rows: no clock component reaches it, so the node never witnesses.
#: (On the universal rows the dense encoding's 0 is already neutral.)
_ABSENT = np.iinfo(np.int64).max


def _decide(
    kind: SubtestKind, yv: np.ndarray, xv: np.ndarray, reduce: _Reduce | None
) -> bool:
    """One past-only row through the shared formulas (R2'/R3': one
    verdict per stacked clock row, then reduced)."""
    out = compare_rows(kind, yv, xv)
    return bool(reduce(out) if reduce is not None else out)


class OnlineInterval:
    """A nonatomic event being assembled from a live stream.

    Alongside the per-node first/last extremal indices, the interval
    *maintains* the vectors the past-only conditions consume, updated
    with one vectorized min/max per tagged event:

    * ``T(∩⇓L_Y)`` (min over first-event clocks) and the max over
      first-event clocks — folded when a node's **first** event is
      tagged (firsts never change afterwards);
    * ``T(∪⇓Y) = T(∪⇓U_Y)`` (max over last-event clocks) — folded on
      **every** tag (per-node clocks are monotone, so the running max
      over all tagged events equals the max over per-node lasts);
    * dense first/last local-index vectors (0 off the node set).

    ``T(∩⇓U_Y)`` (min over last-event clocks) is the one quantity a
    running fold cannot maintain — replacing a node's last event with a
    later one can *raise* the min — so it is recomputed lazily (one
    |N_Y|-row fold) when the interval is finalised at ``close``,
    together with the stacked first/last clock matrices that R2'/R3'
    scan.
    """

    __slots__ = (
        "name", "first", "last", "count", "closed",
        "_table", "_min_first", "_max_first", "_max_last",
        "_first_vec", "_last_vec",
        "_min_last", "_first_stack", "_last_stack", "_dirty",
    )

    def __init__(
        self, name: str, table: GrowableClockTable | None = None
    ) -> None:
        self.name = name
        self.first: dict[int, int] = {}
        self.last: dict[int, int] = {}
        self.count = 0
        self.closed = False
        self._table = table
        self._min_first: np.ndarray | None = None
        self._max_first: np.ndarray | None = None
        self._max_last: np.ndarray | None = None
        self._first_vec: np.ndarray | None = None
        self._last_vec: np.ndarray | None = None
        self._min_last: np.ndarray | None = None
        self._first_stack: np.ndarray | None = None
        self._last_stack: np.ndarray | None = None
        self._dirty = True

    def add(self, eid: EventId, row: np.ndarray | None = None) -> None:
        """Tag event ``eid`` into the interval.

        ``row`` is the event's forward clock row; when omitted it is
        read from the monitor's live table (the event must have been
        ingested).  Each tag costs one vectorized min/max fold.
        """
        node, idx = eid
        if row is None:
            if self._table is None:
                raise ValueError(
                    f"interval {self.name!r} is not attached to a monitor"
                )
            row = self._table.row(node, idx)
        if self._min_first is None:
            width = row.shape[0]
            self._min_first = row.astype(CLOCK_DTYPE, copy=True)
            self._max_first = row.astype(CLOCK_DTYPE, copy=True)
            self._max_last = row.astype(CLOCK_DTYPE, copy=True)
            self._first_vec = np.zeros(width, dtype=np.int64)
            self._last_vec = np.zeros(width, dtype=np.int64)
        elif node not in self.first:
            np.minimum(self._min_first, row, out=self._min_first)
            np.maximum(self._max_first, row, out=self._max_first)
            np.maximum(self._max_last, row, out=self._max_last)
        else:
            np.maximum(self._max_last, row, out=self._max_last)
        if node not in self.first:
            self.first[node] = idx
            self._first_vec[node] = idx
        self.last[node] = idx
        self._last_vec[node] = idx
        self.count += 1
        self._dirty = True

    @property
    def node_set(self) -> tuple[int, ...]:
        """Nodes the interval spans (sorted)."""
        return tuple(sorted(self.first))

    # ------------------------------------------------------------------
    # maintained past-only state
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Compute the close-time folds: ``T(∩⇓U_Y)`` and the stacked
        first/last clock matrices.  One |N_Y|-row gather; no event
        re-scans."""
        if not self._dirty:
            return
        if self._table is None:
            raise ValueError(
                f"interval {self.name!r} is not attached to a monitor"
            )
        nodes = sorted(self.first)
        self._first_stack = np.stack(
            [self._table.row(n, self.first[n]) for n in nodes]
        )
        self._last_stack = np.stack(
            [self._table.row(n, self.last[n]) for n in nodes]
        )
        self._min_last = np.min(self._last_stack, axis=0)
        self._dirty = False

    def past_cuts(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(T(∩⇓Ŷ), T(∪⇓Ŷ))`` for the interval or one of its proxies.

        ``T(∩⇓Y) = T(∩⇓L_Y)`` and ``T(∪⇓Y) = T(∪⇓U_Y)`` (the proxy
        coincidences), so the full interval shares its proxies'
        vectors.
        """
        if proxy is Proxy.L:
            return self._min_first, self._max_first
        if proxy is Proxy.U:
            if self._dirty:
                self._finalize()
            return self._min_last, self._max_last
        return self._min_first, self._max_last

    def extremal_vectors(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(first, last)`` local-index vectors (0 off the node
        set) of the interval or one of its proxies."""
        if proxy is Proxy.L:
            return self._first_vec, self._first_vec
        if proxy is Proxy.U:
            return self._last_vec, self._last_vec
        return self._first_vec, self._last_vec

    def clock_stacks(
        self, proxy: Proxy | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(|N_Y|, P)`` first/last clock matrices (node-sorted
        rows) of the interval or one of its proxies."""
        if self._dirty:
            self._finalize()
        if proxy is Proxy.L:
            return self._first_stack, self._first_stack
        if proxy is Proxy.U:
            return self._last_stack, self._last_stack
        return self._first_stack, self._last_stack


@dataclass(slots=True)
class _PendingWatch:
    """A registered watch: its condition and how many of the intervals
    it names are still open."""

    name: str
    condition: Condition
    open: int


@dataclass(frozen=True, slots=True)
class WatchNotification:
    """Emitted when a watched condition becomes decidable."""

    name: str
    condition: Condition
    passed: bool
    decided_at: float


class OnlineMonitor:
    """Streaming trace ingestion + past-only relation evaluation.

    Events must be fed in per-node program order (any interleaving
    across nodes); receives must follow their sends — exactly the order
    a real monitoring point observes.
    """

    __slots__ = (
        "_builder", "num_nodes", "_table", "_intervals", "_pending",
        "_waiters", "_ready", "_next_watch", "notifications", "_now",
        "_finalized",
    )

    def __init__(self, num_nodes: int) -> None:
        self._builder = TraceBuilder(num_nodes)
        self.num_nodes = num_nodes
        self._table = GrowableClockTable(num_nodes)
        self._intervals: dict[str, OnlineInterval] = {}
        # watch id (registration order) → pending watch
        self._pending: dict[int, _PendingWatch] = {}
        # not-yet-closed interval name → ids of the watches waiting on it
        self._waiters: dict[str, list[int]] = {}
        # ids of pending watches with no open interval left
        self._ready: list[int] = []
        self._next_watch = 0
        self.notifications: list[WatchNotification] = []
        self._now = 0.0
        self._finalized: tuple[int, Execution] | None = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _check_open(self, interval: str | None, time: float | None) -> None:
        """Refuse an event tagged into a closed interval before anything
        of it is recorded; then advance the monitor's clock."""
        if interval is not None:
            iv = self._intervals.get(interval)
            if iv is not None and iv.closed:
                raise ValueError(f"interval {interval!r} is already closed")
        if time is not None:
            self._now = max(self._now, time)

    def _tag(
        self, eid: EventId, interval: str | None, row: np.ndarray
    ) -> EventId:
        if interval is not None:
            iv = self._intervals.get(interval)
            if iv is None:
                iv = self._intervals[interval] = OnlineInterval(
                    interval, self._table
                )
            iv.add(eid, row)
        return eid

    def internal(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> EventId:
        """Observe an internal event (optionally tagged into an interval)."""
        self._check_open(interval, time)
        eid = self._builder.internal(node, label=label, time=time)
        row = self._table.advance(node)
        return self._tag(eid, interval, row)

    def send(
        self,
        node: int,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> MessageHandle:
        """Observe a send event; returns the handle for its receive."""
        self._check_open(interval, time)
        handle = self._builder.send(node, label=label, time=time)
        row = self._table.advance(node)
        self._tag(handle.send, interval, row)
        return handle

    def recv(
        self,
        node: int,
        handle: MessageHandle,
        *,
        label: str | None = None,
        time: float | None = None,
        interval: str | None = None,
    ) -> EventId:
        """Observe the receive matching ``handle``.

        Raises
        ------
        ValueError
            If ``handle`` names no observed send event (a receive
            before its send), a non-send event, or a message already
            received (:class:`~repro.events.trace.TraceError`); nothing
            is recorded then.
        """
        if not self.receivable(handle.send):
            raise ValueError("receive observed before its send")
        self._check_open(interval, time)
        eid = self._builder.recv(node, handle, label=label, time=time)
        row = self._table.advance(node, self._table.row(*handle.send))
        return self._tag(eid, interval, row)

    def count(self, node: int) -> int:
        """Number of events observed on ``node`` so far."""
        return self._table.count(node)

    def receivable(self, send: EventId) -> bool:
        """Whether a receive matching ``send`` can be observed now.

        True for an observed, not yet received send event; False while
        ``send``'s node has not observed that many events (the receive
        has to wait).  Two reads of the recorded columns, no
        :class:`~repro.events.event.Event` built.

        Raises
        ------
        TraceError
            If ``send`` names an observed event that is not a send, a
            node outside the monitor, or a message already received —
            a receive that can never be observed.
        """
        s_node, s_idx = send
        if not 0 <= s_node < self.num_nodes:
            raise TraceError(f"receive names {send}: no such node")
        if s_idx > self._table.count(s_node):
            return False
        if not self._builder.is_send(send):
            raise TraceError(f"receive names {send}, which is not a send event")
        if self._builder.is_received(send):
            raise TraceError(f"message from {send} already received")
        return True

    # ------------------------------------------------------------------
    # clock queries
    # ------------------------------------------------------------------
    def clock(self, eid: EventId) -> np.ndarray:
        """Forward vector timestamp of an observed event."""
        node, idx = eid
        return self._table.row(node, idx)

    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b`` among observed events."""
        return a != b and bool(self.clock(b)[a[0]] >= a[1])

    # ------------------------------------------------------------------
    # intervals and watches
    # ------------------------------------------------------------------
    def interval(self, name: str) -> OnlineInterval:
        """Get (or create) the named interval."""
        iv = self._intervals.get(name)
        if iv is None:
            iv = self._intervals[name] = OnlineInterval(name, self._table)
        return iv

    def close(self, name: str) -> list[WatchNotification]:
        """Mark an interval complete; fires any now-decidable watches.

        The interval's close-time folds (``T(∩⇓U_Y)`` and the stacked
        clock matrices) are computed here, once.  Only the watches
        waiting on ``name`` are visited (``O(waiters)``, independent of
        how many other watches are pending); those left with no open
        interval join the ready watches, which :meth:`poll_watches`
        then fires in registration order, evaluated in one batched
        NumPy pass over the stacked per-atom operand matrices.

        Raises
        ------
        KeyError
            If no such interval exists.
        ValueError
            If the interval is empty.
        """
        iv = self._intervals[name]
        if iv.count == 0:
            raise ValueError(f"cannot close empty interval {name!r}")
        iv.closed = True
        iv._finalize()
        for wid in self._waiters.pop(name, ()):
            pending = self._pending[wid]
            pending.open -= 1
            if pending.open == 0:
                self._ready.append(wid)
        return self.poll_watches()

    def poll_watches(self) -> list[WatchNotification]:
        """Fire every currently decidable watch, in registration order.

        Normally driven by :meth:`close`, but callable directly — e.g.
        when a watch is registered *after* all the intervals it
        mentions have already closed (the networked service accepts
        watches at any point in a session).  Only the ready watches are
        touched — ``O(ready)``, nothing when none is — so polling after
        every registration stays cheap however many watches are
        pending.  They are batch-evaluated in one NumPy pass and
        removed; each fires at most once.
        """
        if not self._ready:
            return []
        ready = sorted(self._ready)
        watches = [self._pending[wid] for wid in ready]
        verdicts = self._batch_eval_atoms([w.condition for w in watches])
        fired = [
            WatchNotification(
                name=w.name,
                condition=w.condition,
                passed=w.condition.evaluate(verdicts.__getitem__),
                decided_at=self._now,
            )
            for w in watches
        ]
        for wid in ready:
            del self._pending[wid]
        self._ready = []
        self.notifications.extend(fired)
        return fired

    def watch(self, name: str, condition: str | Condition) -> None:
        """Register a condition to evaluate once its intervals close.

        Costs ``O(|names|)``: the watch is indexed under each interval
        it names that is not closed yet (including intervals not
        created yet).  A watch whose intervals are all closed already
        is ready and fires at the next :meth:`poll_watches` or
        :meth:`close`.

        Raises
        ------
        ParseError
            If ``condition`` is malformed text.
        ValueError
            If an atom relates an interval to itself.
        """
        if isinstance(condition, str):
            condition = parse_condition(condition)
        for atom in _collect_atoms(condition):
            _check_distinct(atom.left, atom.right)
        wid = self._next_watch
        self._next_watch += 1
        waiting = 0
        for n in condition.names():
            iv = self._intervals.get(n)
            if iv is None or not iv.closed:
                self._waiters.setdefault(n, []).append(wid)
                waiting += 1
        self._pending[wid] = _PendingWatch(name, condition, waiting)
        if waiting == 0:
            self._ready.append(wid)

    def watch_names(self) -> tuple[str, ...]:
        """Names of the watches still pending (not yet fired), in
        registration order."""
        return tuple(w.name for w in self._pending.values())

    # ------------------------------------------------------------------
    # past-only relation evaluation
    # ------------------------------------------------------------------
    def _closed(self, name: str) -> OnlineInterval:
        iv = self._intervals[name]
        if not iv.closed:
            raise ValueError(f"interval {name!r} is not closed yet")
        return iv

    def _row(
        self, spec: str | Relation | RelationSpec, x_name: str, y_name: str
    ) -> tuple[SubtestKind, np.ndarray, np.ndarray, _Reduce | None]:
        """The :data:`_PAST_ROWS` row of ``spec(x_name, y_name)`` over
        the maintained vectors: ``(kind, Y operand, X operand,
        reduction)``.  No tagged event is revisited."""
        if isinstance(spec, str):
            spec = parse_spec(spec)
        proxy_x = proxy_y = None
        if isinstance(spec, RelationSpec):
            spec, proxy_x, proxy_y = spec.relation, spec.proxy_x, spec.proxy_y
        _check_distinct(x_name, y_name)
        x = self._closed(x_name)
        y = self._closed(y_name)
        kind, y_op, x_op, reduce = _PAST_ROWS[spec]
        xfirst, xlast = x.extremal_vectors(proxy_x)
        xv = xlast if x_op == "last" else xfirst
        if kind is SubtestKind.EXISTS_CUT:
            xv = np.where(xv == 0, _ABSENT, xv)
        if reduce is not None:
            first_stack, last_stack = y.clock_stacks(proxy_y)
            yv = last_stack if y_op == "last" else first_stack
        else:
            ty1, ty2 = y.past_cuts(proxy_y)
            yv = ty1 if y_op == "min" else ty2
        return kind, yv, xv, reduce

    def holds(
        self,
        spec: str | Relation | RelationSpec,
        x_name: str,
        y_name: str,
    ) -> bool:
        """Evaluate a relation between two *closed* intervals online.

        Semantically identical to the offline engines (for disjoint
        intervals), but uses only forward clocks — and only the
        incrementally maintained interval vectors, so each query is
        ``O(|P|)`` (R2'/R3': ``O(|N_Y|·|P|)``) regardless of how many
        events were tagged.

        Raises
        ------
        ValueError
            If ``x_name == y_name`` (the intervals are not disjoint) or
            either interval is not closed yet.
        """
        return _decide(*self._row(spec, x_name, y_name))

    def _batch_eval_atoms(
        self, conditions: list[Condition]
    ) -> dict[Atom, bool]:
        """Evaluate every distinct atom of ``conditions`` in one pass.

        Atoms whose row reads only the interval-level past-cut vectors
        are grouped by subtest kind and answered with one
        :func:`~repro.core.family.compare_rows` reduction per kind over
        the stacked ``(a, P)`` operand matrices; R2'/R3' atoms
        (per-node clock-stack scans) are evaluated individually but
        still vectorized over ``(|N_Y|, P)``.
        """
        atoms: dict[Atom, None] = {}
        for cond in conditions:
            for atom in _collect_atoms(cond):
                atoms[atom] = None
        verdicts: dict[Atom, bool] = {}
        groups: dict[
            SubtestKind, tuple[list[Atom], list[np.ndarray], list[np.ndarray]]
        ] = {}
        for atom in atoms:
            row = self._row(atom.spec, atom.left, atom.right)
            kind, yv, xv, reduce = row
            if reduce is not None:
                verdicts[atom] = _decide(*row)
                continue
            members, ys, xs = groups.setdefault(kind, ([], [], []))
            members.append(atom)
            ys.append(yv)
            xs.append(xv)
        for kind, (members, ys, xs) in groups.items():
            out = compare_rows(kind, np.stack(ys), np.stack(xs))
            verdicts.update(zip(members, out.tolist(), strict=True))
        return verdicts

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def to_execution(self) -> Execution:
        """Finalise the observed trace into an offline execution.

        The monitor already maintains every forward vector timestamp in
        its growable columnar table, so the execution adopts the
        table's snapshot instead of re-running the forward pass — and the reverse structure stays unbuilt until a
        future-cut consumer actually asks for it.  Ingestion plus
        finalisation therefore performs **zero** offline clock passes
        (regression-tested via
        :func:`repro.events.clocks.clock_pass_counts`).  The finalised
        execution is memoized by table version: calling again without
        new events returns the same object (and hence the same shared
        :class:`~repro.core.context.AnalysisContext`); after new events
        it is a new execution, and the old one keeps its answers.
        """
        version = self._table.version
        if self._finalized is not None and self._finalized[0] == version:
            return self._finalized[1]
        trace = self._builder.build()
        ex = Execution(trace, forward_clocks=self._table)
        self._finalized = (version, ex)
        return ex

    def to_context(self):
        """Finalise into a shared :class:`~repro.core.context.AnalysisContext`.

        The offline hand-off point: the returned context owns the
        finalised execution (the monitor's forward clocks copied in,
        no clock pass) and the cut cache every offline engine will
        share.  After new events it is a new context.
        """
        from ..core.context import AnalysisContext

        return AnalysisContext.of(self.to_execution())


def _check_distinct(x_name: str, y_name: str) -> None:
    """Reject a relation between an interval and itself, as the offline
    analyzer rejects intervals sharing atomic events."""
    if x_name == y_name:
        raise ValueError(
            f"X and Y share atomic events: both are interval {x_name!r}; "
            "the relations are defined for disjoint intervals"
        )


def _collect_atoms(cond: Condition) -> list[Atom]:
    """All :class:`Atom` leaves of a condition AST."""
    if isinstance(cond, Atom):
        return [cond]
    out: list[Atom] = []
    for attr in ("operand", "antecedent", "consequent"):
        sub = getattr(cond, attr, None)
        if sub is not None:
            out.extend(_collect_atoms(sub))
    for sub in getattr(cond, "operands", ()):
        out.extend(_collect_atoms(sub))
    return out
