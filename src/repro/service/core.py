"""Transport-agnostic ingest state machine for the monitoring service.

:class:`MonitorCore` owns everything about live ingest that is *not*
networking, so the asyncio front end stays a thin frame router and the
failover tests can drive the state machine directly:

* **Per-node ingest** — every node has its own FIFO pending queue and
  its own counters (:class:`ShardCounters`).  Events flow through the
  wrapped :class:`~repro.monitor.online.OnlineMonitor`, whose clock
  storage is a streaming
  :class:`~repro.events.clocks.GrowableClockTable` — ingest and
  finalisation keep the streaming fast path's **zero offline clock
  passes**.
* **Causal parking** — a receive arriving before its send (normal
  under multi-client sharded replay) parks its node's queue; the pump
  re-sweeps after every application until a fixpoint.  A receive that
  could never apply (its send is a non-send event or already
  received) is refused at submit instead of parking.  The core keeps
  no per-send state: whether a send was applied, is a send and was
  received is read from the monitor's recorded columns.  Interval
  closes carry the *expected* tag count and apply once the count is
  reached, so any client of a sharded replay may issue them.
* **Refusals per op** — an op the monitor refuses when it applies (a
  parked receive tagged into an interval that closed meanwhile) is
  dropped, not logged, and recorded against its own session
  (:meth:`take_refusals`); the pump runs on to the fixpoint, so the
  verdicts that fired in the same pump are still returned.
* **The log** — every applied operation is appended to :attr:`log`
  (in application order, which makes the log replayable without
  parking) before its effects are visible to any client: an
  :class:`~repro.service.log.EventLog` file, or a
  :class:`~repro.service.log.MemoryLog` when there is none; see
  :mod:`repro.service.log`.
* **Exactly-once watch notifications** — emitted verdicts get a
  monotone ``watch_seq`` and are themselves logged; a replica stashes
  the notifications it derives from replayed closes as *unconfirmed*
  until the primary's matching verdict record arrives, and
  :meth:`promote` emits exactly the unconfirmed remainder — no watch
  is lost, none is duplicated.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Any

from ..events.builder import MessageHandle
from ..events.clocks import clock_pass_counts
from ..events.event import EventId
from ..events.trace import TraceError
from ..monitor.online import OnlineMonitor, WatchNotification
from .log import EventLog, LogError, MemoryLog

__all__ = ["MonitorCore", "ShardCounters"]

_KINDS = ("internal", "send", "recv")


@dataclass
class ShardCounters:
    """Ingest counters for one node's queue."""

    applied: int = 0
    queued: int = 0
    queued_peak: int = 0
    throttles: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready snapshot for the ``stats`` frame."""
        return asdict(self)


@dataclass
class _PendingClose:
    """A ``close`` op waiting for its interval to reach ``expected``."""

    interval: str
    expected: int
    session: int | None
    submitted_at: float = 0.0


class MonitorCore:
    """Log-backed, failover-aware wrapper of the online monitor.

    Parameters
    ----------
    num_nodes:
        Width of the monitored system.
    log:
        The record store, kept as :attr:`log`: a durable
        :class:`~repro.service.log.EventLog`, or ``None`` for a fresh
        :class:`~repro.service.log.MemoryLog` (tests, benchmarks).
    role:
        ``"primary"`` emits watch verdicts as they fire; ``"replica"``
        stashes them unconfirmed until the primary's verdict records
        arrive (see :meth:`promote`).
    clock:
        Monotonic time source (injectable for tests); used for the
        watch-latency counters only.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        log: EventLog | MemoryLog | None = None,
        role: str = "primary",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown role: {role!r}")
        self.num_nodes = num_nodes
        self.role = role
        self._clock = clock
        self._monitor = OnlineMonitor(num_nodes)
        self._queues: list[deque] = [deque() for _ in range(num_nodes)]
        # sends named by queued (not yet applied) receives
        self._named: set[EventId] = set()
        self._pending_closes: list[_PendingClose] = []
        self._pending_by_session: defaultdict[int, int] = defaultdict(int)
        self.shards = [ShardCounters() for _ in range(num_nodes)]
        self.log: EventLog | MemoryLog = MemoryLog() if log is None else log
        # (session, message) of ops the monitor refused inside the pump
        self._refusals: list[tuple[int | None, str]] = []
        self.throttles = 0
        self._watch_seq = 0
        self._emitted: set[str] = set()
        self._registered: set[str] = set()
        self._unconfirmed: dict[str, dict[str, Any]] = {}
        self._closes_applied = 0
        self._latency_count = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        # the pass counters are process-global; report deltas since
        # this core came up (other code in the process may run offline
        # analyses of its own)
        self._passes_at_start = dict(clock_pass_counts())
        if self.log.last_seq == 0:
            self.log.append({"op": "init", "num_nodes": num_nodes})

    # ------------------------------------------------------------------
    # construction from a replicated log
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[dict[str, Any]],
        *,
        log: EventLog | MemoryLog | None = None,
        role: str = "primary",
    ) -> "MonitorCore":
        """Rebuild the full monitor state by replaying log records.

        ``records`` is typically :func:`~repro.service.log.read_records`
        output, or :meth:`EventLog.iter_from` of a freshly opened log —
        pass that same log as ``log`` and the replay neither re-appends
        nor keeps the records (they stay on disk).  Without ``log`` the
        records, as given, become the core's
        :class:`~repro.service.log.MemoryLog` (a caller may replay a log
        with records dropped, so seqs need not be dense).  The returned core
        resumes at the records' last sequence number; when ``role`` is
        ``"primary"`` (promotion from a dead primary's replicated log),
        watches that were decidable but have no logged verdict are
        re-derived and will be emitted by the first :meth:`promote`
        call.
        """
        records = iter(records)
        head = next(records, None)
        if head is None:
            raise LogError("cannot rebuild from an empty record list")
        if head.get("op") != "init" or "num_nodes" not in head:
            raise LogError("log must start with an init record")
        if log is None:
            rest = list(records)
            log = MemoryLog([head, *rest])
            records = iter(rest)
        core = cls(int(head["num_nodes"]), log=log, role="replica")
        for rec in chain((head,), records):
            core._replay(rec)
        if role == "primary":
            core.role = "primary"
        return core

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record."""
        return self.log.last_seq

    def records_from(self, seq: int) -> list[dict[str, Any]]:
        """Records after ``seq``, from memory only (see the store's
        ``tail_floor``)."""
        return self.log.records_from(seq)

    # ------------------------------------------------------------------
    # submission (live clients)
    # ------------------------------------------------------------------
    def _validate_event(self, rec: dict[str, Any]) -> dict[str, Any]:
        node = rec.get("node")
        if not isinstance(node, int) or not (0 <= node < self.num_nodes):
            raise ValueError(f"event names no such node: {node!r}")
        kind = rec.get("kind", "internal")
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind: {kind!r}")
        out: dict[str, Any] = {"node": node, "kind": kind}
        for key in ("label", "interval"):
            val = rec.get(key)
            if val is not None and not isinstance(val, str):
                raise ValueError(f"event {key} must be a string")
            if val is not None:
                out[key] = val
        t = rec.get("time")
        if t is not None:
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ValueError("event time must be a number")
            out["time"] = float(t)
        if kind == "recv":
            send = rec.get("send")
            if (
                not isinstance(send, (list, tuple))
                or len(send) != 2
                or not all(isinstance(v, int) for v in send)
            ):
                raise ValueError("recv events need send=[node, index]")
            s_node, s_idx = send
            if not (0 <= s_node < self.num_nodes) or s_idx < 1:
                raise ValueError(f"recv references no such send: {send!r}")
            out["send"] = [s_node, s_idx]
        elif rec.get("send") is not None:
            raise ValueError("only recv events carry a send reference")
        return out

    def _check_causal(self, rec: dict[str, Any]) -> None:
        """Reject a validated event that could never apply, before it
        is queued: O(1), with reads of the monitor's kind column and
        received flags, the queue of the send's node and the sends that
        queued receives name.

        Raises
        ------
        TraceError
            For a receive that names a non-send event (applied or
            queued), a message already received (applied or queued), or
            a later event of its own node; and for a non-send event that
            a queued receive names as its send.
        """
        node, kind = rec["node"], rec["kind"]
        # the id the event takes once its node's queue ahead of it drains
        eid = (node, self._monitor.count(node) + len(self._queues[node]) + 1)
        if kind != "send" and eid in self._named:
            raise TraceError(
                f"event {eid} ({kind}) is named as a send by a queued receive"
            )
        if kind != "recv":
            return
        send = s_node, s_idx = tuple(rec["send"])
        if send in self._named:
            raise TraceError(f"message from {send} already received")
        if self._monitor.receivable(send):
            return
        ahead = s_idx - self._monitor.count(s_node)
        queue = self._queues[s_node]
        if ahead <= len(queue):
            if queue[ahead - 1][0]["kind"] != "send":
                raise TraceError(f"receive names {send}, which is not a send event")
        elif s_node == node:
            raise TraceError(
                f"receive {eid} names {send}, which its node has not sent before it"
            )

    def submit_event(
        self, rec: dict[str, Any], session: int | None = None
    ) -> list[dict[str, Any]]:
        """Enqueue one event frame; returns any verdicts that fired.

        The event is validated, queued on its node's queue, and the
        pump applies everything that became applicable (this event,
        parked receives it unblocked, deferred closes it completed).
        A receive parks only while its send may still arrive: one that
        can never apply (see :meth:`_check_causal`) is refused with a
        :class:`~repro.events.trace.TraceError`, and this event refused
        by the monitor as it applies raises its ``ValueError``; both
        leave every counter as they were.  A parked op refused in this
        pump goes to :meth:`take_refusals` instead.
        """
        rec = self._validate_event(rec)
        node = rec["node"]
        self._check_causal(rec)
        shard = self.shards[node]
        item = (rec, session)
        self._queues[node].append(item)
        if rec["kind"] == "recv":
            self._named.add(tuple(rec["send"]))
        shard.queued += 1
        shard.queued_peak = max(shard.queued_peak, shard.queued)
        if session is not None:
            self._pending_by_session[session] += 1
        return self._pump(item)

    def submit_close(
        self, interval: str, expected: int, session: int | None = None
    ) -> list[dict[str, Any]]:
        """Declare an interval complete at ``expected`` tagged events.

        The close applies (fires watches, is logged) as soon as the
        interval's tag count reaches ``expected`` — immediately if it
        already has.
        """
        if not isinstance(interval, str) or not interval:
            raise ValueError("close needs a non-empty interval name")
        if not isinstance(expected, int) or expected < 1:
            raise ValueError("close needs expected >= 1")
        self._pending_closes.append(
            _PendingClose(interval, expected, session, self._clock())
        )
        if session is not None:
            self._pending_by_session[session] += 1
        return self._pump()

    def submit_watch(
        self, name: str, condition: str, session: int | None = None
    ) -> list[dict[str, Any]]:
        """Register a watch; fires immediately if already decidable."""
        if not isinstance(name, str) or not name:
            raise ValueError("watch needs a non-empty name")
        if self.has_watch(name):
            raise ValueError(f"watch {name!r} already registered")
        self._monitor.watch(name, condition)  # parse errors propagate
        self._registered.add(name)
        self.log.append({"op": "watch", "name": name, "condition": condition})
        notes = self._monitor.poll_watches()
        return self._handle_notifications(notes, submitted_at=self._clock())

    def has_watch(self, name: str) -> bool:
        """Whether ``name`` was ever registered — pending, fired or
        decided; lets a restarted service skip re-submitting startup
        watches that the resumed log replayed.  One set lookup."""
        return name in self._registered

    def pending(self, session: int | None = None) -> int:
        """Unapplied (parked) operations — of one session, or total."""
        if session is not None:
            return self._pending_by_session.get(session, 0)
        return sum(len(q) for q in self._queues) + len(self._pending_closes)

    def session_gone(self, session: int) -> None:
        """Forget per-session accounting after a disconnect."""
        self._pending_by_session.pop(session, None)

    def take_refusals(self) -> list[tuple[int | None, str]]:
        """The ``(session, message)`` of every parked op the monitor
        refused as it applied since the last call; the list is handed
        over and the core starts a new one."""
        out, self._refusals = self._refusals, []
        return out

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def _applicable(self, rec: dict[str, Any]) -> bool:
        """Whether ``rec`` can apply now: anything but a receive whose
        send the monitor has not observed yet.  Whether that send is a
        send, and not received yet, was checked at submit
        (:meth:`_check_causal`) and is checked again by the monitor when
        the receive applies."""
        if rec["kind"] != "recv":
            return True
        s_node, s_idx = rec["send"]
        return s_idx <= self._monitor.count(s_node)

    def _apply_event(self, rec: dict[str, Any]) -> None:
        """Feed one validated event into the monitor (no logging here:
        the pump logs live submissions; replay must not re-log)."""
        node, kind = rec["node"], rec["kind"]
        label = rec.get("label")
        t = rec.get("time")
        tag = rec.get("interval")
        if kind == "send":
            self._monitor.send(node, label=label, time=t, interval=tag)
        elif kind == "recv":
            handle = MessageHandle(send=tuple(rec["send"]))
            self._monitor.recv(node, handle, label=label, time=t, interval=tag)
        else:
            self._monitor.internal(node, label=label, time=t, interval=tag)

    def _settle(self, session: int | None) -> None:
        if session is not None and session in self._pending_by_session:
            left = self._pending_by_session[session] - 1
            if left <= 0:
                del self._pending_by_session[session]
            else:
                self._pending_by_session[session] = left

    def _pump(
        self, own: tuple[dict[str, Any], int | None] | None = None
    ) -> list[dict[str, Any]]:
        """Apply every applicable queued op until a fixpoint; returns
        the verdict notifications emitted along the way.

        An op the monitor refuses is dropped and recorded for
        :meth:`take_refusals`, and the pump runs on.  The queue item
        ``own`` (the op being submitted) is the exception: its refusal
        is raised, which is safe because it is then the pump's first
        and only step, as everything else was at a fixpoint."""
        out: list[dict[str, Any]] = []
        progressed = True
        while progressed:
            progressed = False
            for node, queue in enumerate(self._queues):
                shard = self.shards[node]
                while queue and self._applicable(queue[0][0]):
                    item = queue.popleft()
                    rec, session = item
                    # settled before applying: an op the monitor refuses
                    # is dropped, and leaves no count behind
                    shard.queued -= 1
                    self._settle(session)
                    if rec["kind"] == "recv":
                        self._named.discard(tuple(rec["send"]))
                    try:
                        self._apply_event(rec)
                    except ValueError as exc:
                        if item is own:
                            raise
                        self._refusals.append((session, str(exc)))
                        continue
                    self.log.append({"op": "event", **rec})
                    shard.applied += 1
                    progressed = True
            still: list[_PendingClose] = []
            for close in self._pending_closes:
                iv = self._monitor.interval(close.interval)
                if iv.closed:
                    self._settle(close.session)
                    progressed = True
                    continue  # duplicate close; first one won
                if iv.count >= close.expected:
                    notes = self._monitor.close(close.interval)
                    self._closes_applied += 1
                    self.log.append({
                        "op": "close",
                        "interval": close.interval,
                        "expected": close.expected,
                    })
                    out.extend(
                        self._handle_notifications(
                            notes, submitted_at=close.submitted_at
                        )
                    )
                    self._settle(close.session)
                    progressed = True
                else:
                    still.append(close)
            self._pending_closes = still
        return out

    # ------------------------------------------------------------------
    # watch emission / replication / failover
    # ------------------------------------------------------------------
    def _handle_notifications(
        self, notes: Iterable[WatchNotification], submitted_at: float
    ) -> list[dict[str, Any]]:
        """Route fired watches: emit (primary) or stash (replica)."""
        out: list[dict[str, Any]] = []
        for note in notes:
            if note.name in self._emitted:
                continue
            verdict = {
                "op": "verdict",
                "name": note.name,
                "passed": note.passed,
                "decided_at": note.decided_at,
            }
            if self.role == "primary":
                out.append(self._emit(verdict, submitted_at))
            else:
                self._unconfirmed.setdefault(note.name, verdict)
        return out

    def _emit(
        self, verdict: dict[str, Any], submitted_at: float | None
    ) -> dict[str, Any]:
        self._watch_seq += 1
        verdict = {**verdict, "watch_seq": self._watch_seq}
        self._emitted.add(verdict["name"])
        self.log.append(verdict)
        if submitted_at is not None:
            lat = max(self._clock() - submitted_at, 0.0)
            self._latency_count += 1
            self._latency_total += lat
            self._latency_max = max(self._latency_max, lat)
        return verdict

    def _replay(self, rec: dict[str, Any]) -> None:
        """Apply one already-sequenced record without re-logging."""
        op = rec.get("op")
        if op == "init":
            if int(rec["num_nodes"]) != self.num_nodes:
                raise LogError(
                    f"init record num_nodes={rec['num_nodes']} does not "
                    f"match core width {self.num_nodes}"
                )
        elif op == "event":
            body = self._validate_event(rec)
            if not self._applicable(body):
                raise LogError(
                    f"record seq={rec.get('seq')}: receive precedes its "
                    "send in the log (corrupt replication order)"
                )
            self._apply_event(body)
            self.shards[body["node"]].applied += 1
        elif op == "close":
            notes = self._monitor.close(rec["interval"])
            self._closes_applied += 1
            self._handle_notifications(notes, submitted_at=self._clock())
        elif op == "watch":
            self._monitor.watch(rec["name"], rec["condition"])
            self._registered.add(rec["name"])
            notes = self._monitor.poll_watches()
            self._handle_notifications(notes, submitted_at=self._clock())
        elif op == "verdict":
            name = rec["name"]
            self._emitted.add(name)
            self._unconfirmed.pop(name, None)
            self._watch_seq = max(self._watch_seq, int(rec["watch_seq"]))
        else:
            raise LogError(f"unknown log op: {op!r}")

    def apply_record(self, rec: dict[str, Any]) -> None:
        """Standby path: durably append one replicated record, then
        apply it.  Records must arrive in sequence order."""
        self.log.append(dict(rec))
        self._replay(rec)

    def promote(self) -> list[dict[str, Any]]:
        """Become primary; emit the unconfirmed watch remainder.

        Returns the verdicts for every watch that had fired on the
        (dead) primary's behalf but whose emission was never confirmed
        by a replicated verdict record — plus nothing else, which is
        the exactly-once guarantee: already-confirmed watches stay in
        ``emitted`` and are never re-announced.
        """
        self.role = "primary"
        out = [self._emit(v, submitted_at=None) for v in self._unconfirmed.values()]
        self._unconfirmed.clear()
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def monitor(self) -> OnlineMonitor:
        """The wrapped online monitor (finalisation, offline hand-off)."""
        return self._monitor

    def note_throttle(self, node: int | None = None) -> None:
        """Count one throttle frame (against a node's counters if known)."""
        self.throttles += 1
        if node is not None:
            self.shards[node].throttles += 1

    def stats(self) -> dict[str, Any]:
        """JSON-ready counters for the ``stats`` frame and CLI line."""
        passes = {
            key: count - self._passes_at_start.get(key, 0)
            for key, count in clock_pass_counts().items()
        }
        count = self._latency_count
        lat = {
            "count": count,
            "avg_ms": self._latency_total / count * 1e3 if count else 0.0,
            "max_ms": self._latency_max * 1e3,
        }
        return {
            "role": self.role,
            "num_nodes": self.num_nodes,
            "events_applied": sum(s.applied for s in self.shards),
            "closes_applied": self._closes_applied,
            "watches_registered": len(self._registered),
            "verdicts_emitted": self._watch_seq,
            "throttles": self.throttles,
            "parked": self.pending(),
            "last_seq": self.last_seq,
            "shards": [s.as_dict() for s in self.shards],
            "watch_latency": lat,
            "clock_passes": passes,
        }
