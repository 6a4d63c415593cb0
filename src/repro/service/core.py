"""Transport-agnostic ingest state machine for the monitoring service.

:class:`MonitorCore` owns everything about live ingest that is *not*
networking, so the asyncio front end stays a thin frame router and the
failover tests can drive the state machine directly:

* **Sharded ingest** — every node has its own FIFO pending queue (a
  shard groups ``num_nodes / num_shards`` of them for the counters;
  the default is one shard per node).  Events flow through the
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
* **The log** — every applied operation is appended (in application
  order, which makes the log replayable without parking) before its
  effects are visible to any client; see :mod:`repro.service.log`.
  Without a log file the core keeps the records in a dense in-memory
  store under the same sequencing rule.
* **Exactly-once watch notifications** — emitted verdicts get a
  monotone ``watch_seq`` and are themselves logged; a replica stashes
  the notifications it derives from replayed closes as *unconfirmed*
  until the primary's matching verdict record arrives, and
  :meth:`promote` emits exactly the unconfirmed remainder — no watch
  is lost, none is duplicated.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any

from ..events.builder import MessageHandle
from ..events.clocks import clock_pass_counts
from ..events.event import EventId
from ..events.trace import TraceError
from ..monitor.online import OnlineMonitor, WatchNotification
from .log import TAIL_RECORDS, EventLog, LogError

__all__ = ["MonitorCore", "ShardCounters"]

_KINDS = ("internal", "send", "recv")

_SEQ = itemgetter("seq")


@dataclass
class ShardCounters:
    """Ingest counters for one shard (a group of node queues)."""

    applied: int = 0
    queued: int = 0
    queued_peak: int = 0
    throttles: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready snapshot for the ``stats`` frame."""
        return {
            "applied": self.applied,
            "queued": self.queued,
            "queued_peak": self.queued_peak,
            "throttles": self.throttles,
        }


@dataclass
class _PendingClose:
    """A ``close`` op waiting for its interval to reach ``expected``."""

    interval: str
    expected: int
    session: int | None
    submitted_at: float = 0.0


class MonitorCore:
    """Sharded, log-backed, failover-aware wrapper of the online monitor.

    Parameters
    ----------
    num_nodes:
        Width of the monitored system.
    num_shards:
        Counter granularity for ingest sharding; defaults to one shard
        per node (``shard = node % num_shards``).
    log:
        The durable :class:`~repro.service.log.EventLog`; ``None``
        keeps every record in memory (tests, benchmarks) with the same
        dense sequencing rule.
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
        num_shards: int | None = None,
        log: EventLog | None = None,
        role: str = "primary",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown role: {role!r}")
        self.num_nodes = num_nodes
        self.num_shards = (
            num_nodes if num_shards is None else max(1, min(num_shards, num_nodes))
        )
        self.role = role
        self._clock = clock
        self._monitor = OnlineMonitor(num_nodes)
        self._queues: list[deque] = [deque() for _ in range(num_nodes)]
        # sends named by queued (not yet applied) receives
        self._named: set[EventId] = set()
        self._pending_closes: list[_PendingClose] = []
        self._pending_by_session: dict[int, int] = {}
        self.shards = [ShardCounters() for _ in range(self.num_shards)]
        self._log = log
        self._mem_records: list[dict[str, Any]] = []
        self._mem_next_seq = 1
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
        if log is None or log.last_seq == 0:
            self._append({"op": "init", "num_nodes": num_nodes})

    # ------------------------------------------------------------------
    # construction from a replicated log
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[dict[str, Any]],
        *,
        log: EventLog | None = None,
        role: str = "primary",
        num_shards: int | None = None,
    ) -> "MonitorCore":
        """Rebuild the full monitor state by replaying log records.

        ``records`` is typically :func:`~repro.service.log.read_records`
        output, or :meth:`EventLog.iter_from` of a freshly opened log —
        pass that same log as ``log`` and the replay neither re-appends
        nor keeps the records (they stay on disk).  Without ``log`` the
        records become the core's in-memory store.  The returned core
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
        core = cls(
            int(head["num_nodes"]),
            num_shards=num_shards,
            log=None,
            role="replica",
        )
        core._mem_records.clear()  # drop the fresh init; replay the real one
        for rec in chain((head,), records):
            core._replay(rec)
            if log is None:
                # kept as given: a caller may replay a log with records
                # dropped (lost verdicts), so seqs need not be dense
                core._mem_records.append(rec)
        if log is None:
            core._mem_next_seq = core._mem_records[-1]["seq"] + 1
        core._log = log
        if role == "primary":
            core.role = "primary"
        return core

    # ------------------------------------------------------------------
    # record plumbing
    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> int:
        """Durably record one applied operation; returns its seq.

        A record that already carries a ``seq`` (replication, replay)
        must be exactly the next one, as :meth:`EventLog.append`
        requires."""
        if self._log is not None:
            return self._log.append(record)
        seq = record.get("seq")
        if seq is None:
            record = {"seq": self._mem_next_seq, **record}
        elif seq != self._mem_next_seq:
            raise LogError(
                f"out-of-order append: got seq {seq}, "
                f"expected {self._mem_next_seq}"
            )
        self._mem_records.append(record)
        self._mem_next_seq += 1
        return record["seq"]

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record."""
        if self._log is not None:
            return self._log.last_seq
        return self._mem_next_seq - 1

    @property
    def tail_floor(self) -> int:
        """The lowest replication cursor served by live pushes: a
        replica further behind catches up through :meth:`read_from`.
        For a log it is the start of the in-memory tail; the in-memory
        store holds everything but applies the same window, so a
        far-behind replica is paced the same way."""
        if self._log is not None:
            return self._log.tail_floor
        first = self._mem_records[0]["seq"] if self._mem_records else 1
        return max(self.last_seq - TAIL_RECORDS, first - 1)

    def records_from(self, seq: int) -> list[dict[str, Any]]:
        """Records with sequence number strictly greater than ``seq``,
        from memory only (live replication pushes).  A log serves
        cursors from :attr:`tail_floor` on and raises
        :class:`~repro.service.log.LogError` below it."""
        if self._log is not None:
            return self._log.records_from(seq)
        return self._mem_slice(seq, None)

    def _mem_slice(self, seq: int, stop: int | None) -> list[dict[str, Any]]:
        """In-memory records with ``seq < record seq <= stop``: two
        bisections on the (increasing) seqs, then one slice."""
        recs = self._mem_records
        lo = bisect_right(recs, seq, key=_SEQ)
        hi = len(recs) if stop is None else bisect_right(recs, stop, key=_SEQ)
        return recs[lo:max(hi, lo)]

    def read_from(
        self, seq: int, stop: int | None = None
    ) -> list[dict[str, Any]]:
        """Records with ``seq < record seq <= stop`` (``stop`` defaults
        to the last record) — replication catch-up reads.  Blocking
        for a log (a file read): event loops call it through
        ``asyncio.to_thread``."""
        if self._log is not None:
            return self._log.read_from(seq, stop)
        return self._mem_slice(seq, stop)

    @property
    def log_needs_sync(self) -> bool:
        """Whether the backing log has a full unsynced batch pending."""
        return self._log is not None and self._log.needs_sync

    def flush_log(self) -> None:
        """Fsync batched appends.  Blocking: event-loop owners must run
        this in an executor (``MonitorService._flush_log`` does)."""
        if self._log is not None:
            self._log.sync()

    def close_log(self) -> None:
        """Sync and close the backing log (idempotent).  Blocking, like
        :meth:`flush_log`."""
        if self._log is not None:
            self._log.close()

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

        The event is validated, queued on its node's shard, and the
        pump applies everything that became applicable (this event,
        parked receives it unblocked, deferred closes it completed).
        A receive parks only while its send may still arrive: one that
        can never apply (see :meth:`_check_causal`) is refused with a
        :class:`~repro.events.trace.TraceError` and leaves every
        counter as it was.
        """
        rec = self._validate_event(rec)
        node = rec["node"]
        self._check_causal(rec)
        shard = self.shards[node % self.num_shards]
        self._queues[node].append((rec, session))
        if rec["kind"] == "recv":
            self._named.add(tuple(rec["send"]))
        shard.queued += 1
        shard.queued_peak = max(shard.queued_peak, shard.queued)
        if session is not None:
            self._pending_by_session[session] = (
                self._pending_by_session.get(session, 0) + 1
            )
        return self._pump()

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
            self._pending_by_session[session] = (
                self._pending_by_session.get(session, 0) + 1
            )
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
        self._append({"op": "watch", "name": name, "condition": condition})
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

    def _pump(self) -> list[dict[str, Any]]:
        """Apply every applicable queued op until a fixpoint; returns
        the verdict notifications emitted along the way."""
        out: list[dict[str, Any]] = []
        progressed = True
        while progressed:
            progressed = False
            for node, queue in enumerate(self._queues):
                shard = self.shards[node % self.num_shards]
                while queue and self._applicable(queue[0][0]):
                    rec, session = queue.popleft()
                    # settled before applying: an op the monitor refuses
                    # is dropped, and leaves no count behind
                    shard.queued -= 1
                    self._settle(session)
                    if rec["kind"] == "recv":
                        self._named.discard(tuple(rec["send"]))
                    self._apply_event(rec)
                    self._append({"op": "event", **rec})
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
                    self._append({
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
        self._append(verdict)
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
            self.shards[body["node"] % self.num_shards].applied += 1
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
        self._append(dict(rec))
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
        out = []
        for verdict in list(self._unconfirmed.values()):
            out.append(self._emit(verdict, submitted_at=None))
        self._unconfirmed.clear()
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def monitor(self) -> OnlineMonitor:
        """The wrapped online monitor (finalisation, offline hand-off)."""
        return self._monitor

    @property
    def watch_seq(self) -> int:
        """Highest emitted watch sequence number."""
        return self._watch_seq

    def note_throttle(self, node: int | None = None) -> None:
        """Count one throttle frame (against a node's shard if known)."""
        self.throttles += 1
        if node is not None:
            self.shards[node % self.num_shards].throttles += 1

    def stats(self) -> dict[str, Any]:
        """JSON-ready counters for the ``stats`` frame and CLI line."""
        passes = {
            key: count - self._passes_at_start.get(key, 0)
            for key, count in clock_pass_counts().items()
        }
        lat = {
            "count": self._latency_count,
            "avg_ms": (
                self._latency_total / self._latency_count * 1e3
                if self._latency_count
                else 0.0
            ),
            "max_ms": self._latency_max * 1e3,
        }
        return {
            "role": self.role,
            "num_nodes": self.num_nodes,
            "num_shards": self.num_shards,
            "events_applied": sum(s.applied for s in self.shards),
            "closes_applied": self._closes_applied,
            "watches_registered": len(self._registered),
            "verdicts_emitted": self._watch_seq,
            "throttles": self.throttles,
            "parked": self.pending(),
            "last_seq": self.last_seq,
            "shards": [s.as_dict() for s in self.shards],
            "watch_latency": lat,
            "clock_passes": dict(passes),
        }
